"""Plain-text data emission: field dumps, cut lines, schlieren data, reports.

Everything is written with 17 significant digits and fixed ordering, so a
rerun of the same configuration produces byte-identical files.  Rendering
is left to external tools.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import problems, recovery
from .mesh_solver import Field
from .physics import EosParams

_FMT = "%.17g"


def _fmt(value) -> str:
    return _FMT % float(value)


def _write_table(path, header: str, grid, *blocks: np.ndarray) -> None:
    """Header line, then one `x y value...` row per cell, j-outer / i-inner.

    Each block has shape (n_x, n_y, k); a row holds the cell's values from
    every block in turn.  Each row is formatted with one %-string, which
    gives the same bytes as formatting value by value.  Writing one mesh
    row (fixed j) at a time keeps the text, and the joined table, of the
    whole mesh out of memory.
    """
    row = " ".join([_FMT] * (2 + sum(block.shape[-1] for block in blocks))) + "\n"
    xs = grid.centers_x().tolist()
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for j, y in enumerate(grid.centers_y().tolist()):
            cells = np.concatenate([block[:, j] for block in blocks], axis=-1).tolist()
            handle.write("".join([row % (x, y, *values) for x, values in zip(xs, cells)]))


def write_field(field: Field, eos: EosParams, path) -> None:
    """Cell table `x y rho u v p D mx my E`, j-outer / i-inner order.

    The header line carries `# nx ny xmin xmax ymin ymax t gamma`.
    """
    grid = field.grid
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    cons = field.interior
    header = " ".join(
        ["#", str(grid.n_x), str(grid.n_y)]
        + [_fmt(v) for v in (grid.x_min, grid.x_max, grid.y_min, grid.y_max, field.time, eos.gamma_adiabatic)]
    )
    _write_table(path, header, grid, prim, cons)


def write_cuts(field: Field, eos: EosParams, path) -> None:
    """The two `problems.density_cuts` profiles as `coord value` blocks.

    The y-axis block comes first, then the diagonal y = x; the coordinate is
    the signed distance from the origin along the ray.
    """
    blocks = []
    for ray, (coords, values) in zip(("y-axis", "diagonal"), problems.density_cuts(field, eos)):
        lines = [f"# cut: {ray}"]
        lines += [f"{_fmt(c)} {_fmt(v)}" for c, v in zip(coords, values)]
        blocks.append("\n".join(lines))
    with open(path, "w") as handle:
        handle.write("\n\n".join(blocks) + "\n")


def write_schlieren(field: Field, eos: EosParams, path) -> None:
    """`x y ln_rho ln_p grad_rho_mag` with centered-difference gradients.

    One-sided differences are used on the boundary rows and columns.
    """
    grid = field.grid
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    rho = prim[..., 0]
    pres = prim[..., 3]
    grad_x, grad_y = np.gradient(rho, grid.dx, grid.dy)
    grad_mag = np.sqrt(grad_x * grad_x + grad_y * grad_y)
    ln_rho = np.log(rho)
    ln_p = np.log(pres)
    _write_table(
        path, "# x y ln_rho ln_p grad_rho_mag", grid, np.stack([ln_rho, ln_p, grad_mag], axis=-1)
    )


def write_report(entries: Mapping, path) -> None:
    """Flat `key = value` report in insertion order."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_fmt(value)}")
        else:
            lines.append(f"{key} = {value}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
