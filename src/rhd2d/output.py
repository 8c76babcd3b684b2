"""Plain-text data emission: field dumps, cut lines, schlieren data, reports.

Everything is written with 17 significant digits and fixed ordering, so a
rerun of the same configuration produces byte-identical files.  Rendering
is left to external tools.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from . import recovery
from .errors import ConfigurationError
from .mesh_solver import Field
from .physics import EosParams

_FMT = "%.17g"


def _fmt(value) -> str:
    return _FMT % float(value)


def _write_table(path, header: str, grid, values: np.ndarray) -> None:
    """Header line, then one `x y value...` row per cell, j-outer / i-inner.

    `values` has shape (n_x, n_y, k).  Each row is formatted with one
    %-string, which gives the same bytes as formatting value by value.
    Writing one mesh row (fixed j) at a time keeps the text of the whole
    table out of memory.
    """
    xs, ys = np.meshgrid(grid.centers_x(), grid.centers_y(), indexing="ij")
    table = np.concatenate([xs[..., None], ys[..., None], values], axis=-1)
    row = " ".join([_FMT] * table.shape[-1]) + "\n"
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for cells in table.transpose(1, 0, 2):
            handle.write("".join([row % tuple(r) for r in cells.tolist()]))


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
    _write_table(path, header, grid, np.concatenate([prim, cons], axis=-1))


def read_field(path):
    """Parse a write_field file back into (meta dict, data array (n, 10))."""
    with open(path) as handle:
        header = handle.readline().split()
        data = np.loadtxt(handle, ndmin=2)
    meta = {
        "n_x": int(header[1]),
        "n_y": int(header[2]),
        "x_min": float(header[3]),
        "x_max": float(header[4]),
        "y_min": float(header[5]),
        "y_max": float(header[6]),
        "time": float(header[7]),
        "gamma": float(header[8]),
    }
    return meta, data


def write_cuts(field: Field, eos: EosParams, path) -> None:
    """Density profiles along the y-axis and the diagonal y = x.

    Two `coord value` blocks; the coordinate is the signed distance from the
    origin along the ray (y itself on the axis, sqrt(2) x on the diagonal).
    Profiles are taken from the cells nearest each ray.  The diagonal cut
    needs a square grid.
    """
    grid = field.grid
    if grid.n_x != grid.n_y:
        raise ConfigurationError("diagonal cut needs a square grid")
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    rho = prim[..., 0]
    xs = grid.centers_x()
    col = int(np.argmin(np.abs(xs - 1e-15)))  # ties go to the positive side
    cuts = (
        ("y-axis", grid.centers_y(), rho[col, :]),
        ("diagonal", math.sqrt(2.0) * xs, np.diagonal(rho)),
    )
    blocks = []
    for ray, coords, values in cuts:
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
