import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rhd2d import mesh_solver, physics
from rhd2d.physics import EosParams


@pytest.fixture
def eos53():
    return EosParams(5.0 / 3.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def steps_taken(monkeypatch):
    """The calls of `mesh_solver.step` that a run makes; the fourth raises, so a
    run that stops advancing its clock fails instead of looping forever."""
    calls = []
    step = mesh_solver.step

    def few_steps(*args, **kwargs):
        calls.append(args)
        if len(calls) > 3:
            raise AssertionError("run() kept stepping without advancing the clock")
        return step(*args, **kwargs)

    monkeypatch.setattr(mesh_solver, "step", few_steps)
    return calls


def assert_close(actual, expected, rel=1e-13, abs_tol=0.0):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=abs_tol)


def beam_numbers(spec):
    """(Lorentz factor, relativistic Mach number) of a jet's inflow beam.

    The Mach number is v gamma / (c_s gamma_s), with gamma_s the Lorentz
    factor of the beam's sound speed c_s.
    """
    beam = physics.primitive(*spec.boundaries.bottom.state)
    _, _, cs = physics.thermo(beam, spec.eos)
    gam = physics.lorentz_factor(beam[physics.VX], beam[physics.VY])
    return float(gam), float(beam[physics.VY] * gam / (cs * physics.lorentz_factor(cs, 0.0)))
