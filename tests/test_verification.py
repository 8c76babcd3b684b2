"""The `verify` suites' contract: seeds and sample counts are checked up
front, each chunk draws its lanes straight from the caller's generator (of
any kind) in the suite's order, a seed and a sample count fix every
result, and memory does not grow with the sample count."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from rhd2d import physics, verification
from rhd2d.errors import ConfigurationError

SUITES = (verification.run_all,
          lambda seed, n: verification.admissible_set_suite(np.random.default_rng(seed), n),
          lambda seed, n: verification.corner_solver_suite(np.random.default_rng(seed), n),
          lambda seed, n: verification.recovery_suite(np.random.default_rng(seed), n))
BOUNDARY = {"gamma_cap": verification.BOUNDARY_GAMMA_CAP, "guard": verification.BOUNDARY_GUARD}
EOS, ALPHA = verification.EOS, verification.ALPHA


def summary(seed, samples):
    return [(r.name, r.samples, r.failures, r.detail, r.exit_code)
            for r in verification.run_all(seed, samples)]


class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10", None, np.float64(4.0)])
    @pytest.mark.parametrize("suite", SUITES, ids=("run_all", "admissible", "corner", "recovery"))
    def test_counts_other_than_positive_integers_are_rejected(self, suite, samples):
        with pytest.raises(ConfigurationError, match="sample count"):
            suite(1, samples)

    def test_integer_like_counts_are_accepted(self):
        assert summary(1, np.int64(3)) == summary(1, 3)


class TestSeedAndGenerator:
    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "1"])
    def test_seeds_other_than_non_negative_integers_are_rejected(self, seed):
        """A seed of None would draw from OS entropy and True would run as 1."""
        with pytest.raises(ConfigurationError, match="seed"):
            verification.run_all(seed, 3)

    def test_integer_like_seeds_are_accepted(self):
        assert summary(np.int64(0), 3) == summary(0, 3)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                               np.random.Philox])
    @pytest.mark.parametrize("suite", [verification.admissible_set_suite,
                                       verification.corner_solver_suite,
                                       verification.recovery_suite])
    def test_every_bit_generator_runs_the_suites(self, suite, bit_generator):
        results = suite(np.random.Generator(bit_generator(1)), 2000)
        assert results and all(r.samples == 2000 and r.passed for r in results), results

    @pytest.mark.parametrize("seed, samples", [(1, 1), (7, 20), (20260808, 3000)])
    def test_a_seed_and_a_sample_count_fix_the_results(self, seed, samples):
        assert summary(seed, samples) == summary(seed, samples)


def whole_admissible(rng, n):
    """The states the admissible-set suite tests, from whole draws in its order."""
    prim = oracles.whole_primitives(rng, n)
    cons = physics.prim_to_cons(prim, EOS)
    kappa = 10.0 ** rng.uniform(-6.0, 6.0, n)[:, None]
    centers = rng.uniform(-6.0, 1.0, n)
    u_0, u_1 = (physics.prim_to_cons(oracles.whole_primitives(
        rng, n, rho_decades=(-1.5, 1.5), rho_center=centers), EOS) for _ in range(2))
    theta = rng.uniform(0.0, 1.0, n)[:, None]
    c_0, c_1 = (10.0 ** rng.uniform(-3.0, 3.0, n)[:, None] for _ in range(2))
    prim_b = oracles.whole_primitives(rng, n, **BOUNDARY)
    cons_b = physics.prim_to_cons(prim_b, EOS)
    states = [cons, kappa * cons, theta * u_0 + (1.0 - theta) * u_1, c_0 * u_0 + c_1 * u_1]
    speeds, speeds_b = physics.extreme_speeds(prim, EOS), physics.extreme_speeds(prim_b, EOS)
    for axis in (0, 1):
        flux = physics.physical_flux(prim, cons, axis)
        flux_b = physics.physical_flux(prim_b, cons_b, axis)
        cases = [(cons_b, flux_b, speeds_b[axis], 0.0)]
        cases += [(cons, flux, speeds[axis], d) for d in (1e-3, 1.0, 10.0)]
        for u, f, (lam1, lam4), delta in cases:
            states += [(lam4 + delta)[:, None] * u - f, f - (lam1 - delta)[:, None] * u]
    return states


def whole_corner(rng, n):
    """The states the corner suite tests, drawn by the corner sampler's chunk
    rule with whole draws, in its order."""
    fans = [verification._subsonic_fans(oracles.whole_subsonic_corners(
        rng, n, EOS, ALPHA, verification.CHUNK, **kwargs)) for kwargs in ({}, BOUNDARY)]
    return [verification.hll_state_2d(*fans[0]), *verification.quadrant_fan_states(*fans[1])]


def whole_recovery(rng, n):
    """The conserved states the recovery suite recovers, from whole draws."""
    prim = oracles.whole_primitives(rng, n, gamma_cap=100.0, guard=verification.RECOVERY_GUARD)
    return [physics.prim_to_cons(prim, EOS)]


def per_chunk(whole):
    """`whole` called once per chunk of n lanes, in order, its states joined."""
    return lambda rng, n: [s for m in verification._chunks(n) for s in whole(rng, m)]


WHOLE_SUITES = ((verification.admissible_set_suite, per_chunk(whole_admissible)),
                (verification.corner_solver_suite, whole_corner),
                (verification.recovery_suite, per_chunk(whole_recovery)))


def sorted_bits(states):
    bits = np.concatenate([np.reshape(s, (-1, 4)).view(np.uint64) for s in states])
    return bits[np.lexsort(bits.T[::-1])]


def checked_states(monkeypatch, run):
    """run()'s result and the sorted bits of every state it passed to
    `is_admissible` (recovery's input included): all-pass results alone
    would not show lanes mixed up across a seam."""
    states = []
    is_admissible = physics.is_admissible

    def recording(cons):
        states.append(np.reshape(cons, (-1, 4)).copy())
        return is_admissible(cons)

    monkeypatch.setattr(physics, "is_admissible", recording)
    try:
        result = run()
    finally:
        monkeypatch.setattr(physics, "is_admissible", is_admissible)
    return result, sorted_bits(states)


class TestChunks:
    """Each chunk draws its lanes straight from the caller's generator, so
    whole draws made once per chunk give the suites' states bit for bit."""

    @pytest.mark.parametrize("chunk, samples", [(7, 1), (7, 7), (7, 20), (7, 50), (8192, 8193)])
    def test_chunks_draw_what_whole_draws_per_chunk_give(self, monkeypatch, chunk, samples):
        """The suites run one by one on one generator, as `run_all` and
        perfbench's traced `verify` call them."""
        monkeypatch.setattr(verification, "CHUNK", chunk)
        rng, want = (np.random.default_rng(3) for _ in range(2))
        for suite, whole in WHOLE_SUITES:
            _, got = checked_states(monkeypatch, lambda: suite(rng, samples))
            assert np.array_equal(got, sorted_bits(whole(want, samples))), suite.__name__
            assert rng.bit_generator.state == want.bit_generator.state, suite.__name__

    def test_chunk_results_fold_into_counts_and_maxima(self):
        """Every suite passes at these sizes, so only this shows a lost failure."""
        def check(m):
            return {"ok": np.arange(m) % 2 == 0, "worst": np.float64(m)}

        assert verification._in_chunks(check, [3, 5, 2]) == {"ok": (10, 4), "worst": 5.0}

    @pytest.mark.parametrize("chunk, samples", [(7, 1), (7, 50), (8192, 8193)])
    @pytest.mark.parametrize("kwargs", [{}, BOUNDARY])
    def test_corner_sampler_yields_exactly_n_two_sided_quadruples(self, monkeypatch, kwargs,
                                                                  chunk, samples):
        monkeypatch.setattr(verification, "CHUNK", chunk)
        pieces = list(verification._subsonic_corners(np.random.default_rng(5), samples, **kwargs))
        for prims, speeds in pieces:
            assert len({len(a) for a in (*prims, *speeds)}) == 1
            s_l, s_r, s_d, s_u = speeds
            assert np.all((s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0))
        assert sum(len(prims[0]) for prims, _ in pieces) == samples


def traced_peak(samples):
    tracemalloc.start()
    try:
        verification.run_all(1, samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_samples():
    """run_all's traced peak is set by CHUNK: 7.4 MB at 1e5 and at 3e5
    samples (37.7 MB at 1e5 and 150.8 MB at 4e5 when draws were whole)."""
    verification.run_all(1, 1)  # one-time allocations (about 0.9 MB) stay out of the peaks
    small, large = traced_peak(100_000), traced_peak(300_000)
    assert abs(large - small) <= 0.1 * small, (small, large)
    assert max(small, large) <= 9e6, (small, large)


_RSS_PROBE = """
from pathlib import Path
from rhd2d import verification
verification.run_all(1, 300_000)
status = Path("/proc/self/status").read_text()
print(next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_fresh_interpreter_peak_rss():
    """A fresh interpreter's peak RSS over run_all(1, 300_000): 43.6 MiB,
    28.7 of them for importing the package.

    The probe reads its own high-water mark, VmHWM, not ru_maxrss: the
    vfork and exec that start it carry this process's high-water mark
    into the child's ru_maxrss."""
    src = str(Path(verification.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
    assert int(done.stdout) / 1024 <= 50.0
