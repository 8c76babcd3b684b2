"""The `verify` suites' contract: seeds, sample counts and generators are
checked up front, each chunk reads bitwise what a whole draw gives its
lanes, the caller's generator ends where whole draws leave it, and memory
does not grow with the sample count."""

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
    def test_generators_that_cannot_be_placed_are_rejected_before_any_draw(
            self, suite, bit_generator):
        """MT19937 and SFC64 have no `advance`; Philox's counts 4-word blocks."""
        rng, untouched = (np.random.Generator(bit_generator(1)) for _ in range(2))
        with pytest.raises(ConfigurationError, match=bit_generator.__name__):
            suite(rng, 10)
        assert rng.random(4).tobytes() == untouched.random(4).tobytes()


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
    """The states the corner suite tests, from whole draws in its order."""
    prims = oracles.whole_subsonic_corners(rng, n, EOS, ALPHA)
    states = [verification.hll_state_2d(*verification._subsonic_fans(prims))]
    prims_b = oracles.whole_subsonic_corners(rng, n, EOS, ALPHA, **BOUNDARY)
    return states + list(verification.quadrant_fan_states(*verification._subsonic_fans(prims_b)))


def whole_recovery(rng, n):
    """The conserved states the recovery suite recovers, from one whole draw."""
    prim = oracles.whole_primitives(rng, n, gamma_cap=100.0, guard=verification.RECOVERY_GUARD)
    return [physics.prim_to_cons(prim, EOS)]


WHOLE_SUITES = ((verification.admissible_set_suite, whole_admissible),
                (verification.corner_solver_suite, whole_corner),
                (verification.recovery_suite, whole_recovery))


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
    """Each chunk reads its lanes' values from their place in the stream, so
    the suites test exactly the states of whole draws.  4095 and 4097
    straddle the corner sampler's 4096-lane batches; 8193 straddles the
    default chunk."""

    @pytest.mark.parametrize("samples", [1, 7, 4095, 4097, 8193])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_seams_change_no_result(self, monkeypatch, seed, samples):
        rng = np.random.default_rng(seed)
        want_states = sorted_bits([s for _, whole in WHOLE_SUITES for s in whole(rng, samples)])
        chunks = [8192, 7]
        if samples <= 7:
            chunks.append(1)  # lane by lane, the corner batches included
        results = []
        for chunk in chunks:
            monkeypatch.setattr(verification, "CHUNK", chunk)
            got, got_states = checked_states(monkeypatch, lambda: summary(seed, samples))
            assert len(got) == 28
            assert np.array_equal(got_states, want_states), chunk
            results.append(got)
        assert all(got == results[0] for got in results)

    def test_chunk_results_fold_into_counts_and_maxima(self):
        """Every suite passes at these sizes, so only this shows a lost failure."""
        def check(m):
            return {"ok": np.arange(m) % 2 == 0, "worst": np.float64(m)}

        assert verification._in_chunks(check, [3, 5, 2]) == {"ok": (10, 4), "worst": 5.0}

    @pytest.mark.parametrize("kwargs", [{}, BOUNDARY])
    def test_corner_sampler_is_chunk_free(self, monkeypatch, kwargs):
        """Two 5000-lane batches fill 5000 quadruples whatever the chunk, and
        the refill batch is read only up to the chunk that completes them."""
        want_rng = np.random.default_rng(3)
        want = oracles.whole_subsonic_corners(want_rng, 5000, EOS, ALPHA, **kwargs)
        read = []
        corner_speeds = verification._corner_speeds

        def counted(prims):
            read.append(len(prims[0]))
            return corner_speeds(prims)

        monkeypatch.setattr(verification, "_corner_speeds", counted)
        for chunk in (7, 1000, 5001):
            monkeypatch.setattr(verification, "CHUNK", chunk)
            read.clear()
            rng = np.random.default_rng(3)
            pieces = list(verification._subsonic_corners(rng, 5000, **kwargs))
            got = [np.concatenate(prim) for prim in zip(*pieces)]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], chunk
            assert rng.bit_generator.state == want_rng.bit_generator.state, chunk
            assert sum(len(piece[0]) for piece in pieces) == 5000
            assert sum(read) > 5000, chunk  # a refill batch is read
            if chunk < 5000:
                assert sum(read) < 10_000, chunk  # and stops partway

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_suites_leave_the_stream_where_whole_draws_do(self, bit_generator):
        """The suites run one by one on one generator, as perfbench's traced
        `verify` calls them, with a buffered 32-bit half drawn before."""
        rng, want = (np.random.Generator(bit_generator(11)) for _ in range(2))
        for g in (rng, want):
            g.integers(2**32, dtype=np.uint32)
        for suite, whole in WHOLE_SUITES:
            suite(rng, 5000)
            whole(want, 5000)
            assert rng.bit_generator.state == want.bit_generator.state, suite.__name__

    def test_pcg64dxsm_reads_the_whole_draws_states(self, monkeypatch):
        """PCG64DXSM's `advance` also counts 64-bit outputs."""
        rng, want = (np.random.Generator(np.random.PCG64DXSM(5)) for _ in range(2))
        monkeypatch.setattr(verification, "CHUNK", 7)
        for suite, whole in WHOLE_SUITES:
            _, got = checked_states(monkeypatch, lambda: suite(rng, 30))
            assert np.array_equal(got, sorted_bits(whole(want, 30))), suite.__name__


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
