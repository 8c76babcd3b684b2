"""The `verify` suites' contract: sample counts are checked up front, the
check chunks change no bit of any result, and the memory per sample stays
bounded."""

import tracemalloc

import numpy as np
import pytest

from rhd2d import verification
from rhd2d.errors import ConfigurationError

SUITES = (verification.run_all,
          lambda seed, n: verification.admissible_set_suite(np.random.default_rng(seed), n),
          lambda seed, n: verification.corner_solver_suite(np.random.default_rng(seed), n),
          lambda seed, n: verification.recovery_suite(np.random.default_rng(seed), n))


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


def checked_states(monkeypatch, seed, samples):
    """run_all's summary and the sorted bits of every state it tested for
    admissibility: all-pass results alone would not show lanes mixed up
    across a seam."""
    states = []
    is_admissible = verification.physics.is_admissible

    def recording(cons):
        states.append(np.reshape(cons, (-1, 4)).view(np.uint64).copy())
        return is_admissible(cons)

    monkeypatch.setattr(verification.physics, "is_admissible", recording)
    result = summary(seed, samples)
    monkeypatch.setattr(verification.physics, "is_admissible", is_admissible)
    bits = np.concatenate(states)
    return result, bits[np.lexsort(bits.T[::-1])]


class TestChunks:
    """Draws stay whole, so the chunk seams must change no result.  4095 and
    4097 straddle the corner sampler's 4096-lane batches; 8193 straddles the
    default chunk."""

    @pytest.mark.parametrize("samples", [1, 7, 4095, 4097, 8193])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_seams_change_no_result(self, monkeypatch, seed, samples):
        chunks = [verification.CHUNK, 7]
        if samples <= 7:
            chunks.append(1)  # lane by lane, the corner batches included
        monkeypatch.setattr(verification, "CHUNK", max(samples, 4096) + 1)
        one_chunk, one_chunk_states = checked_states(monkeypatch, seed, samples)
        assert len(one_chunk) == 28
        for chunk in chunks:
            monkeypatch.setattr(verification, "CHUNK", chunk)
            got, got_states = checked_states(monkeypatch, seed, samples)
            assert got == one_chunk, chunk
            assert np.array_equal(got_states, one_chunk_states), chunk

    @pytest.mark.parametrize("kwargs", [
        {}, {"gamma_cap": verification.BOUNDARY_GAMMA_CAP, "guard": verification.BOUNDARY_GUARD}
    ])
    def test_corner_sampler_is_chunk_free(self, monkeypatch, kwargs):
        """Two 5000-lane batches fill 5000 quadruples whatever the chunk."""
        def corners(chunk):
            monkeypatch.setattr(verification, "CHUNK", chunk)
            return verification._subsonic_corners(np.random.default_rng(3), 5000, **kwargs)

        want = corners(5001)
        for chunk in (7, 1000):
            for got, expected in zip(corners(chunk), want, strict=True):
                assert got.tobytes() == expected.tobytes()


def test_peak_memory_per_sample():
    """run_all's traced peak per sample: 699 B before the checks ran in chunks, 395 after."""
    tracemalloc.start()
    try:
        verification.run_all(1, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 20_000 <= 410
