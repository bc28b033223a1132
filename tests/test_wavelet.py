"""Haar pyramid: hand values, perfect reconstruction, and energy conservation."""

import numpy as np
import pytest

from spinhier import wavelet as wv

SQ2 = np.sqrt(2.0)


def test_haar_step_hand_values():
    s, d = wv.haar_step([1.0, 1.0])
    assert s[0] == pytest.approx(SQ2, abs=1e-15)
    assert d[0] == pytest.approx(0.0, abs=1e-15)

    s, d = wv.haar_step([3.0, 1.0])
    assert s[0] == pytest.approx(2 * SQ2, abs=1e-15)
    assert d[0] == pytest.approx(SQ2, abs=1e-15)
    assert s[0] ** 2 + d[0] ** 2 == pytest.approx(10.0, abs=1e-12)

    s, d = wv.haar_step([1.0, 0.0, 0.0, 0.0])
    assert s == pytest.approx([1 / SQ2, 0.0], abs=1e-15)
    assert d == pytest.approx([1 / SQ2, 0.0], abs=1e-15)


def test_haar_step_energy_conservation():
    rng = np.random.default_rng(2)
    signal = rng.standard_normal(64)
    s, d = wv.haar_step(signal)
    assert np.sum(s ** 2) + np.sum(d ** 2) == pytest.approx(np.sum(signal ** 2), rel=1e-12)


def test_haar_step_rejects_odd_length():
    with pytest.raises(ValueError):
        wv.haar_step([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        wv.haar_step([1.0])


def test_forward_constant_signal():
    decomposition = wv.pyramid_forward(np.ones(8), 3)
    assert decomposition.approximation == pytest.approx([2 * SQ2], abs=1e-12)
    for detail in decomposition.details:
        assert np.max(np.abs(detail)) < 1e-12


def test_forward_coefficient_bookkeeping():
    decomposition = wv.pyramid_forward(np.arange(16.0), 2)
    assert decomposition.levels == 2
    assert len(decomposition.approximation) == 4
    assert [len(d) for d in decomposition.details] == [8, 4]
    assert decomposition.coefficient_count() == 16


def test_forward_rejects_bad_shapes():
    with pytest.raises(ValueError):
        wv.pyramid_forward(np.ones(12), 2)  # not dyadic
    with pytest.raises(ValueError):
        wv.pyramid_forward(np.ones(8), 4)  # too many levels


def test_inverse_hand_case():
    decomposition = wv.PyramidDecomposition(np.array([SQ2]), (np.array([0.0]),))
    assert wv.pyramid_inverse(decomposition) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_inverse_shape_mismatch():
    bad = wv.PyramidDecomposition(np.array([1.0, 2.0]), (np.array([0.0]),))
    with pytest.raises(ValueError):
        wv.pyramid_inverse(bad)


def test_round_trip_random_signals():
    rng = np.random.default_rng(4)
    for _ in range(100):
        signal = rng.standard_normal(16)
        decomposition = wv.pyramid_forward(signal, 4)
        assert np.max(np.abs(wv.pyramid_inverse(decomposition) - signal)) < 1e-12


def test_parseval_equality():
    rng = np.random.default_rng(6)
    signal = rng.standard_normal(1024)
    decomposition = wv.pyramid_forward(signal, 10)
    energy = np.sum(decomposition.approximation ** 2) + sum(
        np.sum(d ** 2) for d in decomposition.details
    )
    assert energy == pytest.approx(np.sum(signal ** 2), rel=1e-12)


def test_zeroing_details_of_constant_signal():
    decomposition = wv.pyramid_forward(np.full(16, 3.0), 4)
    cleaned = wv.PyramidDecomposition(
        decomposition.approximation,
        tuple(np.zeros_like(d) for d in decomposition.details),
    )
    assert np.max(np.abs(wv.pyramid_inverse(cleaned) - 3.0)) < 1e-12


def test_perfect_reconstruction_across_dyadic_lengths():
    rng = np.random.default_rng(8)
    for m in range(1, 17):
        signal = rng.standard_normal(2 ** m)
        decomposition = wv.pyramid_forward(signal, min(m, 6))
        assert np.max(np.abs(wv.pyramid_inverse(decomposition) - signal)) < 1e-12
