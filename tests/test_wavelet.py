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
    for levels in (1.0, 1.5, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="levels must be an integer"):
            wv.pyramid_forward(np.ones(8), levels)
    for signal, levels in ((np.ones((4, 3)), 0), (np.ones((4, 2)), 1), (3.0, 0)):
        with pytest.raises(ValueError, match="signal must be one-dimensional"):
            wv.pyramid_forward(signal, levels)
    signal = np.arange(8.0)
    want = wv.pyramid_forward(signal, 2)
    for numpy_type in (np.int64, np.int32):
        got = wv.pyramid_forward(signal, numpy_type(2))
        assert np.array_equal(got.approximation, want.approximation)
        assert all(map(np.array_equal, got.details, want.details))


def test_inverse_hand_case():
    decomposition = wv.PyramidDecomposition(np.array([SQ2]), (np.array([0.0]),))
    assert wv.pyramid_inverse(decomposition) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_inverse_shape_mismatch():
    bad = wv.PyramidDecomposition(np.array([1.0, 2.0]), (np.array([0.0]),))
    with pytest.raises(ValueError):
        wv.pyramid_inverse(bad)


@pytest.mark.parametrize("approximation,details,length", [
    (np.ones(3), (np.ones(3),), 6),
    (np.ones(3), (), 3),
    (np.ones(0), (), 0),
], ids=["six-samples", "three-samples", "empty"])
def test_inverse_refuses_what_no_forward_call_gives(approximation, details, length):
    # before the check: 6 samples, 3 samples and an empty array
    bad = wv.PyramidDecomposition(approximation, details)
    with pytest.raises(ValueError, match=f"^signal length must be a power of two, got {length}$"):
        wv.pyramid_inverse(bad)
    with pytest.raises(ValueError, match=f"^signal length must be a power of two, got {length}$"):
        wv.pyramid_forward(np.ones(length), len(details))


def test_inverse_rejects_bands_that_are_not_one_dimensional():
    for bad in (wv.PyramidDecomposition(np.ones((2, 2)), (np.ones((2, 2)),)),
                wv.PyramidDecomposition(np.ones(2), (np.ones((2, 1)),)),
                wv.PyramidDecomposition(np.float64(1.0), ())):
        with pytest.raises(ValueError, match="bands must be one-dimensional"):
            wv.pyramid_inverse(bad)


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
