"""Property tests of the array-native device layer: the Haar pyramid against a
two-tap filter-bank reference, and the vectorised exchange sweep against its
pointwise entry points.  The Haar functions write into arrays of their own and
never into (or through a view of) their input."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhier import quantum_dot as qd
from spinhier import wavelet as wv

S = 1.0 / np.sqrt(2.0)
LOW, HIGH = (S, S), (S, -S)


def _two_tap_analysis(signal, taps):
    """Decimated circular convolution, accumulated tap by tap from zero."""
    n = len(signal)
    out = np.zeros(n // 2)
    for offset, tap in enumerate(taps):
        out += tap * signal[np.arange(offset, offset + n, 2) % n]
    return out


def _reference_forward(signal, levels):
    approx, details = signal, []
    for _ in range(levels):
        details.append(_two_tap_analysis(approx, HIGH))
        approx = _two_tap_analysis(approx, LOW)
    return approx, details


def _reference_inverse(approx, details):
    """Adjoint of the analysis steps, scattered with np.add.at."""
    for high in reversed(details):
        n = 2 * len(approx)
        signal = np.zeros(n)
        for taps, band in ((LOW, approx), (HIGH, high)):
            for offset, tap in enumerate(taps):
                np.add.at(signal, np.arange(offset, offset + n, 2) % n, tap * band)
        approx = signal
    return approx


def _same_bits(got, want):
    """Equal shape and bits; unlike np.array_equal, 0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def dyadic_signals(draw):
    """(signal, depth): length 2^1 .. 2^12, any depth, a random scale, and
    sometimes a sprinkling of 0.0 and -0.0 entries."""
    m = draw(st.integers(1, 12))
    depth = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    signal = 10.0 ** draw(st.integers(-6, 6)) * rng.standard_normal(2 ** m)
    if draw(st.booleans()):
        zeros = rng.random(2 ** m) < 0.5
        signal[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return signal, depth


@settings(max_examples=80, deadline=None)
@given(dyadic_signals())
def test_pyramid_forward_is_bit_equal_to_two_tap_reference(case):
    signal, depth = case
    approx, details = _reference_forward(signal, depth)
    got = wv.pyramid_forward(signal, depth)
    assert _same_bits(got.approximation, approx)
    assert len(got.details) == depth
    assert all(_same_bits(g, r) for g, r in zip(got.details, details))


# depths 1, 2 and 3 always run: the levels start in the output at odd depths
# and in the spare array at even ones
@settings(max_examples=80, deadline=None)
@given(dyadic_signals())
@example((np.random.default_rng(1).standard_normal(8), 1))
@example((np.random.default_rng(2).standard_normal(8), 2))
@example((np.random.default_rng(3).standard_normal(8), 3))
def test_pyramid_inverse_is_bit_equal_to_two_tap_reference(case):
    coefficients, depth = case
    n = len(coefficients)
    # split a random coefficient vector into bands: coarse, then coarsest detail first
    approx = coefficients[: n >> depth]
    details, pos = [], n >> depth
    for level in range(depth, 0, -1):
        details.append(coefficients[pos:pos + (n >> level)])
        pos += n >> level
    details.reverse()
    got = wv.pyramid_inverse(wv.PyramidDecomposition(approx, tuple(details)))
    assert _same_bits(got, _reference_inverse(approx, details))


@settings(max_examples=80, deadline=None)
@given(dyadic_signals())
def test_pyramid_round_trip_and_parseval(case):
    signal, depth = case
    decomposition = wv.pyramid_forward(signal, depth)
    scale = np.max(np.abs(signal))
    assert np.max(np.abs(wv.pyramid_inverse(decomposition) - signal)) <= 1e-12 * scale
    energy = np.dot(decomposition.approximation, decomposition.approximation) + sum(
        np.dot(band, band) for band in decomposition.details)
    total = np.dot(signal, signal)
    assert abs(energy - total) <= 1e-12 * total


@settings(max_examples=80, deadline=None)
@given(dyadic_signals())
def test_haar_functions_never_write_to_or_alias_their_input(case):
    signal, depth = case
    original = signal.copy()
    signal.flags.writeable = False  # any write through the input, or a view of it, raises
    n = len(signal)
    decomposition = wv.pyramid_forward(signal, depth)
    coefficients = [decomposition.approximation, *decomposition.details]
    # bands cut from one array, as a caller reading stacked coefficients has them
    stacked = wv.PyramidDecomposition(signal[: n >> depth], tuple(
        signal[n >> level:n >> (level - 1)] for level in range(1, depth + 1)))
    restored = wv.pyramid_inverse(decomposition)
    outputs = [*wv.haar_step(signal), *coefficients, wv.pyramid_inverse(stacked), restored]
    assert signal.tobytes() == original.tobytes()
    assert not any(np.shares_memory(out, signal) for out in outputs)
    assert not any(np.shares_memory(restored, band) for band in coefficients)


@settings(max_examples=40, deadline=None)
@given(dyadic_signals())
def test_pyramid_outputs_are_arrays_of_their_own(case):
    signal, depth = case
    first = wv.pyramid_forward(signal, depth)
    bands = [first.approximation, *first.details]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(bands) for b in bands[i + 1:])
    want = [band.copy() for band in bands]
    restored = wv.pyramid_inverse(first)
    want_restored = restored.copy()
    written = [*bands, restored]
    for array in written:  # the outputs of one call and the arrays of the next are apart
        array.fill(np.nan)
    second = wv.pyramid_forward(signal, depth)
    second_bands = [second.approximation, *second.details]
    assert all(_same_bits(g, w) for g, w in zip(second_bands, want))
    assert _same_bits(wv.pyramid_inverse(second), want_restored)
    assert all(np.isnan(array).all() for array in written)


@st.composite
def field_sweeps(draw):
    """(parameters, fields in Tesla): a GaAs pair at a random half-distance."""
    d = draw(st.floats(0.4, 1.2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = rng.uniform(0.0, draw(st.floats(0.1, 6.0)), draw(st.integers(1, 64)))
    return qd.DotParameters.gaas(d=d), fields


@settings(max_examples=60, deadline=None)
@given(field_sweeps())
def test_sweep_matches_exchange_at_field_pointwise(case):
    params, fields = case
    sweep = qd.sweep_exchange(params, fields)
    assert len(sweep) == len(fields)
    for field, result in zip(fields.tolist(), sweep):
        spot = qd.exchange_at_field(qd.DotParameters.gaas(d=params.d, b_field=field))
        assert result.b == spot.b
        assert result.c == spot.c
        assert abs(result.j_mev - spot.j_mev) <= 1e-15 * abs(spot.j_mev)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 1.5), st.lists(st.floats(0.0, 12.0), min_size=1, max_size=16),
       st.one_of(st.none(), st.floats(-5.0, 5.0)))
def test_exchange_at_field_is_a_one_point_sweep(d, fields, c):
    for field in fields:
        params = qd.DotParameters.gaas(d=d, b_field=field)
        assert qd.exchange_at_field(params, c) == qd.sweep_exchange(params, [field], c)[0]


def test_exchange_result_is_an_immutable_named_tuple():
    sweep = qd.sweep_exchange(qd.DotParameters.gaas(d=0.7), [0.0, 0.5, 2.0])
    assert all(isinstance(result, qd.ExchangeResult) for result in sweep)
    assert all(type(value) is float for result in sweep for value in result)
    result = sweep[1]
    for name in ("b", "c", "j_mev"):
        with pytest.raises(AttributeError):
            setattr(result, name, 0.0)
    b, c, j_mev = result
    assert (b, c, j_mev) == (result.b, result.c, result.j_mev) == result
    assert result._asdict() == {"b": b, "c": c, "j_mev": j_mev}
    assert result._replace(j_mev=0.0) == qd.ExchangeResult(b, c, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(-1e3, 1e3),
       st.lists(st.floats(0.7072, 300.0), min_size=1, max_size=32))
def test_array_exchange_coupling_is_bit_equal_to_its_scalar_calls(d, c, bs):
    bs = [b for b in bs if b * d * d <= qd.BESSEL_MAX_ARG] or [1.0]
    values = qd.exchange_coupling(np.array(bs), d, c)
    scalars = [qd.exchange_coupling(b, d, c) for b in bs]
    assert all(type(x) is float for x in scalars)
    assert values.shape == (len(bs),) and _same_bits(values, np.array(scalars))


def test_bessel_i0_accepts_arrays():
    grid = np.linspace(0.0, qd.BESSEL_MAX_ARG, 701)
    values = qd.bessel_i0(grid)
    assert np.array_equal(values, [qd.bessel_i0(x) for x in grid.tolist()])
    assert isinstance(qd.bessel_i0(1.0), float)
