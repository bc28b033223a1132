"""The real-array contract of the public API: every real-array argument goes
through one conversion, which refuses a complex dtype (a float conversion
would drop the imaginary part with only a ComplexWarning) and, where the
argument is a sequence, any shape but one axis.  Both raise ValueError naming
the argument and warn nothing; valid input converts as a float array would."""

import re
import warnings

import numpy as np
import pytest

from spinhier import dynamics, wavelet as wv
from spinhier import quantum_dot as qd
from spinhier.register import _as_real

COMPLEX = np.array([1 + 1j, 2, 3, 4])
GAAS = qd.DotParameters.gaas()
REAL = "real, got dtype complex128"
FLAT = "one-dimensional, got shape "


@pytest.mark.parametrize("call,name,fault", [
    (lambda: wv.haar_step(COMPLEX), "signal", REAL),
    (lambda: wv.pyramid_forward(COMPLEX, 1), "signal", REAL),
    (lambda: wv.pyramid_inverse(wv.PyramidDecomposition(COMPLEX[:2], (np.ones(2),))),
     "bands", REAL),
    (lambda: wv.pyramid_inverse(wv.PyramidDecomposition(np.ones(2), (COMPLEX[:2],))),
     "bands", REAL),
    (lambda: qd.bessel_i0(np.array([1 + 1j])), "x", REAL),
    (lambda: qd.bessel_i0(1 + 1j), "x", REAL),
    (lambda: qd.exchange_coupling(np.array([1.2 + 1j]), 0.7, 1.0), "b", REAL),
    (lambda: qd.sweep_exchange(GAAS, np.array([1 + 5j])), "b_fields", REAL),
    (lambda: qd.sweep_exchange(GAAS, [1.0, 2j]), "b_fields", REAL),
    (lambda: dynamics.PulseProfile(np.array([1 + 1j, 1.0]), 1.0), "samples", REAL),
    (lambda: qd.sweep_exchange(GAAS, 1.0), "b_fields", FLAT + "()"),
    (lambda: qd.sweep_exchange(GAAS, [[0.0, 1.0], [2.0, 3.0]]), "b_fields", FLAT + "(2, 2)"),
    (lambda: dynamics.PulseProfile(np.ones((2, 2)), 1.0), "samples", FLAT + "(2, 2)"),
    (lambda: dynamics.PulseProfile(1.0, 1.0), "samples", FLAT + "()"),
], ids=["haar_step", "forward", "inverse_approximation", "inverse_detail",
        "bessel_i0", "bessel_i0-scalar", "exchange_coupling", "sweep_exchange",
        "sweep_exchange-list", "PulseProfile", "sweep_exchange-scalar", "sweep_exchange-2d",
        "PulseProfile-2d", "PulseProfile-scalar"])
def test_complex_or_misshapen_input_is_refused_without_a_warning(call, name, fault):
    # the suite turns warnings into errors, which callers outside it never see
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {fault}')}$"):
            call()
    assert caught == []


@pytest.mark.parametrize("values", [
    [1, 2, 3], [0.5, -2.0], 3, 2.5, np.float32(0.1), np.arange(6).reshape(2, 3),
    np.linspace(0, 1, 5, dtype=np.float32), np.array([True, False]), [2 ** 70, 1],
], ids=["int-list", "float-list", "int", "float", "float32", "int-2d", "float32-array",
        "bool-array", "big-int-list"])
def test_real_input_converts_as_a_float_array_would(values):
    got = _as_real(values, "values")
    want = np.asarray(values, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_a_float_vector_is_passed_through_uncopied():
    vector = np.linspace(0.0, 1.0, 8)
    assert _as_real(vector, "vector", one_dimensional=True) is vector
