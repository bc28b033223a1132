"""The real-number contracts of the public API.  Every real-array argument
goes through one conversion, which refuses every dtype but bool, integer and
float, and object arrays of anything but real numbers (a float conversion would
drop an imaginary part with only a ComplexWarning, and read text as numbers)
and, where the argument is a sequence, any shape but one axis.  Every real scalar argument
goes through one check, which refuses anything but a finite real number of
any type but bool and hands on a Python float.  Each fault raises ValueError
naming the argument and warns nothing; valid input converts as float() or a
float array would."""

import argparse
import datetime
import math
import re
import warnings

import numpy as np
import pytest

from spinhier import cli, dynamics, gates, wavelet as wv
from spinhier import quantum_dot as qd
from spinhier.register import _as_float, _as_real

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
    (lambda: wv.haar_step([[1.0, 2.0], [3.0, 4.0]]), "signal", FLAT + "(2, 2)"),
    (lambda: qd.exchange_coupling("1.2", 0.7, 1.0), "b", "real, got dtype <U3"),
    (lambda: qd.sweep_exchange(GAAS, ["1.0"]), "b_fields", "real, got dtype <U3"),
    (lambda: qd.bessel_i0(b"1"), "x", "real, got dtype |S1"),
    (lambda: qd.sweep_exchange(GAAS, np.array(["2020-01-01"], dtype="datetime64[D]")),
     "b_fields", "real, got dtype datetime64[D]"),
    (lambda: qd.sweep_exchange(GAAS, [datetime.datetime(2020, 1, 1)]), "b_fields",
     "real, got dtype object"),
    (lambda: wv.pyramid_forward([None, 1.0, 2.0, 3.0], 1), "signal", "real, got dtype object"),
    (lambda: dynamics.PulseProfile([2 ** 70, 1j], 1.0), "samples", "real, got dtype object"),
    (lambda: dynamics.PulseProfile([10 ** 400, 1], 1.0), "samples",
     "finite, got a number too large for a float"),
], ids=["haar_step", "forward", "inverse_approximation", "inverse_detail",
        "bessel_i0", "bessel_i0-scalar", "exchange_coupling", "sweep_exchange",
        "sweep_exchange-list", "PulseProfile", "sweep_exchange-scalar", "sweep_exchange-2d",
        "PulseProfile-2d", "PulseProfile-scalar", "haar_step-2d", "exchange_coupling-text",
        "sweep_exchange-text", "bessel_i0-bytes", "sweep_exchange-datetime64",
        "sweep_exchange-datetime", "forward-None", "PulseProfile-big-int-and-complex",
        "PulseProfile-int-beyond-float"])
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


FIELDS = dict(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1, d=0.7, b_field=0.0)


def _dot(name):
    return lambda v: qd.DotParameters(**{**FIELDS, name: v})


def _jsweep(**options):
    args = argparse.Namespace(**{"bmin": 0.0, "bmax": 2.0, "points": 3, "d": None, "c": None,
                                 "out": None, **options})
    return cli._cmd_jsweep(args)


def _estimates(**options):
    args = argparse.Namespace(**{"g": None, "hbar_omega0": None, "mass_ratio": None, "d": None,
                                 **options})
    return cli._cmd_estimates(args)


# (parameter name, call taking the value, a valid integer value)
CONTRACT = {
    **{f"DotParameters-{name}": (name, _dot(name), valid) for name, valid in
       [("g", -2), ("hbar_omega0", 3), ("mass_ratio", 1), ("epsilon", 13), ("d", 1),
        ("b_field", 2)]},
    "gaas-d": ("d", lambda v: qd.DotParameters.gaas(d=v), 1),
    "gaas-b_field": ("b_field", lambda v: qd.DotParameters.gaas(b_field=v), 2),
    "exchange_coupling-d": ("d", lambda v: qd.exchange_coupling(1.2, v, 1.0), 1),
    "exchange_coupling-c": ("c", lambda v: qd.exchange_coupling(1.2, 0.7, v), 2),
    "sweep_exchange-c": ("c", lambda v: qd.sweep_exchange(GAAS, [0.0, 1.0], v), 2),
    "exchange_at_field-c": ("c", lambda v: qd.exchange_at_field(GAAS, v), 2),
    "PulseProfile-duration_ns": ("pulse duration", lambda v: dynamics.PulseProfile((1.0, 2.0), v),
                                 2),
    "heisenberg_hamiltonian": ("exchange coupling", dynamics.heisenberg_hamiltonian, 1),
    "zeeman_hamiltonian-b_tesla": ("b_tesla", lambda v: dynamics.zeeman_hamiltonian(v, -0.44), 1),
    "zeeman_hamiltonian-g": ("g", lambda v: dynamics.zeeman_hamiltonian(1.0, v), -2),
    "pulse_for_area-area": ("area", lambda v: dynamics.pulse_for_area(v, 1.0), 3),
    "pulse_for_area-j0_mev": ("j0_mev", lambda v: dynamics.pulse_for_area(math.pi, v), 2),
    "single_spin_z_rotation": ("angle", lambda v: gates.single_spin_z_rotation(1, v), 1),
    "exchange_propagator": ("angle", gates.exchange_propagator, 2),
    "jsweep-bmin": ("--bmin", lambda v: _jsweep(bmin=v), 1),
    "jsweep-bmax": ("--bmax", lambda v: _jsweep(bmax=v), 2),
    # the CLI keeps no copy of these checks: each option reaches the library's
    "jsweep-d": ("d", lambda v: _jsweep(d=v), 1),
    "jsweep-c": ("c", lambda v: _jsweep(c=v), 2),
    **{f"estimates-{name}": (name, lambda v, name=name: _estimates(**{name: v}), valid)
       for name, valid in [("g", -2), ("hbar_omega0", 3), ("mass_ratio", 1), ("d", 1)]},
}


def _same(a, b):
    """Equal values of the same types, down to each float."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


# (a refused value, what its message says the parameter must be)
BAD = {"complex": (1 + 1j, "a real number"),
       "np-complex": (np.complex128(1 + 1j), "a real number"),
       "bool": (True, "a real number"), "str": ("1.0", "a real number"),
       "None": (None, "a real number"), "nan": (math.nan, "finite"), "inf": (math.inf, "finite"),
       "big-int": (10 ** 400, "finite")}
# c=None is the documented default there: the record's own Coulomb parameter;
# an option left None keeps the GaAs dot's value
NONE_IS_DEFAULT = {"sweep_exchange-c", "exchange_at_field-c", "jsweep-d", "jsweep-c",
                   *(call for call in CONTRACT if call.startswith("estimates-"))}


@pytest.mark.parametrize("call,bad,fault", [
    pytest.param(call, bad, fault, id=f"{call}-{kind}") for call in CONTRACT
    for kind, (bad, fault) in BAD.items() if not (bad is None and call in NONE_IS_DEFAULT)])
def test_real_scalar_parameters_refuse_all_but_finite_real_numbers(call, bad, fault):
    name, function, _ = CONTRACT[call]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {fault}, got ')}"):
            function(bad)
    assert caught == []


@pytest.mark.parametrize("call", CONTRACT)
def test_real_scalar_parameters_take_any_real_type_as_its_float(call):
    _, function, valid = CONTRACT[call]
    want = function(float(valid))
    for value in (np.float64(valid), np.int64(valid), int(valid)):
        assert _same(function(value), want)


def test_real_scalar_check_hands_on_a_python_float():
    assert type(_as_float("x", np.float32(0.5))) is float
    assert _as_float("x", np.float32(0.1)) == float(np.float32(0.1))
    with pytest.raises(ValueError, match=r"^x must be a real number, got np\.True_$"):
        _as_float("x", np.bool_(True))


@pytest.mark.parametrize("samples", [
    (0.0, 1.0, 0.5), [0, 1, 0.5], np.array([0.0, 1.0, 0.5]),
    np.array([0.0, 1.0, 0.5], dtype=np.float32), (np.int64(0), np.float64(1.0), 0.5),
], ids=["tuple", "list", "array", "float32-array", "numpy-scalars"])
def test_pulse_profiles_compare_and_hash_by_their_float_samples(samples):
    want = dynamics.PulseProfile((0.0, 1.0, 0.5), 2.0)
    for duration in (2.0, 2, np.float64(2.0), np.int64(2)):
        got = dynamics.PulseProfile(samples, duration)
        assert got == want and hash(got) == hash(want)
        assert _same(got.samples, want.samples) and _same(got.duration_ns, want.duration_ns)
