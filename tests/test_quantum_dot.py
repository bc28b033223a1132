"""Double-dot exchange physics against frozen extended-precision goldens.

The Bessel and exchange golden values below were computed beforehand with a
200-term power series in 50-digit arithmetic.
"""

import math
import warnings

import numpy as np
import pytest

from spinhier import quantum_dot as qd

# I0 from the extended-precision series oracle
BESSEL_GOLDENS = {
    0.1: 1.0025015629340956014,
    1.0: 1.266065877752008335598,
    2.0: 2.279585302336067267437,
    5.0: 27.23987182360444689454,
    10.0: 2815.71662846625447147,
    50.0: 293255378384933632665.5,
}

# J(b=1, d=0.7, c=2.36) in units of the confinement energy, same oracle
EXCHANGE_GOLDEN = 0.2545870495515009058193

GAAS = qd.DotParameters.gaas()


def test_parameter_validation():
    with pytest.raises(ValueError):
        qd.DotParameters(g=-0.44, hbar_omega0=0.0, mass_ratio=0.067, epsilon=13.1, d=0.7)
    with pytest.raises(ValueError):
        qd.DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=-1.0, epsilon=13.1, d=0.7)
    with pytest.raises(ValueError):
        qd.DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=0.5, d=0.7)
    with pytest.raises(ValueError):
        qd.DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1, d=0.0)
    for name in ("g", "hbar_omega0", "mass_ratio", "epsilon", "d", "b_field"):
        for bad in (math.nan, math.inf, -math.inf):
            fields = dict(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1,
                          d=0.7, b_field=0.0)
            fields[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                qd.DotParameters(**fields)


def test_bohr_radius_gaas():
    a_b = qd.bohr_radius(GAAS)
    assert abs(a_b - 19.5) / 19.5 < 0.05
    assert a_b == pytest.approx(19.4705397695, abs=1e-9)


def test_bohr_radius_scaling():
    stiffer = qd.DotParameters.gaas()
    stiffer = qd.DotParameters(g=stiffer.g, hbar_omega0=4 * stiffer.hbar_omega0,
                               mass_ratio=stiffer.mass_ratio, epsilon=stiffer.epsilon,
                               d=stiffer.d)
    assert qd.bohr_radius(stiffer) == pytest.approx(qd.bohr_radius(GAAS) / 2, rel=1e-12)
    bare_mass = qd.DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=1.0,
                                 epsilon=13.1, d=0.7)
    assert qd.bohr_radius(bare_mass) == pytest.approx(
        qd.bohr_radius(GAAS) * math.sqrt(0.067), rel=1e-12)
    assert qd.bohr_radius(bare_mass) == pytest.approx(5.04, abs=0.01)


def test_dimensionless_field():
    assert qd.exchange_at_field(GAAS).b == 1.0
    one_tesla = qd.DotParameters.gaas(b_field=1.0)
    assert qd.exchange_at_field(one_tesla).b == pytest.approx(1.0406401705756545, rel=1e-12)
    fields = np.linspace(0.0, 5.0, 50)
    values = [qd.exchange_at_field(qd.DotParameters.gaas(b_field=b)).b for b in fields]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_coulomb_parameter():
    c = qd.coulomb_parameter(GAAS)
    assert c == pytest.approx(2.3585869369947130, rel=1e-12)
    assert c == pytest.approx(2.4, abs=0.1)  # matches the coupled-dot literature scale
    screened = qd.DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067,
                                epsilon=1e9, d=0.7)
    assert qd.coulomb_parameter(screened) < 1e-7
    stiffer = qd.DotParameters(g=-0.44, hbar_omega0=12.0, mass_ratio=0.067,
                               epsilon=13.1, d=0.7)
    assert qd.coulomb_parameter(stiffer) == pytest.approx(c / 2, rel=1e-12)


def test_bessel_goldens():
    for x, reference in BESSEL_GOLDENS.items():
        assert abs(qd.bessel_i0(x) - reference) / reference < 1e-12


def test_bessel_bounds_and_domain():
    assert qd.bessel_i0(0.0) == 1.0
    for x in np.linspace(0.0, 50.0, 101):
        assert qd.bessel_i0(float(x)) >= 1.0
    for x in (5.0, 10.0, 40.0, 200.0, 700.0):
        lower = math.exp(x) / math.sqrt(2 * math.pi * x) * (1 - 1 / (8 * x))
        assert qd.bessel_i0(x) >= lower * 0.99
    with pytest.raises(ValueError):
        qd.bessel_i0(-0.5)
    with pytest.raises(ValueError):
        qd.bessel_i0(701.0)
    with pytest.raises(ValueError, match="got 701.0"):
        qd.bessel_i0(np.array([0.0, 5.0, 701.0]))
    with pytest.raises(ValueError, match="got nan"):
        qd.bessel_i0(math.nan)


def test_exchange_golden_value():
    got = qd.exchange_coupling(1.0, 0.7, 2.36)
    assert abs(got - EXCHANGE_GOLDEN) / EXCHANGE_GOLDEN < 1e-12


def _i0_series(x):
    return math.fsum((x * x / 4) ** k / math.factorial(k) ** 2 for k in range(60))


@pytest.mark.parametrize("b", [0.8, 0.95])
def test_exchange_below_unit_field_parameter(b):
    # 1/sqrt(2) < b < 1 is in the domain; there d^2 (b - 1/b) < 0 and I0 is even
    d, c = 0.7, 2.36
    u, v = b * d * d, d * d * (b - 1 / b)
    braces = math.exp(-u) * _i0_series(u) - math.exp(v) * _i0_series(abs(v))
    want = ((c * math.sqrt(b) * braces + 3 / (4 * b) * (1 + u))
            / math.sinh(2 * d * d * (2 * b - 1 / b)))
    assert qd.exchange_coupling(b, d, c) == pytest.approx(want, rel=1e-12)
    assert qd.exchange_coupling(np.array([b]), d, c)[0] == pytest.approx(want, rel=1e-12)


def test_exchange_names_b_and_d_above_the_bessel_range():
    with pytest.raises(ValueError, match=r"b \* d\^2 = 750\.0 at b = 30\.0, d = 5\.0"):
        qd.exchange_coupling(np.array([1.0, 30.0]), 5.0, 2.36)


# mpmath at 50 digits on the closed form, for b = 1.2, d = 17, c = 1
EXCHANGE_FAR_FIELD = -5.04438402930062e-303


@pytest.mark.parametrize("b,d", [(28.0, 5.0), (14.0, 7.0), (1.2, 17.0)])
def test_exchange_is_finite_without_warnings_across_its_domain(b, d):
    # e^{v} I0(v) and sinh(2 d^2 (2b - 1/b)) each overflow here on their own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qd.exchange_coupling(b, d, 1.0)
        assert math.isfinite(got)
        assert np.isfinite(qd.exchange_coupling(np.array([1.0, b]), d, 1.0)).all()
    if (b, d) == (1.2, 17.0):
        assert abs(got - EXCHANGE_FAR_FIELD) <= 1e-12 * abs(EXCHANGE_FAR_FIELD)


def test_exchange_suppression_at_large_distance():
    assert abs(qd.exchange_coupling(1.0, 4.0, 2.4)) < 1e-3


def test_exchange_domain_errors():
    with pytest.raises(ValueError):
        qd.exchange_coupling(0.5, 0.7, 2.36)  # 2b - 1/b < 0
    with pytest.raises(ValueError):
        qd.exchange_coupling(1.0, -0.7, 2.36)
    with pytest.raises(ValueError, match="degenerate geometry"):
        qd.exchange_coupling(np.array([1.0, 2.0, 0.5]), 0.7, 2.36)  # one bad element
    with pytest.raises(ValueError, match="b must be positive"):
        qd.exchange_coupling(np.array([1.0, -0.5]), 0.7, 2.36)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="c must be finite"):
            qd.exchange_coupling(1.0, 0.7, bad)
        with pytest.raises(ValueError, match="b must be positive|argument must be in"):
            qd.exchange_coupling(np.array([1.0, bad]), 0.7, 2.36)
    with pytest.raises(ValueError, match="field must be finite"):
        qd.sweep_exchange(GAAS, [0.0, math.inf])
    with pytest.raises(ValueError, match="field must be finite and non-negative"):
        qd.exchange_at_field(qd.DotParameters.gaas(b_field=-1.0))
    # b overflows to inf, which the b * d^2 check refuses without a numpy warning
    with pytest.raises(ValueError, match=r"^b \* d\^2 = inf at b = inf"):
        qd.sweep_exchange(GAAS, [1e200])
    # 1/b overflows, so the sinh argument is -inf
    with pytest.raises(ValueError, match="^degenerate geometry"):
        qd.exchange_coupling(1e-320, 0.7, 1.0)


def test_exchange_continuity_grid():
    for d in (0.5, 1.0, 1.5):
        values = qd.exchange_coupling(np.linspace(1.0 + 1e-9, 4.0, 10_000), d, 2.36)
        assert np.all(np.isfinite(values))
        jumps = np.abs(np.diff(values))
        assert jumps.max() < 0.05  # no spikes across the grid


def test_sweep_records_are_bit_identical_to_the_array_evaluation():
    fields = np.sort(np.random.default_rng(2001).uniform(0.0, 4.0, 2001))
    p = qd.DotParameters.gaas(d=0.6)
    c = qd.coulomb_parameter(p)
    b = qd._dimensionless_fields(p, fields)
    j = qd.exchange_coupling(b, p.d, c) * p.hbar_omega0
    results = qd.sweep_exchange(p, fields)
    assert all(type(res) is qd.ExchangeResult for res in results)
    assert all(type(x) is float for res in results for x in res)
    columns = np.array(results).T  # b, c, j_mev
    assert columns[0].tobytes() == b.tobytes()
    assert columns[1].tobytes() == np.full(len(fields), c).tobytes()
    assert columns[2].tobytes() == j.tobytes()


def test_exchange_at_field_uses_derived_coulomb():
    res = qd.exchange_at_field(GAAS)
    assert res.c == pytest.approx(qd.coulomb_parameter(GAAS), rel=1e-15)
    assert res.j_mev == pytest.approx(
        qd.exchange_coupling(1.0, 0.7, res.c) * 3.0, rel=1e-12)


# m omega0 underflows to 0.0, so a_B would divide by zero
UNDERFLOWING = qd.DotParameters(g=-0.44, hbar_omega0=1e-320, mass_ratio=1e-300, epsilon=13.1,
                                d=0.7)


@pytest.mark.parametrize("call,name", [
    (lambda: qd.bohr_radius(UNDERFLOWING), "Bohr radius"),
    (lambda: qd.coulomb_parameter(UNDERFLOWING), "Bohr radius"),
    (lambda: qd.sweep_exchange(UNDERFLOWING, [0.0]), "Bohr radius"),
    (lambda: qd.coulomb_parameter(qd.DotParameters(g=-0.44, hbar_omega0=5e-324, mass_ratio=1e299,
                                                   epsilon=13.1, d=0.7)), "Coulomb parameter"),
    # 1/sinh(2 d^2) overflows
    (lambda: qd.exchange_coupling(1.0, 1e-155, 1.0), "exchange coupling"),
    (lambda: qd.sweep_exchange(qd.DotParameters.gaas(d=1e-160), [0.0]), "exchange coupling"),
    # J is finite in units of the confinement energy, J in meV is not
    (lambda: qd.exchange_at_field(GAAS._replace(hbar_omega0=10.0), c=1.7e308),
     "exchange coupling"),
], ids=["bohr_radius", "coulomb_parameter-bohr", "sweep_exchange-bohr", "coulomb_parameter",
        "exchange_coupling", "sweep_exchange", "exchange_at_field"])
def test_results_beyond_the_float_range_are_refused(call, name):
    # before: ZeroDivisionError from a_B, a Coulomb parameter of inf, and J
    # of inf with a RuntimeWarning
    with pytest.raises(ValueError, match=f"^{name} falls outside the float range ") as error:
        call()
    assert type(error.value) is ValueError


def test_physical_estimates():
    est = qd.physical_estimates(GAAS)
    assert est.a_b_nm == qd.bohr_radius(GAAS)
    assert est.spin_orbit_ratio == pytest.approx(4.381224990507346e-08, rel=1e-12)
    assert 1e-8 <= est.spin_orbit_ratio <= 1e-7
    assert est.dipole_mev == pytest.approx(1.408007666991441e-09, rel=1e-12)
    assert 5e-10 <= est.dipole_mev <= 5e-9
