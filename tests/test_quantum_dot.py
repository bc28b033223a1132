"""Double-dot exchange physics against frozen extended-precision goldens.

The Bessel and exchange golden values below were computed beforehand with a
200-term power series in 50-digit arithmetic.
"""

import math

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
    assert qd.dimensionless_field(GAAS) == 1.0
    one_tesla = qd.DotParameters.gaas(b_field=1.0)
    assert qd.dimensionless_field(one_tesla) == pytest.approx(1.0406401705756545, rel=1e-12)
    fields = np.linspace(0.0, 5.0, 50)
    values = [qd.dimensionless_field(qd.DotParameters.gaas(b_field=b)) for b in fields]
    assert all(x < y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        qd.dimensionless_field(qd.DotParameters.gaas(b_field=-1.0))


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


def test_exchange_continuity_grid():
    for d in (0.5, 1.0, 1.5):
        values = qd.exchange_coupling(np.linspace(1.0 + 1e-9, 4.0, 10_000), d, 2.36)
        assert np.all(np.isfinite(values))
        jumps = np.abs(np.diff(values))
        assert jumps.max() < 0.05  # no spikes across the grid


def test_sweep_changes_sign_in_two_tesla():
    fields = np.linspace(0.0, 2.0, 201)
    results = qd.sweep_exchange(qd.DotParameters.gaas(d=0.7), fields)
    j_values = np.array([r.j_mev for r in results])
    assert 0.1 <= np.abs(j_values).max() <= 3.0
    assert j_values.min() < 0.0 < j_values.max()
    # b column consistent with the field column
    assert results[0].b == 1.0
    assert results[-1].b == pytest.approx(
        qd.dimensionless_field(qd.DotParameters.gaas(b_field=2.0)), rel=1e-12)


def test_exchange_at_field_uses_derived_coulomb():
    res = qd.exchange_at_field(GAAS)
    assert res.c == pytest.approx(qd.coulomb_parameter(GAAS), rel=1e-15)
    assert res.j_mev == pytest.approx(
        qd.exchange_coupling(1.0, 0.7, res.c) * 3.0, rel=1e-12)


def test_confinement_potential_shape():
    a = GAAS.d * qd.bohr_radius(GAAS)
    assert qd.confinement_potential(a, 0.0, GAAS) == pytest.approx(0.0, abs=1e-12)
    assert qd.confinement_potential(-a, 0.0, GAAS) == qd.confinement_potential(a, 0.0, GAAS)
    barrier = qd.confinement_potential(0.0, 0.0, GAAS)
    assert barrier == pytest.approx(GAAS.hbar_omega0 / 8 * GAAS.d ** 2, rel=1e-12)
    for x in np.linspace(-3 * a, 3 * a, 41):
        for y in (-5.0, 0.0, 5.0):
            assert qd.confinement_potential(x, y, GAAS) >= 0.0


def test_confinement_potential_bias_term():
    x = 7.3
    tilted = qd.confinement_potential(x, 0.0, GAAS, e_bias_v_per_nm=1e-3)
    flat = qd.confinement_potential(x, 0.0, GAAS)
    assert tilted - flat == pytest.approx(1000.0 * x * 1e-3, rel=1e-12)


def test_physical_estimates():
    est = qd.physical_estimates(GAAS)
    assert est.a_b_nm == qd.bohr_radius(GAAS)
    assert est.spin_orbit_ratio == pytest.approx(4.381224990507346e-08, rel=1e-12)
    assert 1e-8 <= est.spin_orbit_ratio <= 1e-7
    assert est.dipole_mev == pytest.approx(1.408007666991441e-09, rel=1e-12)
    assert 5e-10 <= est.dipole_mev <= 5e-9
