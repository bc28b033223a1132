"""Exchange coupling and scale estimates for a GaAs double quantum dot.

Two single-electron dots in a quartic double well, distance 2a apart, field B
along z.  The exchange splitting J between singlet and triplet is evaluated
from its closed form in the dimensionless field b, the dimensionless
half-distance d = a / a_B, and the Coulomb-strength parameter c.  All
dimensionful outputs are meV and nm, derived from the pinned constants table.
The parameter record, the scale estimates, ``bohr_radius`` and
``coulomb_parameter`` are plain ``math``; numpy is imported only by the
functions that compute on arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat

from .constants import E2_MEV_NM, HBARC_MEV_NM, MEC2_MEV, MU_B_MEV_PER_T
from .register import _CheckedRecord, _as_float, _as_real, _check_all

BESSEL_MAX_ARG = 700.0  # exp overflow guard


class DotParameters(_CheckedRecord, namedtuple(
        "DotParameters", "g hbar_omega0 mass_ratio epsilon d b_field")):
    """Material and geometry record for a coupled-dot pair.

    g: electron g-factor; hbar_omega0: confinement energy (meV); mass_ratio:
    effective mass over the electron mass; epsilon: dielectric constant;
    d: half-distance between the wells in units of the confinement Bohr
    radius; b_field: magnetic field along z (Tesla).  Each field is stored as
    the finite Python float that ``register._as_float`` makes of it.
    """

    __slots__ = ()

    def __new__(cls, g, hbar_omega0, mass_ratio, epsilon, d, b_field=0.0):
        self = tuple.__new__(cls, map(_as_float, cls._fields,
                                      (g, hbar_omega0, mass_ratio, epsilon, d, b_field)))
        if self.hbar_omega0 <= 0:
            raise ValueError("confinement energy must be positive")
        if self.mass_ratio <= 0:
            raise ValueError("mass ratio must be positive")
        if self.epsilon < 1:
            raise ValueError("dielectric constant must be >= 1")
        if self.d <= 0:
            raise ValueError("half-distance must be positive")
        return self

    @classmethod
    def gaas(cls, d: float = 0.7, b_field: float = 0.0) -> "DotParameters":
        """Standard GaAs dot: g = -0.44, 3 meV confinement, m = 0.067 m_e, eps = 13.1."""
        return cls(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1,
                   d=d, b_field=b_field)


class PhysicalEstimates(namedtuple("PhysicalEstimates", "a_b_nm spin_orbit_ratio dipole_mev")):
    """Order-of-magnitude scales of the dot pair."""

    __slots__ = ()


def bohr_radius(p: DotParameters) -> float:
    """Confinement length sqrt(hbar / (m omega0)) in nm (about 20 nm for GaAs).

    Raises ValueError when it leaves the float range.
    """
    m_omega0 = p.mass_ratio * MEC2_MEV * p.hbar_omega0
    if not 0.0 < m_omega0 < math.inf:  # a_B would divide by zero or be 0.0
        raise ValueError("Bohr radius falls outside the float range for these parameters")
    return HBARC_MEV_NM / math.sqrt(m_omega0)


def physical_estimates(p: DotParameters) -> PhysicalEstimates:
    """Confinement length, spin-orbit ratio, and dipole coupling scale.

    spin_orbit_ratio is H_SO / (hbar omega0) = hbar omega0 / (2 m c^2) for
    L.S of order hbar^2; dipole_mev is (mu_0 / 4 pi)(g mu_B)^2 / a_B^3,
    rewritten as g^2 e^2 (hbar c)^2 / (4 (m_e c^2)^2 a_B^3) so only pinned
    constants enter.  Raises ValueError when an estimate leaves the float range.
    """
    try:
        a_b = bohr_radius(p)
        spin_orbit = p.hbar_omega0 / (2.0 * p.mass_ratio * MEC2_MEV)
        dipole = (p.g ** 2 * E2_MEV_NM * HBARC_MEV_NM ** 2
                  / (4.0 * MEC2_MEV ** 2 * a_b ** 3))
    # a_B leaves the range, a float ** overflows or a_B^3 underflows to 0
    except (ValueError, OverflowError, ZeroDivisionError):
        a_b = spin_orbit = dipole = math.inf
    if not all(map(math.isfinite, (a_b, spin_orbit, dipole))):
        raise ValueError("scale estimates fall outside the float range for these parameters")
    return PhysicalEstimates(a_b_nm=a_b, spin_orbit_ratio=spin_orbit, dipole_mev=dipole)


class ExchangeResult(namedtuple("ExchangeResult", "b c j_mev")):
    """Exchange evaluation at one field point: the dimensionless field b, the
    Coulomb parameter c and the exchange coupling J in meV."""

    __slots__ = ()


def _dimensionless_fields(p: DotParameters, tesla):
    """b = sqrt(1 + (omega_L / omega0)^2) at each field of ``tesla``, a float array
    its caller has converted; hbar omega_L = mu_B B / mass_ratio (Larmor frequency
    eB / 2m), so b = 1 at zero field and b rises strictly with B."""
    import numpy as np

    _check_all(np.isfinite(tesla) & (tesla >= 0), tesla, "field must be finite and non-negative")
    larmor = MU_B_MEV_PER_T * tesla / p.mass_ratio
    return np.sqrt(1.0 + (larmor / p.hbar_omega0) ** 2)


def coulomb_parameter(p: DotParameters) -> float:
    """Dimensionless Coulomb strength sqrt(pi/2) * (e^2 / eps a_B) / (hbar omega0).

    Raises ValueError when it leaves the float range.
    """
    c = math.sqrt(math.pi / 2) * (E2_MEV_NM / (p.epsilon * bohr_radius(p))) / p.hbar_omega0
    if c == math.inf:
        raise ValueError("Coulomb parameter falls outside the float range for these parameters")
    return c


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero, on [0, 700].

    A domain-checked ``np.i0``: a float for a scalar argument, an array for an
    array.  The upper end guards exp(x) against overflow.
    """
    import numpy as np

    values = _as_real(x, "x")
    _check_all((values >= 0.0) & (values <= BESSEL_MAX_ARG), values,
               f"argument must be in [0, {BESSEL_MAX_ARG}]")
    result = np.i0(values)
    return float(result) if result.ndim == 0 else result


def exchange_coupling(b, d: float, c: float):
    """Exchange splitting of the coupled pair in units of the confinement energy.

    J / (hbar omega0) = [ c sqrt(b) { e^{-b d^2} I0(b d^2)
                          - e^{d^2 (b - 1/b)} I0(d^2 (b - 1/b)) }
                          + 3/(4b) (1 + b d^2) ] / sinh(2 d^2 (2b - 1/b))

    ``b`` is a scalar (float result) or an array (array result).  The domain,
    b > 0, 2b - 1/b > 0 and b d^2 <= 700, is checked over every element;
    on it |d^2 (b - 1/b)| <= b d^2, so both Bessel arguments stay in range,
    and the scaled evaluation below keeps every exponential from overflowing.
    A J beyond the float range, where c or 1/d nears it, raises ValueError.
    """
    import numpy as np

    d, c = _as_float("d", d), _as_float("c", c)
    if d <= 0:
        raise ValueError(f"half-distance d must be positive, got {d}")
    b = _as_real(b, "b")
    _check_all(b > 0, b, "field parameter b must be positive")
    # an overflow gives inf or nan, which the checks below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        sinh_arg = 2.0 * d * d * (2.0 * b - 1.0 / b)
        _check_all(sinh_arg > 0, sinh_arg, "degenerate geometry: sinh argument must be positive")
        u = b * d * d
        ok = u <= BESSEL_MAX_ARG
        if not ok.all():
            raise ValueError(
                f"b * d^2 = {u[~ok].flat[0]} at b = {b[~ok].flat[0]}, d = {d}: "
                f"the Bessel argument must be in [0, {BESSEL_MAX_ARG}]"
            )
        # with 2b > 1/b, |v| <= u <= 700: both I0 arguments are in range, and I0 is even.
        # Scaled terms keep every exponent <= 0: with I0e(x) = e^{-x} I0(x),
        # e^{v} I0(|v|) = I0e(|v|) e^{v + |v|}, and 1/sinh(s) = -2 e^{-s} / expm1(-2s).
        v = d * d * (b - 1.0 / b)
        w = np.abs(v)
        i0_u, i0_w = np.i0(np.stack((u, w)))  # one call; I0 is elementwise
        decay = np.exp(-sinh_arg)
        braces = np.exp(-u) * i0_u * decay - np.exp(-w) * i0_w * np.exp(v + w - sinh_arg)
        j = (c * (np.sqrt(b) * braces) + 3.0 / (4.0 * b) * (1.0 + u) * decay) * (
            -2.0 / np.expm1(-2.0 * sinh_arg))
    _check_all(np.isfinite(j), j,
               "exchange coupling falls outside the float range for these parameters")
    return float(j) if j.ndim == 0 else j


def exchange_at_field(p: DotParameters, c: float | None = None) -> ExchangeResult:
    """Exchange coupling in meV at the parameter record's field point."""
    return sweep_exchange(p, [p.b_field], c)[0]


def sweep_exchange(p: DotParameters, b_fields, c: float | None = None) -> list[ExchangeResult]:
    """Exchange coupling across a sequence of field values, in input order,
    computed in one array pass."""
    import numpy as np

    c = coulomb_parameter(p) if c is None else _as_float("c", c)
    # an overflow gives inf, which exchange_coupling's b * d^2 check and the check below refuse
    with np.errstate(over="ignore"):
        b = _dimensionless_fields(p, _as_real(b_fields, "b_fields", one_dimensional=True))
        j = exchange_coupling(b, p.d, c) * p.hbar_omega0
    _check_all(np.isfinite(j), j,
               "exchange coupling falls outside the float range for these parameters")
    # tuple.__new__ is what ExchangeResult._make calls, minus a Python frame per point
    return list(map(tuple.__new__, repeat(ExchangeResult), zip(b.tolist(), repeat(c), j.tolist())))

