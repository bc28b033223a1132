"""Exchange coupling and scale estimates for a GaAs double quantum dot.

Two single-electron dots in a quartic double well, distance 2a apart, field B
along z.  The exchange splitting J between singlet and triplet is evaluated
from its closed form in the dimensionless field b, the dimensionless
half-distance d = a / a_B, and the Coulomb-strength parameter c.  All
dimensionful outputs are meV and nm, derived from the pinned constants table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .constants import E2_MEV_NM, HBARC_MEV_NM, MEC2_MEV, MU_B_MEV_PER_T

BESSEL_MAX_ARG = 700.0  # exp overflow guard


@dataclass(frozen=True)
class DotParameters:
    """Material and geometry record for a coupled-dot pair.

    g: electron g-factor; hbar_omega0: confinement energy (meV); mass_ratio:
    effective mass over the electron mass; epsilon: dielectric constant;
    d: half-distance between the wells in units of the confinement Bohr
    radius; b_field: magnetic field along z (Tesla).
    """

    g: float
    hbar_omega0: float
    mass_ratio: float
    epsilon: float
    d: float
    b_field: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.hbar_omega0 <= 0:
            raise ValueError("confinement energy must be positive")
        if self.mass_ratio <= 0:
            raise ValueError("mass ratio must be positive")
        if self.epsilon < 1:
            raise ValueError("dielectric constant must be >= 1")
        if self.d <= 0:
            raise ValueError("half-distance must be positive")

    @classmethod
    def gaas(cls, d: float = 0.7, b_field: float = 0.0) -> "DotParameters":
        """Standard GaAs dot: g = -0.44, 3 meV confinement, m = 0.067 m_e, eps = 13.1."""
        return cls(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1,
                   d=d, b_field=b_field)


class ExchangeResult(NamedTuple):
    """Exchange evaluation at one field point (an immutable named tuple)."""

    b: float
    c: float
    j_mev: float


@dataclass(frozen=True)
class PhysicalEstimates:
    """Order-of-magnitude scales of the dot pair."""

    a_b_nm: float
    spin_orbit_ratio: float
    dipole_mev: float


def bohr_radius(p: DotParameters) -> float:
    """Confinement length sqrt(hbar / (m omega0)) in nm (about 20 nm for GaAs)."""
    return HBARC_MEV_NM / math.sqrt(p.mass_ratio * MEC2_MEV * p.hbar_omega0)


def _check_all(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValueError naming the first offending element unless all are ok."""
    if not ok.all():
        raise ValueError(f"{message}, got {values[~ok].flat[0]}")


def _dimensionless_fields(p: DotParameters, b_fields) -> np.ndarray:
    tesla = np.asarray(b_fields, dtype=float)
    _check_all(np.isfinite(tesla) & (tesla >= 0), tesla, "field must be finite and non-negative")
    larmor = MU_B_MEV_PER_T * tesla / p.mass_ratio
    return np.sqrt(1.0 + (larmor / p.hbar_omega0) ** 2)


def dimensionless_field(p: DotParameters) -> float:
    """b = sqrt(1 + (omega_L / omega0)^2), with Larmor frequency eB / 2m.

    hbar * omega_L equals mu_B * B / mass_ratio; b = 1 at zero field and
    increases strictly with B.
    """
    return float(_dimensionless_fields(p, p.b_field))


def coulomb_parameter(p: DotParameters) -> float:
    """Dimensionless Coulomb strength sqrt(pi/2) * (e^2 / eps a_B) / (hbar omega0)."""
    return math.sqrt(math.pi / 2) * (E2_MEV_NM / (p.epsilon * bohr_radius(p))) / p.hbar_omega0


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero, on [0, 700].

    A domain-checked ``np.i0``: a float for a scalar argument, an array for an
    array.  The upper end guards exp(x) against overflow.
    """
    values = np.asarray(x, dtype=float)
    _check_all((values >= 0.0) & (values <= BESSEL_MAX_ARG), values,
               f"argument must be in [0, {BESSEL_MAX_ARG}]")
    result = np.i0(values)
    return float(result) if result.ndim == 0 else result


def exchange_coupling(b, d: float, c: float):
    """Exchange splitting of the coupled pair in units of the confinement energy.

    J / (hbar omega0) = [ c sqrt(b) { e^{-b d^2} I0(b d^2)
                          - e^{d^2 (b - 1/b)} I0(d^2 (b - 1/b)) }
                          + 3/(4b) (1 + b d^2) ] / sinh(2 d^2 (2b - 1/b))

    ``b`` is a scalar (float result) or an array (array result); the domain is
    checked over every element.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"half-distance d must be positive and finite, got {d}")
    if not math.isfinite(c):
        raise ValueError(f"Coulomb parameter c must be finite, got {c}")
    b = np.asarray(b, dtype=float)
    _check_all(b > 0, b, "field parameter b must be positive")
    sinh_arg = 2.0 * d * d * (2.0 * b - 1.0 / b)
    _check_all(sinh_arg > 0, sinh_arg, "degenerate geometry: sinh argument must be positive")
    u = b * d * d
    v = d * d * (b - 1.0 / b)
    braces = np.exp(-u) * bessel_i0(u) - np.exp(v) * bessel_i0(v)
    j = (c * np.sqrt(b) * braces + 3.0 / (4.0 * b) * (1.0 + u)) / np.sinh(sinh_arg)
    return float(j) if j.ndim == 0 else j


def _exchange_mev(p: DotParameters, b_fields, c: float | None):
    """(b array, c, J array in meV) over the fields, all in one array pass."""
    if c is None:
        c = coulomb_parameter(p)
    b = _dimensionless_fields(p, b_fields)
    return b, c, exchange_coupling(b, p.d, c) * p.hbar_omega0


def exchange_at_field(p: DotParameters, c: float | None = None) -> ExchangeResult:
    """Exchange coupling in meV at the parameter record's field point."""
    b, c, j = _exchange_mev(p, [p.b_field], c)
    return ExchangeResult(b=float(b[0]), c=c, j_mev=float(j[0]))


def sweep_exchange(p: DotParameters, b_fields, c: float | None = None) -> list[ExchangeResult]:
    """Exchange coupling across a sequence of field values, in input order."""
    b, c, j = _exchange_mev(p, b_fields, c)
    return list(map(ExchangeResult._make, zip(b.tolist(), repeat(c), j.tolist())))


def confinement_potential(x_nm: float, y_nm: float, p: DotParameters,
                          e_bias_v_per_nm: float = 0.0) -> float:
    """Double-well potential (meV) at a point, plus the bias-field term e x E.

    V = (m omega0^2 / 2) [ (x^2 - a^2)^2 / (4 a^2) + y^2 ] with well minima at
    (+-a, 0); the barrier height at the origin is (hbar omega0 / 8) d^2.
    """
    a = p.d * bohr_radius(p)
    stiffness = p.hbar_omega0 / bohr_radius(p) ** 2  # m omega0^2 in meV / nm^2
    well = 0.5 * stiffness * ((x_nm ** 2 - a ** 2) ** 2 / (4.0 * a ** 2) + y_nm ** 2)
    bias = 1000.0 * x_nm * e_bias_v_per_nm  # e * x * E, volts -> meV
    return well + bias


def physical_estimates(p: DotParameters) -> PhysicalEstimates:
    """Confinement length, spin-orbit ratio, and dipole coupling scale.

    spin_orbit_ratio is H_SO / (hbar omega0) = hbar omega0 / (2 m c^2) for
    L.S of order hbar^2; dipole_mev is (mu_0 / 4 pi)(g mu_B)^2 / a_B^3,
    rewritten as g^2 e^2 (hbar c)^2 / (4 (m_e c^2)^2 a_B^3) so only pinned
    constants enter.
    """
    a_b = bohr_radius(p)
    spin_orbit = p.hbar_omega0 / (2.0 * p.mass_ratio * MEC2_MEV)
    dipole = (p.g ** 2 * E2_MEV_NM * HBARC_MEV_NM ** 2
              / (4.0 * MEC2_MEV ** 2 * a_b ** 3))
    return PhysicalEstimates(a_b_nm=a_b, spin_orbit_ratio=spin_orbit, dipole_mev=dipole)
