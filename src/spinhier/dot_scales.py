"""Material record of a GaAs double quantum dot and its physical scale estimates.

Scalar ``math`` on the pinned constants, so it loads without numpy
(``estimates`` needs nothing else); ``quantum_dot`` re-exports every public
name.  Outputs are meV and nm.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import E2_MEV_NM, HBARC_MEV_NM, MEC2_MEV
from .register import _CheckedRecord, _as_float


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
    """Confinement length sqrt(hbar / (m omega0)) in nm (about 20 nm for GaAs)."""
    return HBARC_MEV_NM / math.sqrt(p.mass_ratio * MEC2_MEV * p.hbar_omega0)


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
    except (OverflowError, ZeroDivisionError):  # float ** overflows, a_B underflows to 0
        a_b = spin_orbit = dipole = math.inf
    if not all(map(math.isfinite, (a_b, spin_orbit, dipole))):
        raise ValueError("scale estimates fall outside the float range for these parameters")
    return PhysicalEstimates(a_b_nm=a_b, spin_orbit_ratio=spin_orbit, dipole_mev=dipole)
