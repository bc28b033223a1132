"""Heisenberg exchange dynamics of a spin pair under time-dependent pulses.

Unit system: energies in meV, times in ns, with hbar from the pinned constants
table.  Evolution uses exp(-i H t / hbar).  Since the exchange Hamiltonian
commutes with itself at all times, the pulse integrator converges to the
closed form exp(-i (integral of J) S1.S2 / hbar) and is exact for constant
pulses.  Its midpoint sum over a piecewise-linear profile is formed in closed
form per segment: the cost is O(len(samples)), independent of the step count.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .constants import HBAR_MEV_NS, MU_B_MEV_PER_T
from .gates import S1Z, S2Z, exchange_propagator, swap_gate
from .register import _CheckedRecord, _as_float, _as_integer, _as_real, _finite

SPIN_DOT = 0.5 * swap_gate() - 0.25 * np.eye(4)  # S1.S2 = P_swap / 2 - 1/4 (Dirac)

TOTAL_SZ = S1Z + S2Z

# Largest step count: up to 2^53 the step and midpoint counts are exact floats.
MAX_STEPS = 2 ** 53


class PulseProfile(_CheckedRecord, namedtuple("PulseProfile", "samples duration_ns")):
    """Exchange coupling J(t) sampled at uniform times over [0, duration].

    ``samples`` are J values in meV, checked once at construction and stored
    as a tuple of floats, so profiles of equal values compare and hash equal;
    ``duration_ns`` is the pulse length.  The pulse area is the trapezoid-rule
    integral of J divided by hbar.
    """

    __slots__ = ()

    def __new__(cls, samples, duration_ns):
        duration_ns = _as_float("pulse duration", duration_ns)
        if duration_ns <= 0:
            raise ValueError(f"pulse duration must be positive, got {duration_ns}")
        samples = _as_real(samples, "samples", one_dimensional=True)
        if len(samples) < 2:
            raise ValueError("a pulse needs at least 2 samples")
        _finite(samples, "pulse samples must be finite")
        return tuple.__new__(cls, (tuple(samples.tolist()), duration_ns))

    def area(self) -> float:
        """Dimensionless pulse area: trapezoid integral of J over hbar.

        The trapezoid rule is the midpoint rule at one step per segment, so
        this is the angle :func:`evolve_pulse` accumulates at that step count;
        an area beyond the float range raises ValueError.
        """
        return _pulse_angle(self, len(self.samples) - 1, "pulse area")


def heisenberg_hamiltonian(j_mev: float) -> np.ndarray:
    """Exchange Hamiltonian J * S1.S2 for a spin pair (meV).

    Eigenvalues are J/4 on the triplet and -3J/4 on the singlet, so the
    singlet-triplet splitting equals J.
    """
    return _as_float("exchange coupling", j_mev) * SPIN_DOT


def zeeman_hamiltonian(b_tesla: float, g: float) -> np.ndarray:
    """Zeeman term g * mu_B * B * (S_1z + S_2z) for a field along z (meV).

    Raises ValueError when g * mu_B * B leaves the float range.
    """
    b_tesla, g = map(_as_float, ("b_tesla", "g"), (b_tesla, g))
    energy = g * MU_B_MEV_PER_T * b_tesla
    if not math.isfinite(energy):
        raise ValueError("Zeeman energy falls outside the float range for these arguments")
    return energy * TOTAL_SZ


def _midpoint_sum(j: np.ndarray, steps: int) -> float:
    """Sum of the linearly interpolated samples ``j`` over the ``steps``
    midpoints, in O(len(j)).

    Midpoint k sits at sample position s_k = (2k + 1) seg / (2 steps), with
    seg = len(j) - 1.  Segment i holds the midpoints from a_i, the first
    at or past sample i, to a_{i+1}; r_i = seg a_i - steps i is the residue
    of -steps i mod seg taken in [-seg/2, seg/2), so only integers below seg^2
    are formed, whatever ``steps``.  The segment then holds
    n_i = (steps + r_{i+1} - r_i) / seg midpoints whose offsets s_k - i
    average mu_i = 1/2 + (r_i + r_{i+1}) / (2 steps), and contributes
    n_i ((1 - mu_i) J_i + mu_i J_{i+1}).
    """
    seg = len(j) - 1
    residue = np.arange(seg + 1) * (steps % seg) % seg
    r = np.where(2 * residue > seg, seg - residue, -residue)
    counts = (np.diff(r) + float(steps)) / seg
    mu = 0.5 + (r[:-1] + r[1:]) / (2.0 * steps)
    # .sum() adds pairwise, as np.trapezoid did: on a long profile the
    # rounding grows with log(len(j)), where a running sum's grows with len(j)
    return float((counts * ((1.0 - mu) * j[:-1] + mu * j[1:])).sum())


def evolve_pulse(profile: PulseProfile, steps: int) -> np.ndarray:
    """Propagator of an exchange pulse by midpoint-sampled piecewise-constant steps.

    Each step applies exp(-i * J(t_mid) * dt * S1.S2 / hbar); the product is
    time ordered (later steps act on the left).  Exact for constant J.  The
    steps commute, so the product is one exchange rotation by the summed
    midpoint rule, which has a closed form per segment of the linearly
    interpolated profile: the cost is O(len(samples)), independent of steps,
    which may be any integer from 1 to ``MAX_STEPS`` = 2^53.
    """
    steps = _as_integer("steps", steps, range(1, MAX_STEPS + 1))
    return exchange_propagator(_pulse_angle(profile, steps, "accumulated pulse angle"))


def _pulse_angle(profile: PulseProfile, steps: int, name: str) -> float:
    """Integral of J over hbar by the midpoint rule at ``steps`` steps, as a
    finite float; ``name`` is what a non-finite result is refused as."""
    # The sum can overflow (J near the float maximum) and then meet a zero
    # step or an opposite infinity; a non-finite angle is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fromiter(profile.samples, float, len(profile.samples))
        angle = (_midpoint_sum(samples, steps)
                 * (profile.duration_ns / steps) / HBAR_MEV_NS)
    return _as_float(name, angle)


def pulse_for_area(area: float, j0_mev: float) -> PulseProfile:
    """Constant pulse with the requested dimensionless area at height J0.

    Duration is hbar * area / J0; area and J0 must have the same sign.
    """
    area, j0_mev = _as_float("area", area), _as_float("j0_mev", j0_mev)
    if j0_mev == 0:
        raise ValueError("degenerate pulse: J0 must be nonzero")
    duration = HBAR_MEV_NS * area / j0_mev
    if duration <= 0:
        raise ValueError(
            f"degenerate pulse: area {area} with J0 {j0_mev} gives duration {duration}"
        )
    return PulseProfile((j0_mev,) * 2, duration)
