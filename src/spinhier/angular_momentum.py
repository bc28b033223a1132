"""Exact-convention Clebsch-Gordan coefficients and pairwise coupling matrices.

Angular momenta are stored as twice their value (``twice_j``), so half-integer
spins are exact integers and parity checks are trivial.  Coefficients follow
the Condon-Shortley phase convention and are evaluated through the Racah
closed-form sum in exact integer arithmetic; only the final square root is
taken in floating point.  This is free of cancellation for every
j <= MAX_TWICE_J / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm, sqrt

import numpy as np

# Largest supported 2j.  Beyond spin 8 the factorial ratios grow without a use
# case in this package; callers get a clear error instead of silent slowdowns.
MAX_TWICE_J = 16


class InvalidLabelError(ValueError):
    """Angular-momentum label violates parity, range, or sign constraints."""


def _check_twice_j(twice_j: int) -> None:
    if not isinstance(twice_j, (int, np.integer)) or isinstance(twice_j, bool):
        raise InvalidLabelError(f"twice_j must be an integer, got {twice_j!r}")
    if twice_j < 0:
        raise InvalidLabelError(f"twice_j must be non-negative, got {twice_j}")
    if twice_j > MAX_TWICE_J:
        raise InvalidLabelError(
            f"twice_j = {twice_j} exceeds the supported maximum {MAX_TWICE_J}"
        )


def _check_twice_m(twice_j: int, twice_m: int) -> None:
    if not isinstance(twice_m, (int, np.integer)) or isinstance(twice_m, bool):
        raise InvalidLabelError(f"twice_m must be an integer, got {twice_m!r}")
    if (twice_j - twice_m) % 2 != 0:
        raise InvalidLabelError(
            f"parity mismatch: twice_m = {twice_m} with twice_j = {twice_j}"
        )
    if abs(twice_m) > twice_j:
        raise InvalidLabelError(f"|twice_m| = {abs(twice_m)} exceeds twice_j = {twice_j}")


@dataclass(frozen=True, order=True)
class SpinLabel:
    """A single angular momentum j, stored exactly as 2j."""

    twice_j: int

    def __post_init__(self):
        _check_twice_j(self.twice_j)

    @property
    def j(self) -> float:
        return self.twice_j / 2

    @property
    def multiplicity(self) -> int:
        """Number of magnetic sublevels, 2j + 1."""
        return self.twice_j + 1

    def twice_m_values(self) -> range:
        """Magnetic labels 2m in ascending order, -2j ... +2j in steps of 2."""
        return range(-self.twice_j, self.twice_j + 1, 2)


@dataclass(frozen=True, order=True)
class MultipletLabel:
    """A (J, M) pair labelling one state of a total-spin multiplet."""

    twice_j: int
    twice_m: int

    def __post_init__(self):
        _check_twice_j(self.twice_j)
        _check_twice_m(self.twice_j, self.twice_m)

    @property
    def j(self) -> float:
        return self.twice_j / 2

    @property
    def m(self) -> float:
        return self.twice_m / 2

    @property
    def dimension(self) -> int:
        return self.twice_j + 1


def _cg_value(tj1, tm1, tj2, tm2, tj, tm) -> float:
    """Racah closed form for labels that pass every selection rule.

    The alternating sum is one integer numerator over the lcm of its term
    denominators, so the squared coefficient is a single int / int ratio,
    which Python rounds correctly; only the square root is inexact.
    """
    # All arguments below are guaranteed integral by the parity checks.
    b1 = (tj1 + tj2 - tj) // 2
    b2 = (tj1 - tm1) // 2
    b3 = (tj2 + tm2) // 2
    a1 = (tj - tj2 + tm1) // 2
    a2 = (tj - tj1 - tm2) // 2
    k_min = max(0, -a1, -a2)
    dens = [
        factorial(k) * factorial(b1 - k) * factorial(b2 - k) * factorial(b3 - k)
        * factorial(a1 + k) * factorial(a2 + k)
        for k in range(k_min, min(b1, b2, b3) + 1)
    ]
    common = lcm(*dens)
    s = sum(-(common // den) if k % 2 else common // den
            for k, den in enumerate(dens, k_min))
    if s == 0:
        return 0.0
    # Squared prefactor (triangle coefficient times the m factorials); the
    # sign lives in the sum.
    num2 = (
        (tj + 1)
        * factorial(b1)
        * factorial((tj1 - tj2 + tj) // 2)
        * factorial((-tj1 + tj2 + tj) // 2)
        * factorial((tj + tm) // 2)
        * factorial((tj - tm) // 2)
        * factorial(b2)
        * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial(b3)
    )
    den2 = factorial((tj1 + tj2 + tj) // 2 + 1) * common * common
    root = sqrt(num2 * s * s / den2)
    return root if s > 0 else -root


def cg(j1: SpinLabel, twice_m1: int, j2: SpinLabel, twice_m2: int,
       target: MultipletLabel) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley phase.

    Magnetic numbers are passed as 2m.  Returns exactly 0.0 when the
    selection rules m1 + m2 = M or |j1 - j2| <= J <= j1 + j2 fail.
    """
    _check_twice_m(j1.twice_j, twice_m1)
    _check_twice_m(j2.twice_j, twice_m2)
    tj1, tj2 = j1.twice_j, j2.twice_j
    tj, tm = target.twice_j, target.twice_m
    if twice_m1 + twice_m2 != tm:
        return 0.0
    if tj < abs(tj1 - tj2) or tj > tj1 + tj2 or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    return _cg_value(tj1, twice_m1, tj2, twice_m2, tj, tm)


def multiplet_content(j1: SpinLabel, j2: SpinLabel) -> list[SpinLabel]:
    """Total spins J reached by coupling j1 with j2, descending, each once.

    Dimensions sum to (2 j1 + 1)(2 j2 + 1).
    """
    lo = abs(j1.twice_j - j2.twice_j)
    hi = j1.twice_j + j2.twice_j
    return [SpinLabel(tj) for tj in range(hi, lo - 1, -2)]


def couple_pair_matrix(j1: SpinLabel, j2: SpinLabel) -> np.ndarray:
    """Real orthogonal change of basis between a product pair and its multiplets.

    Entry [row, col] is the Clebsch-Gordan coefficient between product state
    ``row`` (first factor varies slowest, m ascending, so for two spin-1/2 the
    rows are down-down, down-up, up-down, up-up) and multiplet state ``col``
    (ascending J, then ascending M).  Columns are the coupled states expressed
    in the product basis.  Only entries with m1 + m2 = M are evaluated; the
    rest are exactly 0.0.
    """
    tj1, tj2 = j1.twice_j, j2.twice_j
    dim = (tj1 + 1) * (tj2 + 1)
    a = np.zeros((dim, dim))
    col = 0
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            for tm1 in range(max(-tj1, tm - tj2), min(tj1, tm + tj2) + 1, 2):
                row = (tm1 + tj1) // 2 * (tj2 + 1) + (tm - tm1 + tj2) // 2
                a[row, col] = _cg_value(tj1, tm1, tj2, tm - tm1, tj, tm)
            col += 1
    return a
