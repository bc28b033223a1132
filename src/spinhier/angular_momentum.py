"""Exact-convention Clebsch-Gordan coefficients and pairwise coupling matrices.

Spin labels (angular momenta stored exactly as ``twice_j`` = 2j) are defined
in ``register`` and re-exported here.  Coefficients follow the Condon-Shortley
phase convention and are evaluated through Racah's sum in binomial form, in
exact integer arithmetic with ``math.comb``; only the final square root is
taken in floating point, so they are free of cancellation at every j.  Labels
take any 2j; only this module caps it, at ``MAX_TWICE_J`` = 16 in ``cg`` and
``couple_pair_matrix``, as a cost guard on the exact integer sums.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np

from .register import MAX_TWICE_J, InvalidLabelError, MultipletLabel, SpinLabel  # noqa: F401
from .register import _check_twice_m


def _check_supported(*twice_js: int) -> None:
    """The cost guard: 2j above MAX_TWICE_J raises InvalidLabelError."""
    if (largest := max(twice_js)) > MAX_TWICE_J:
        raise InvalidLabelError(f"twice_j = {largest} exceeds the supported maximum {MAX_TWICE_J}")


def _cg_value(tj1, tm1, tj2, tm2, tj, tm) -> float:
    """Racah's sum in binomial form, for labels that pass every selection rule.

    With a = j1+j2-J, b = j1-j2+J, c = -j1+j2+J and ``comb`` zero past the
    top, S = sum_k (-1)^k C(a, k) C(b, j1-m1-k) C(c, j2+m2-k) is an integer
    with the sign of the coefficient, and CG^2 = S^2 C(2j1, a) C(2j2, a) /
    [C(j1+j2+J+1, a) C(2j1, j1-m1) C(2j2, j2-m2) C(2J, J-M)] is one int / int
    ratio, which Python rounds correctly; only the square root is inexact.
    """
    # All arguments below are guaranteed integral by the parity checks.
    a, b, c = (tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2, (tj2 - tj1 + tj) // 2
    n1, n2 = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    s = sum((-1) ** k * comb(a, k) * comb(b, n1 - k) * comb(c, n2 - k)
            for k in range(min(a, n1, n2) + 1))
    if s == 0:
        return 0.0
    root = sqrt(s * s * comb(tj1, a) * comb(tj2, a)
                / (comb(a + b + c + 1, a) * comb(tj1, n1)
                   * comb(tj2, (tj2 - tm2) // 2) * comb(tj, (tj - tm) // 2)))
    return root if s > 0 else -root


def cg(j1: SpinLabel, twice_m1: int, j2: SpinLabel, twice_m2: int,
       target: MultipletLabel) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley phase.

    Magnetic numbers are passed as 2m.  Returns exactly 0.0 when the
    selection rules m1 + m2 = M or |j1 - j2| <= J <= j1 + j2 fail.
    """
    _check_supported(j1.twice_j, j2.twice_j, target.twice_j)
    twice_m1 = _check_twice_m(j1.twice_j, twice_m1)
    twice_m2 = _check_twice_m(j2.twice_j, twice_m2)
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


def _pair_columns(tj1: int, tj2: int) -> list[tuple[int, int]]:
    """(2J, 2M) of each column of the pair block of spins 2j1 and 2j2, in
    column order: ascending J, then ascending M."""
    return [(tj, tm) for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tm in range(-tj, tj + 1, 2)]


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
    _check_supported(tj1, tj2)
    dim = (tj1 + 1) * (tj2 + 1)
    a = np.zeros((dim, dim))
    for col, (tj, tm) in enumerate(_pair_columns(tj1, tj2)):
        for tm1 in range(max(-tj1, tm - tj2), min(tj1, tm + tj2) + 1, 2):
            row = (tm1 + tj1) // 2 * (tj2 + 1) + (tm - tm1 + tj2) // 2
            a[row, col] = _cg_value(tj1, tm1, tj2, tm - tm1, tj, tm)
    return a
