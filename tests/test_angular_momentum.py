"""Clebsch-Gordan coefficients against a ladder-operator oracle, an exact
rational Racah reference and the textbook pair-coupling fixture."""

import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhier.angular_momentum import (
    InvalidLabelError,
    MultipletLabel,
    SpinLabel,
    _pair_columns,
    cg,
    couple_pair_matrix,
    multiplet_content,
)

SQ2 = 1.0 / np.sqrt(2.0)

HALF = SpinLabel(1)
ONE = SpinLabel(2)


# ---------------------------------------------------------------------------
# Independent oracle: build every coupled state by lowering from the stretched
# state and Gram-Schmidt for the tops of lower J, with the Condon-Shortley
# sign fix (component at m1 = j1 positive).  No factorial formula involved.
# ---------------------------------------------------------------------------

def _ladder_coupled_states(tj1, tj2):
    m1s = list(range(-tj1, tj1 + 1, 2))
    m2s = list(range(-tj2, tj2 + 1, 2))
    index = {(a, b): i for i, (a, b) in enumerate((a, b) for a in m1s for b in m2s)}
    dim = len(index)

    def lower(vec):
        out = np.zeros(dim)
        for (tm1, tm2), i in index.items():
            if vec[i] == 0.0:
                continue
            if tm1 > -tj1:
                amp = np.sqrt(tj1 / 2 * (tj1 / 2 + 1) - tm1 / 2 * (tm1 / 2 - 1))
                out[index[(tm1 - 2, tm2)]] += amp * vec[i]
            if tm2 > -tj2:
                amp = np.sqrt(tj2 / 2 * (tj2 / 2 + 1) - tm2 / 2 * (tm2 / 2 - 1))
                out[index[(tm1, tm2 - 2)]] += amp * vec[i]
        return out

    coupled = {}
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        if tj == tj1 + tj2:
            top = np.zeros(dim)
            top[index[(tj1, tj2)]] = 1.0
        else:
            # Top of a lower multiplet: the one-dimensional orthogonal
            # complement of the higher-J states inside the M = J sector.
            sector = [i for (tm1, tm2), i in index.items() if tm1 + tm2 == tj]
            higher = np.array([
                coupled[(h, tj)][sector]
                for h in range(tj + 2, tj1 + tj2 + 1, 2)
            ])
            _, _, vh = np.linalg.svd(higher)
            top = np.zeros(dim)
            top[sector] = vh[-1]
            top /= np.linalg.norm(top)
            if top[index[(tj1, tj - tj1)]] < 0:
                top = -top
        coupled[(tj, tj)] = top
        vec = top
        for tm in range(tj, -tj, -2):
            vec = lower(vec) / np.sqrt(tj / 2 * (tj / 2 + 1) - tm / 2 * (tm / 2 - 1))
            coupled[(tj, tm - 2)] = vec
    return index, coupled


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (4, 4)])
def test_cg_matches_ladder_oracle(tj1, tj2):
    j1, j2 = SpinLabel(tj1), SpinLabel(tj2)
    index, coupled = _ladder_coupled_states(tj1, tj2)
    for (tj, tm), vec in coupled.items():
        for (tm1, tm2), i in index.items():
            got = cg(j1, tm1, j2, tm2, MultipletLabel(tj, tm))
            assert got == pytest.approx(vec[i], abs=1e-12)


def test_cg_textbook_pair_entries():
    assert cg(HALF, 1, HALF, 1, MultipletLabel(2, 2)) == 1.0
    assert cg(HALF, -1, HALF, 1, MultipletLabel(0, 0)) == pytest.approx(-SQ2, abs=1e-15)
    assert cg(HALF, -1, HALF, 1, MultipletLabel(2, 2)) == 0.0


def test_cg_racah_cross_check_value():
    # <1 1; 1 -1 | 0 0> = 1/sqrt(3), cross-checked against the ladder oracle
    got = cg(ONE, 2, ONE, -2, MultipletLabel(0, 0))
    assert got == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)


def test_cg_selection_rules():
    assert cg(HALF, 1, HALF, -1, MultipletLabel(2, 2)) == 0.0  # m1+m2 != M
    assert cg(HALF, 1, HALF, 1, MultipletLabel(4, 4)) == 0.0  # J > j1+j2
    assert cg(ONE, 2, SpinLabel(4), -2, MultipletLabel(0, 0)) == 0.0  # J < |j1-j2|


def test_stretched_state_exactly_one():
    for tj1 in range(0, 9):
        for tj2 in range(0, 9):
            top = MultipletLabel(tj1 + tj2, tj1 + tj2)
            assert cg(SpinLabel(tj1), tj1, SpinLabel(tj2), tj2, top) == 1.0


def test_cg_invalid_labels():
    with pytest.raises(InvalidLabelError):
        cg(HALF, 0, HALF, 1, MultipletLabel(2, 2))  # parity mismatch
    with pytest.raises(InvalidLabelError):
        cg(HALF, 3, HALF, -1, MultipletLabel(2, 2))  # |m| > j
    with pytest.raises(InvalidLabelError):
        MultipletLabel(2, 3)
    with pytest.raises(InvalidLabelError):
        MultipletLabel(2, -4)
    with pytest.raises(InvalidLabelError):
        SpinLabel(-1)
    with pytest.raises(InvalidLabelError, match="supported maximum 16"):
        cg(SpinLabel(18), 18, HALF, 1, MultipletLabel(19, 19))  # beyond the supported j range


def test_labels_take_any_size_and_only_the_numerics_cap_twice_j():
    assert SpinLabel(18).multiplicity == 19
    assert MultipletLabel(4096, 0).dimension == 4097
    assert (SpinLabel(3).j, MultipletLabel(3, -1).j, MultipletLabel(3, -1).m) == (1.5, 1.5, -0.5)
    big = SpinLabel(18)
    calls = [
        lambda: cg(HALF, 1, big, 18, MultipletLabel(19, 19)),
        lambda: cg(HALF, 1, HALF, -1, MultipletLabel(18, 0)),  # the selection rules fail too
        lambda: couple_pair_matrix(big, HALF),
        lambda: couple_pair_matrix(HALF, SpinLabel(17)),
    ]
    for call in calls:
        with pytest.raises(InvalidLabelError, match="exceeds the supported maximum 16"):
            call()
    # 2j = 16 is still inside the cap, and coupling two of them reaches 2J = 32
    assert couple_pair_matrix(SpinLabel(16), HALF).shape == (34, 34)


def test_labels_accept_every_integer_type_but_bool():
    assert SpinLabel(np.int64(2)) == SpinLabel(np.int32(2)) == SpinLabel(2)
    assert MultipletLabel(np.int64(2), np.int32(-2)) == MultipletLabel(2, -2)
    # a label keeps the checked Python int, so no fixed-width numpy arithmetic follows
    big = SpinLabel(np.int32(2 ** 31 - 1))
    target = MultipletLabel(np.int64(16), np.int64(0))
    assert {type(value) for value in (big.twice_j, target.twice_j, target.twice_m)} == {int}
    assert big.multiplicity == 2 ** 31
    assert cg(SpinLabel(8), 8, SpinLabel(8), -8, target) == 0.008814764755799084
    assert json.dumps([big.twice_j, target.twice_j, target.twice_m]) == "[2147483647, 16, 0]"
    for bad in (True, np.True_, 2.0, 1.5, np.float64(2.0), "2", None):
        with pytest.raises(InvalidLabelError, match="twice_j must be an integer"):
            SpinLabel(bad)
        with pytest.raises(InvalidLabelError, match="twice_m must be an integer"):
            MultipletLabel(2, bad)


def test_cg_computes_with_the_checked_magnetic_numbers():
    # a fixed-width 2m, as given, would wrap in the Racah sum's integer arithmetic
    target = MultipletLabel(16, 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cg(SpinLabel(16), np.uint8(16), SpinLabel(16), np.uint8(0), target)
        mixed = [cg(SpinLabel(8), np.int8(tm), SpinLabel(8), np.int8(-tm), MultipletLabel(8, 0))
                 for tm in range(-8, 9, 2)]
    assert caught == []
    assert got == cg(SpinLabel(16), 16, SpinLabel(16), 0, target) == 0.10908397453862856
    assert mixed == [cg(SpinLabel(8), tm, SpinLabel(8), -tm, MultipletLabel(8, 0))
                     for tm in range(-8, 9, 2)]


def test_orthogonality_and_completeness():
    labels = [SpinLabel(t) for t in range(0, 5)]
    for j1 in labels:
        for j2 in labels:
            pairs = [(m1, m2) for m1 in j1.twice_m_values() for m2 in j2.twice_m_values()]
            targets = [
                MultipletLabel(s.twice_j, tm)
                for s in multiplet_content(j1, j2)
                for tm in s.twice_m_values()
            ]
            table = np.array([
                [cg(j1, m1, j2, m2, t) for t in targets] for (m1, m2) in pairs
            ])
            gram = table.T @ table  # orthogonality over (m1, m2)
            comp = table @ table.T  # completeness over (J, M)
            assert np.max(np.abs(gram - np.eye(len(targets)))) < 1e-12
            assert np.max(np.abs(comp - np.eye(len(pairs)))) < 1e-12


def test_multiplet_content_examples():
    assert [s.twice_j for s in multiplet_content(HALF, HALF)] == [2, 0]
    assert [s.twice_j for s in multiplet_content(ONE, ONE)] == [4, 2, 0]
    assert [s.twice_j for s in multiplet_content(ONE, SpinLabel(0))] == [2]


def test_multiplet_content_dimension_sum():
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            content = multiplet_content(SpinLabel(tj1), SpinLabel(tj2))
            assert sum(s.multiplicity for s in content) == (tj1 + 1) * (tj2 + 1)


def test_couple_pair_matrix_half_half_textbook_fixture():
    a = couple_pair_matrix(HALF, HALF)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-SQ2, 0.0, SQ2, 0.0],
        [SQ2, 0.0, SQ2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.max(np.abs(a - expected)) < 1e-12


def test_couple_pair_matrix_trivial_cases():
    assert np.array_equal(couple_pair_matrix(HALF, SpinLabel(0)), np.eye(2))
    # stretched column of (1, 1/2): unit vector on the (m1=1, m2=+1/2) row
    a = couple_pair_matrix(ONE, HALF)
    col = a[:, -1]  # ascending ordering puts (J=3/2, M=3/2) last
    expected = np.zeros(6)
    expected[-1] = 1.0  # m1 slowest ascending puts (1, +1/2) last
    assert np.array_equal(col, expected)


def test_couple_pair_matrix_orthogonal():
    for tj1 in range(0, 17):
        for tj2 in range(0, 17 - tj1):
            a = couple_pair_matrix(SpinLabel(tj1), SpinLabel(tj2))
            assert np.max(np.abs(a.T @ a - np.eye(a.shape[0]))) < 1e-12
            assert np.max(np.abs(a @ a.T - np.eye(a.shape[0]))) < 1e-12


def test_couple_pair_matrix_entries_are_cg():
    for tj1 in range(0, 7):
        for tj2 in range(0, 7):
            j1, j2 = SpinLabel(tj1), SpinLabel(tj2)
            rows = [(m1, m2) for m1 in j1.twice_m_values() for m2 in j2.twice_m_values()]
            cols = [MultipletLabel(s.twice_j, tm) for s in reversed(multiplet_content(j1, j2))
                    for tm in s.twice_m_values()]
            expected = np.array([[cg(j1, m1, j2, m2, t) for t in cols] for m1, m2 in rows])
            assert couple_pair_matrix(j1, j2).tobytes() == expected.tobytes()
            assert _pair_columns(tj1, tj2) == [(t.twice_j, t.twice_m) for t in cols]


# SHA-256 of the bytes of every pair block with 2j1, 2j2 in 0..16, 2j1 outer,
# as the factorial form of the Racah sum built them before the binomial form
PAIR_BLOCKS_SHA256 = "2d3cb443063af495804968a95cb0eea3d2de9f5a5c0d60008bf257b74d17ffbc"


def test_every_pair_block_keeps_its_bytes():
    digest = hashlib.sha256()
    for tj1 in range(17):
        for tj2 in range(17):
            digest.update(couple_pair_matrix(SpinLabel(tj1), SpinLabel(tj2)).tobytes())
    assert digest.hexdigest() == PAIR_BLOCKS_SHA256


# ---------------------------------------------------------------------------
# Exact reference: the Racah sum accumulated as Fraction terms, the squared
# coefficient as one Fraction, converted to float and square-rooted.
# ---------------------------------------------------------------------------

def _cg_fraction(tj1, tm1, tj2, tm2, tj, tm):
    if tm1 + tm2 != tm or not abs(tj1 - tj2) <= tj <= tj1 + tj2:
        return 0.0
    f = math.factorial
    b1, b2, b3 = (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    a1, a2 = (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2
    s = sum((Fraction((-1) ** k, f(k) * f(b1 - k) * f(b2 - k) * f(b3 - k)
                      * f(a1 + k) * f(a2 + k))
             for k in range(max(0, -a1, -a2), min(b1, b2, b3) + 1)), Fraction(0))
    if s == 0:
        return 0.0
    delta2 = Fraction(f(b1) * f((tj1 - tj2 + tj) // 2) * f((-tj1 + tj2 + tj) // 2),
                      f((tj1 + tj2 + tj) // 2 + 1))
    norm2 = (f((tj + tm) // 2) * f((tj - tm) // 2) * f((tj1 - tm1) // 2)
             * f((tj1 + tm1) // 2) * f((tj2 - tm2) // 2) * f((tj2 + tm2) // 2))
    value = math.sqrt(float((tj + 1) * delta2 * norm2 * s * s))
    return value if s > 0 else -value


def _assert_cg_bit_equal(tj1, tm1, tj2, tm2, tj, tm):
    got = cg(SpinLabel(tj1), tm1, SpinLabel(tj2), tm2, MultipletLabel(tj, tm))
    want = _cg_fraction(tj1, tm1, tj2, tm2, tj, tm)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_cg_equals_fraction_reference_exhaustively_to_spin_four():
    count = 0
    for tj1 in range(0, 9):
        for tj2 in range(0, 9):
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, 8) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tj:
                            _assert_cg_bit_equal(tj1, tm1, tj2, tm2, tj, tm1 + tm2)
                            count += 1
    assert count == 4451


@st.composite
def cg_arguments(draw):
    """Labels with 2j1, 2j2, 2J <= 16 that pass every selection rule."""
    tj1 = draw(st.integers(0, 16))
    tj2 = draw(st.integers(0, 16))
    tj = draw(st.sampled_from(range(abs(tj1 - tj2), min(tj1 + tj2, 16) + 1, 2)))
    tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    lo, hi = max(-tj2, -tj - tm1), min(tj2, tj - tm1)
    tm2 = draw(st.sampled_from(range(lo, hi + 1, 2)))
    return tj1, tm1, tj2, tm2, tj, tm1 + tm2


@settings(max_examples=400, deadline=None)
@given(cg_arguments())
def test_cg_equals_fraction_reference_to_spin_eight(args):
    _assert_cg_bit_equal(*args)
