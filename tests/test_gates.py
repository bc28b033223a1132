"""Gate constants, multiplet-basis conversion, and the exchange XOR sequence."""

import re

import numpy as np
import pytest

from spinhier import gates, register
from spinhier.angular_momentum import SpinLabel, couple_pair_matrix

SQ2 = 1.0 / np.sqrt(2.0)

PAIR_MATRIX = couple_pair_matrix(SpinLabel(1), SpinLabel(1))

MULTIPLET_CNOT = np.array([
    [0.5, 0.0, -0.5, SQ2],
    [0.0, 1.0, 0.0, 0.0],
    [-0.5, 0.0, 0.5, SQ2],
    [SQ2, 0.0, SQ2, 0.0],
])


def _random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_cnot_rows():
    c = gates.cnot_product()
    assert np.array_equal(c, np.array([
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0],
    ], dtype=float))


def test_cnot_truth_table():
    c = gates.cnot_product()
    e = np.eye(4)
    assert np.array_equal(c @ e[2], e[3])  # up-down -> up-up
    assert np.array_equal(c @ e[3], e[2])  # up-up -> up-down
    assert np.array_equal(c @ e[0], e[0])  # control down untouched
    assert np.array_equal(c @ e[1], e[1])
    assert np.array_equal(c @ c, np.eye(4))


def test_to_multiplet_reproduces_textbook_gate():
    f = gates.to_multiplet(gates.cnot_product(), PAIR_MATRIX)
    assert np.max(np.abs(f - MULTIPLET_CNOT)) < 1e-12
    assert f[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert f[0, 2] == pytest.approx(-0.5, abs=1e-12)
    assert f[0, 3] == pytest.approx(SQ2, abs=1e-12)
    assert f[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert f[3, 3] == pytest.approx(0.0, abs=1e-12)


def test_to_multiplet_identity_and_spectrum():
    assert np.max(np.abs(gates.to_multiplet(np.eye(4), PAIR_MATRIX) - np.eye(4))) < 1e-12
    f = gates.to_multiplet(gates.cnot_product(), PAIR_MATRIX)
    assert sorted(np.linalg.eigvals(f).real) == pytest.approx([-1, 1, 1, 1], abs=1e-12)


def test_to_multiplet_preserves_spectrum_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = _random_unitary(rng, 4)
        f = gates.to_multiplet(u, PAIR_MATRIX)
        assert gates.unitarity_defect(f) < 1e-12
        got = np.sort_complex(np.linalg.eigvals(f))
        want = np.sort_complex(np.linalg.eigvals(u))
        assert np.max(np.abs(got - want)) < 1e-8


def test_to_multiplet_dimension_mismatch():
    with pytest.raises(ValueError):
        gates.to_multiplet(np.eye(2), PAIR_MATRIX)


@pytest.mark.parametrize("call,name,shape", [
    (lambda: gates.unitarity_defect(np.ones(4)), "u", (4,)),
    (lambda: gates.unitarity_defect(np.ones((2, 3))), "u", (2, 3)),
    (lambda: gates.gate_fidelity(np.ones((2, 3)), np.ones((2, 3))), "u", (2, 3)),
    (lambda: gates.gate_fidelity(np.eye(4), np.ones((4, 4, 1))), "v", (4, 4, 1)),
    (lambda: gates.to_multiplet(np.ones(4), np.ones(4)), "op", (4,)),
    (lambda: gates.to_multiplet(np.eye(4), np.ones((4, 2))), "a", (4, 2)),
], ids=["defect-vector", "defect-2x3", "fidelity-2x3", "fidelity-3d", "multiplet-vector",
        "multiplet-basis-4x2"])
def test_gate_functions_refuse_all_but_square_matrices(call, name, shape):
    # before the check: a fidelity of 3.0 for two 2x3 arrays, a defect of 4.0
    # for a vector, and an IndexError from to_multiplet on two vectors
    with pytest.raises(ValueError, match=f"^{name} must be a square matrix, got shape "
                                         f"{re.escape(str(shape))}$"):
        call()


@pytest.mark.parametrize("call,name,dtype", [
    (lambda: gates.unitarity_defect(np.array([["a"]])), "u", "<U1"),
    (lambda: gates.unitarity_defect(np.array(["a", "b"])), "u", "<U1"),
    (lambda: gates.gate_fidelity([[None]], [[None]]), "u", "object"),
    (lambda: gates.gate_fidelity(np.eye(2), np.array([[b"a", b"b"]] * 2)), "v", "|S1"),
    (lambda: gates.to_multiplet(np.array([["a"]]), np.eye(1)), "op", "<U1"),
    (lambda: gates.to_multiplet(np.eye(1), np.array([["2000-01-01"]], "datetime64[D]")),
     "a", "datetime64[D]"),
], ids=["defect-text", "defect-text-vector", "fidelity-none", "fidelity-bytes",
        "multiplet-text", "multiplet-dates"])
def test_gate_functions_refuse_non_numeric_matrices_before_their_shape(call, name, dtype):
    with pytest.raises(ValueError, match=f"^{name} must be numeric, got dtype "
                                         f"{re.escape(dtype)}$"):
        call()


@pytest.mark.parametrize("call,name,value", [
    (lambda: gates.unitarity_defect([[np.inf]]), "u", "inf"),
    (lambda: gates.gate_fidelity([[np.nan]], [[1.0]]), "u", "nan"),
    (lambda: gates.gate_fidelity(np.eye(2), [[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]), "v",
     "-infj"),
    (lambda: gates.to_multiplet([[np.nan]], [[1.0]]), "op", "nan"),
    (lambda: gates.to_multiplet(np.eye(2), [[1.0, -np.inf], [0.0, 1.0]]), "a", "-inf"),
], ids=["defect-inf", "fidelity-nan", "fidelity-complex-inf", "multiplet-nan",
        "multiplet-basis-inf"])
def test_gate_functions_refuse_non_finite_entries(call, name, value):
    # before the check: a fidelity of nan, a defect of inf and a nan matrix
    with pytest.raises(ValueError, match=f"^{name} entries must be finite, got "
                                         f"{re.escape(value)}$"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: gates.unitarity_defect(np.zeros((0, 0))), "u"),
    (lambda: gates.gate_fidelity(np.zeros((0, 0)), np.zeros((0, 0))), "u"),
    (lambda: gates.gate_fidelity(np.eye(1), np.zeros((0, 0), complex)), "v"),
    (lambda: gates.to_multiplet(np.empty((0, 0)), np.eye(1)), "op"),
    (lambda: gates.to_multiplet(np.eye(1), np.zeros((0, 0))), "a"),
], ids=["defect-empty", "fidelity-empty", "fidelity-v-empty", "multiplet-empty",
        "multiplet-basis-empty"])
def test_gate_functions_refuse_empty_matrices(call, name):
    # before the check: a fidelity of nan with a RuntimeWarning, and numpy's
    # unnamed "zero-size array to reduction operation maximum" from the defect
    with pytest.raises(ValueError, match=f"^{name} must not be empty, got shape "
                                         r"\(0, 0\)$"):
        call()


BOOL_SWAP = gates.swap_gate().astype(bool)
BOOL_ONES = np.ones((2, 2), bool)
UINT8_200 = np.full((1, 1), 200, np.uint8)


@pytest.mark.parametrize("function,matrices", [
    (gates.gate_fidelity, (BOOL_SWAP, BOOL_SWAP)),
    (gates.unitarity_defect, (BOOL_ONES,)),
    (gates.to_multiplet, (BOOL_ONES, np.triu(BOOL_ONES))),
    (gates.gate_fidelity, (UINT8_200, UINT8_200)),
    (gates.unitarity_defect, (np.full((1, 1), 16, np.uint8),)),
    (gates.to_multiplet, (UINT8_200, np.full((1, 1), 2, np.uint8))),
    (gates.unitarity_defect, (np.array([[2 ** 32]], np.int64),)),
], ids=["fidelity-bool", "defect-bool", "multiplet-bool", "fidelity-uint8", "defect-uint8",
        "multiplet-uint8", "defect-int64"])
def test_gate_functions_compute_with_the_numbers_of_a_bool_matrix(function, matrices):
    # before: numpy's logical products of bools gave a fidelity of 0.25 for
    # SWAP with itself, a defect of 1.0 for the all-ones matrix and a
    # multiplet op 1.0 off; its wrapping integer products gave a fidelity of
    # 64.0 for [[200]] as uint8 with itself and defects of 1.0 for [[16]] as
    # uint8 and [[2^32]] as int64
    want = function(*(matrix.astype(float) for matrix in matrices))
    assert np.array_equal(function(*matrices), want)


def test_float_and_complex_matrices_pass_the_check_uncopied():
    for matrix in (np.eye(2), np.eye(2, dtype=complex)):
        assert register._square("m", matrix) is matrix


def test_to_multiplet_names_a_singular_basis():
    # before: numpy's LinAlgError "Singular matrix", which names no argument
    with pytest.raises(ValueError, match="^a must be invertible, got a singular matrix$") as error:
        gates.to_multiplet(np.eye(2), np.zeros((2, 2)))
    assert type(error.value) is ValueError


def test_to_multiplet_keeps_the_dimension_mismatch_message():
    with pytest.raises(ValueError, match=r"^dimension mismatch: op \(2, 2\) vs basis \(4, 4\)$"):
        gates.to_multiplet(np.eye(2), PAIR_MATRIX)


def test_single_spin_z_rotation():
    r = gates.single_spin_z_rotation(1, np.pi)
    half = np.exp(-0.5j * np.pi)
    assert np.max(np.abs(np.diag(r) - [half, half, half.conjugate(), half.conjugate()])) < 1e-15
    assert np.array_equal(gates.single_spin_z_rotation(2, 0.0), np.eye(4))
    theta = 0.37
    product = gates.single_spin_z_rotation(1, theta) @ gates.single_spin_z_rotation(1, -theta)
    assert np.max(np.abs(product - np.eye(4))) < 1e-15
    with pytest.raises(ValueError):
        gates.single_spin_z_rotation(3, 1.0)


def test_swap_action():
    sw = gates.swap_gate()
    e = np.eye(4)
    assert np.array_equal(sw @ e[2], e[1])  # up-down -> down-up
    assert np.array_equal(sw @ e[0], e[0])
    assert np.array_equal(sw @ e[3], e[3])


def test_sqrt_swap_squares_to_swap():
    half = gates.sqrt_swap_gate()
    fid = gates.gate_fidelity(half @ half, gates.swap_gate())
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_sqrt_swap_phase_convention():
    half = gates.sqrt_swap_gate()
    # default convention: triplet phase e^{-i pi/8}, singlet e^{+3 i pi/8}
    assert half[0, 0] == pytest.approx(np.exp(-1j * np.pi / 8), abs=1e-14)
    singlet = np.array([0.0, -SQ2, SQ2, 0.0])
    assert singlet @ half @ singlet == pytest.approx(np.exp(3j * np.pi / 8), abs=1e-14)


def test_xor_sequence_is_conditional_phase_flip():
    xor = gates.xor_sequence()
    assert gates.unitarity_defect(xor) < 1e-12
    off_diagonal = xor - np.diag(np.diag(xor))
    assert np.max(np.abs(off_diagonal)) < 1e-10
    fid = gates.gate_fidelity(xor, gates.conditional_phase_flip())
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_xor_sequence_is_a_new_writable_array_on_every_call():
    half_swap = gates.sqrt_swap_gate()
    product = (gates.single_spin_z_rotation(1, np.pi / 2)
               @ gates.single_spin_z_rotation(2, -np.pi / 2)
               @ half_swap
               @ gates.single_spin_z_rotation(1, np.pi)
               @ half_swap)
    first = gates.xor_sequence()
    assert first.flags.writeable
    first[:] = 0.0
    second = gates.xor_sequence()
    assert not np.shares_memory(first, second)
    assert second.dtype == product.dtype and second.tobytes() == product.tobytes()


def test_xor_sequence_hadamard_conjugation_gives_cnot():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2
    target_rotation = np.kron(np.eye(2), hadamard)
    conjugated = target_rotation @ gates.xor_sequence() @ target_rotation
    assert gates.gate_fidelity(conjugated, gates.cnot_product()) == pytest.approx(1.0, abs=1e-10)


def test_gate_fidelity_values():
    assert gates.gate_fidelity(gates.swap_gate(), gates.swap_gate()) == pytest.approx(1.0)
    assert gates.gate_fidelity(np.eye(4), gates.conditional_phase_flip()) == pytest.approx(0.5)
    assert gates.gate_fidelity(gates.swap_gate(), np.eye(4)) == pytest.approx(0.5)


def test_gate_fidelity_global_phase_invariance():
    rng = np.random.default_rng(9)
    u = _random_unitary(rng, 4)
    assert gates.gate_fidelity(u, np.exp(0.9j) * u) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gates.gate_fidelity(np.eye(2), np.eye(4))


def test_gate_constants_pass_unitarity_bound():
    for constant in (gates.cnot_product(), gates.swap_gate(),
                     gates.sqrt_swap_gate(), gates.xor_sequence()):
        assert gates.unitarity_defect(constant) < 1e-10
