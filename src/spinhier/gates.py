"""Two-qubit gate constants and the exchange-built XOR sequence.

Product-basis index convention: down = 0, up = 1, first (control) qubit most
significant, so the basis order is down-down, down-up, up-down, up-up.  Gates
generated by exchange pulses carry physically irrelevant global phases, so
equality of gates is always judged through :func:`gate_fidelity`, never
entrywise.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .register import _as_float, _as_integer, _finite, _square


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dagger U - I; a defect beyond the float range raises ValueError."""
    u = _square("u", u)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_finite(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))))


# Single-qubit spin-z in the (down, up) basis.
_SZ = np.diag([-0.5, 0.5])

S1Z = np.kron(_SZ, np.eye(2))
S2Z = np.kron(np.eye(2), _SZ)

# Projector onto the two-spin singlet (up-down minus down-up) / sqrt(2).
_SINGLET = np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2.0)
SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET)
_TRIPLET_PROJECTOR = np.eye(4) - SINGLET_PROJECTOR


def cnot_product() -> np.ndarray:
    """Controlled-NOT in the product basis: flips the target when the control is up."""
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


def to_multiplet(op: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Express ``op`` in the multiplet basis: A^{-1} op A.

    ``a`` is the product-to-multiplet coupling matrix (columns are multiplet
    states in the product basis).  Similarity preserves the spectrum.  A
    singular ``a``, or a result with an entry beyond the float range, raises
    ValueError.
    """
    op, a = _square("op", op), _square("a", a)
    if op.shape != a.shape:
        raise ValueError(f"dimension mismatch: op {op.shape} vs basis {a.shape}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(np.linalg.solve(a, op @ a))
    except np.linalg.LinAlgError:
        raise ValueError("a must be invertible, got a singular matrix") from None


def single_spin_z_rotation(which: int, angle: float) -> np.ndarray:
    """exp(i * angle * S_z) on qubit 1 or 2 of a pair (diagonal, 4x4)."""
    which = _as_integer("which", which, (1, 2), "qubit index must be 1 or 2, got {}")
    sz = S1Z if which == 1 else S2Z
    return np.diag(np.exp(1j * _as_float("angle", angle) * np.diag(sz)))


def swap_gate() -> np.ndarray:
    """Exchange of the two qubits; +1 on the triplet, -1 on the singlet."""
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def exchange_propagator(angle: float) -> np.ndarray:
    """exp(-i * angle * S1.S2), via the triplet/singlet split.

    S1.S2 is 1/4 on the triplet and -3/4 on the singlet, so the exponential
    is assembled from the two projectors in closed form.
    """
    angle = _as_float("angle", angle)
    return (np.exp(-0.25j * angle) * _TRIPLET_PROJECTOR
            + np.exp(0.75j * angle) * SINGLET_PROJECTOR)


def sqrt_swap_gate() -> np.ndarray:
    """Square root of swap generated by a half-area exchange pulse.

    exp(-i (pi/2) S1.S2): triplet phase e^{-i pi/8}, singlet e^{+3 i pi/8}.
    Squaring gives swap up to a global phase.
    """
    return exchange_propagator(np.pi / 2)


def xor_sequence() -> np.ndarray:
    """Five-factor exchange sequence: z-rotations around two half-swaps.

    Evaluates e^{i pi/2 S_1z} e^{-i pi/2 S_2z} sqrt_swap e^{i pi S_1z}
    sqrt_swap, rightmost factor first.  The product is a conditional phase
    flip: diagonal, -1 on up-up relative to the rest, up to a global phase.
    A Hadamard on the target qubit converts it to CNOT.  Each call returns a
    new array; the product is formed once, on the first call.
    """
    return _xor_product().copy()


@cache
def _xor_product() -> np.ndarray:
    half_swap = sqrt_swap_gate()
    return (
        single_spin_z_rotation(1, np.pi / 2)
        @ single_spin_z_rotation(2, -np.pi / 2)
        @ half_swap
        @ single_spin_z_rotation(1, np.pi)
        @ half_swap
    )


def conditional_phase_flip() -> np.ndarray:
    """Reference target for the XOR sequence: -1 on up-up, +1 elsewhere."""
    return np.diag([1.0, 1.0, 1.0, -1.0])


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|trace(U^dagger V)| / dim; equals 1 iff U and V agree up to a global phase.

    The trace is ``np.vdot(u, v)``, the sum of conj(U) * V over all entries;
    a fidelity beyond the float range raises ValueError.
    """
    u, v = _square("u", u), _square("v", v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_finite(abs(np.vdot(u, v)) / u.shape[0]))
