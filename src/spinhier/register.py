"""Integer bookkeeping of spin-1/2 registers: spin labels, total-spin content,
coupling trees and the dimensions of the V/W ladder.

Exact integer arithmetic in plain Python, so it loads without numpy
(``decompose`` and ``ladder`` need nothing else); ``angular_momentum`` and
``hierarchy`` re-export every public name.  Angular momenta are stored as
twice their value (``twice_j``), so half-integer spins are exact integers.
The argument contracts of the public API live here too: ``_as_integer``
checks every integer argument and ``_as_float`` every real scalar one;
``_as_real`` converts every real-array argument and ``_square`` every matrix
one, each importing numpy only when it is called; ``_check_all`` is the one
refusal of bad array elements, naming the first, through array methods
alone, and ``_finite`` the one of an inf or a nan, in an argument or a result.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from functools import cache

# Largest 2j that cg and couple_pair_matrix accept, a cost guard on their exact
# binomial sums that only they check.
MAX_TWICE_J = 16
# The one register-size limit: content, coupling tree and ladder (2^12 qubits).
MAX_TREE_QUBITS = 4096
MAX_LADDER_LEVELS = MAX_TREE_QUBITS.bit_length() - 1
_TREE_SIZES = tuple(1 << level for level in range(MAX_LADDER_LEVELS + 1))


class InvalidLabelError(ValueError):
    """Angular-momentum label violates parity, range, or sign constraints."""


def _as_integer(name: str, value, valid=None, message: str = "", error=ValueError) -> int:
    """``value`` as an int if it is an integer of any type (numpy's too) but bool.

    The one check of every integer argument of the public API.  Other types
    raise ``error`` naming ``name``; an integer not in ``valid`` (None takes
    any) raises ``error`` with ``message`` formatted with it, or a default.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if valid is None or number in valid:
        return number
    raise error(message.format(number) if message
                else f"{name} must be in {valid[0]}..{valid[-1]}, got {number}")


def _as_float(name: str, value) -> float:
    """``value`` as a Python float if it is a finite real number of any type
    (numpy's too) but bool.

    The one check of every real scalar argument of the public API.  Other
    types, complex, str and None among them, raise ValueError naming ``name``;
    so does a value that is not finite, or an int too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if math.isfinite(number):
        return number
    raise ValueError(f"{name} must be finite, got {value}")


def _as_real(values, name: str, one_dimensional: bool = False):
    """``values`` as a float numpy array, the one conversion of every
    real-array argument of the public API.

    Only bool, integer and float dtypes convert, and object arrays of real
    numbers (Python ints too large for a fixed-width dtype); any other dtype,
    complex, text, bytes, dates and None among them, raises ValueError naming
    ``name``, where a float conversion would drop an imaginary part with only
    a warning or read text as numbers.  With ``one_dimensional``, so does any
    shape but one axis, and so does a number beyond the float range.
    """
    import numpy as np

    values = np.asarray(values)
    if values.dtype.kind not in "biuf" and not (
            values.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in values.flat)):
        raise ValueError(f"{name} must be real, got dtype {values.dtype}")
    if one_dimensional and values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    try:
        return values.astype(float, copy=False)
    except OverflowError:  # an object array holding an int beyond the float range
        raise ValueError(f"{name} must be finite, got a number too large for a float") from None


def _check_all(ok, values, message: str) -> None:
    """Raise ValueError naming the first offending element unless all are ok.

    ``ok`` is a bool array of the shape of the array ``values``; the message
    reads "<message>, got <first element of values where ok is False>".
    """
    if not ok.all():
        raise ValueError(f"{message}, got {values[~ok].flat[0]}")


def _finite(values, message: str = "result overflows the float range"):
    """``values``, refused through ``_check_all`` if it holds an inf or a nan."""
    from numpy import isfinite

    _check_all(isfinite(values), values, message)
    return values


def _square(name: str, matrix):
    """``matrix`` as a numpy array, the one check of every matrix argument of
    the public API: a bool, integer, float or complex dtype, then a square
    2-D shape, then at least one entry, then finite entries; anything else
    raises ValueError naming ``name``.  A bool or integer matrix comes back as
    floats, since numpy's products of bools are logical and those of
    fixed-width integers wrap around; a float or complex one is not copied."""
    import numpy as np

    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numeric, got dtype {matrix.dtype}")
    if matrix.dtype.kind in "biu":
        matrix = _as_real(matrix, name)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {matrix.shape}")
    return _finite(matrix, f"{name} entries must be finite")


def _check_twice_j(twice_j) -> int:
    twice_j = _as_integer("twice_j", twice_j, error=InvalidLabelError)
    if twice_j < 0:
        raise InvalidLabelError(f"twice_j must be non-negative, got {twice_j}")
    return twice_j


def _check_twice_m(twice_j: int, twice_m) -> int:
    twice_m = _as_integer("twice_m", twice_m, error=InvalidLabelError)
    if (twice_j - twice_m) % 2 != 0:
        raise InvalidLabelError(
            f"parity mismatch: twice_m = {twice_m} with twice_j = {twice_j}"
        )
    if abs(twice_m) > twice_j:
        raise InvalidLabelError(f"|twice_m| = {abs(twice_m)} exceeds twice_j = {twice_j}")
    return twice_m


class _CheckedRecord:
    """Named-tuple base whose ``_make``, so ``_replace`` too, checks as ``__new__`` does."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))


class SpinLabel(_CheckedRecord, namedtuple("SpinLabel", "twice_j")):
    """A single angular momentum j, stored exactly as 2j."""

    __slots__ = ()

    def __new__(cls, twice_j):
        return tuple.__new__(cls, (_check_twice_j(twice_j),))

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


class MultipletLabel(_CheckedRecord, namedtuple("MultipletLabel", "twice_j twice_m")):
    """A (J, M) pair labelling one state of a total-spin multiplet."""

    __slots__ = ()

    def __new__(cls, twice_j, twice_m):
        twice_j = _check_twice_j(twice_j)
        return tuple.__new__(cls, (twice_j, _check_twice_m(twice_j, twice_m)))

    @property
    def j(self) -> float:
        return self.twice_j / 2

    @property
    def m(self) -> float:
        return self.twice_m / 2

    @property
    def dimension(self) -> int:
        return self.twice_j + 1


@cache
def _content(num_spins: int) -> tuple[tuple[int, int], ...]:
    """(twice_j, multiplicity) of ``num_spins`` spin-1/2 particles, descending J.

    Spin J = N/2 - k occurs C(N, k) - C(N, k - 1) times, k = 0 .. floor(N/2).
    The binomials come from the running product C(N, k + 1) = C(N, k) (N - k) / (k + 1),
    which is exact in Python integers and far cheaper than one ``math.comb`` per k.
    """
    content, below, binomial = [], 0, 1
    for k in range(num_spins // 2 + 1):
        content.append((num_spins - 2 * k, binomial - below))
        below, binomial = binomial, binomial * (num_spins - k) // (k + 1)
    return tuple(content)


def register_content(num_qubits: int) -> list[tuple[SpinLabel, int]]:
    """Total-spin content of ``num_qubits`` spin-1/2 particles, descending J.

    Coupling order does not affect the content, so any register size from 1
    to ``MAX_TREE_QUBITS`` = 4096 is accepted (the coupling tree itself
    requires a power of two).  The multiplicities are exact integers.
    """
    num_qubits = _as_integer("num_qubits", num_qubits, range(1, MAX_TREE_QUBITS + 1),
                             f"register size must be in 1..{MAX_TREE_QUBITS}, got {{}}")
    return [(SpinLabel(tj), mult) for tj, mult in _content(num_qubits)]


class TreeNode(_CheckedRecord, namedtuple("TreeNode", "offset num_qubits")):
    """One block of the coupling tree: qubits [offset, offset + num_qubits).

    A block is a power of two in 1..``MAX_TREE_QUBITS`` qubits at a
    non-negative multiple of its size that ends by qubit ``MAX_TREE_QUBITS``,
    as in every tree.
    """

    __slots__ = ()

    def __new__(cls, offset, num_qubits):
        offset = _as_integer("offset", offset)
        num_qubits = _as_integer(
            "num_qubits", num_qubits, _TREE_SIZES,
            f"node size must be a power of two in 1..{MAX_TREE_QUBITS}, got {{}}")
        if offset < 0 or offset % num_qubits:
            raise ValueError(
                f"offset must be a non-negative multiple of num_qubits = {num_qubits}, "
                f"got {offset}")
        if offset + num_qubits > MAX_TREE_QUBITS:
            raise ValueError(f"offset + num_qubits must be at most {MAX_TREE_QUBITS}, "
                             f"got {offset + num_qubits}")
        return tuple.__new__(cls, (offset, num_qubits))

    @property
    def level(self) -> int:
        """Block scale: the node covers 2^level qubits."""
        return self.num_qubits.bit_length() - 1

    @property
    def is_leaf(self) -> bool:
        return self.num_qubits == 1

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.offset, self.num_qubits // 2)

    @property
    def right(self) -> "TreeNode | None":
        half = self.num_qubits // 2
        return None if self.is_leaf else TreeNode(self.offset + half, half)

    @property
    def content(self) -> tuple[tuple[int, int], ...]:  # (twice_j, multiplicity), descending J
        return _content(self.num_qubits)


class CouplingTree(_CheckedRecord, namedtuple("CouplingTree", "num_qubits")):
    """Balanced pairwise coupling plan over a power-of-two register, derived from its size."""

    __slots__ = ()

    def __new__(cls, num_qubits):
        return tuple.__new__(cls, (_as_integer(
            "num_qubits", num_qubits, _TREE_SIZES,
            f"register size must be a power of two in 1..{MAX_TREE_QUBITS}, got {{}}"),))

    @property
    def levels(self) -> int:
        return self.num_qubits.bit_length() - 1

    @property
    def root(self) -> TreeNode:
        return TreeNode(0, self.num_qubits)

    def nodes_at_level(self, level: int) -> list[TreeNode]:
        """Blocks of 2^level qubits, left to right."""
        size = 1 << _as_integer("level", level, range(self.levels + 1))
        return [TreeNode(offset, size) for offset in range(0, self.num_qubits, size)]

    def root_content(self) -> list[tuple[SpinLabel, int]]:
        """Total spins of the whole register with multiplicities, descending J."""
        return register_content(self.num_qubits)


def build_coupling_tree(num_qubits: int) -> CouplingTree:
    """Balanced adjacent-pair coupling tree over a power-of-two register."""
    return CouplingTree(num_qubits)


class LadderDimensions(namedtuple("LadderDimensions", "v w")):
    """Dimensions of the ladder V_0 ⊃ ... ⊃ V_M: V_0 ... V_M in v, W_1 ... W_M in w."""

    __slots__ = ()

    @property
    def levels(self) -> int:
        return len(self.w)


def ladder_dimensions(levels: int) -> LadderDimensions:
    """Exact dimensions of V_0 ... V_M and W_1 ... W_M for 2^levels qubits.

    dim V_j = (2^j + 1)^(2^(M-j)): blocks of 2^j qubits restricted to their
    maximal spin 2^(j-1).  Values are exact integers for levels up to 12.
    """
    levels = _as_integer("levels", levels, range(MAX_LADDER_LEVELS + 1))
    v = tuple((2 ** j + 1) ** (2 ** (levels - j)) for j in range(levels + 1))
    w = tuple(v[j - 1] - v[j] for j in range(1, levels + 1))
    return LadderDimensions(v, w)
