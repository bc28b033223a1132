"""Coupling trees over spin-1/2 registers and the hierarchic change of basis.

A register of 2^M qubits is coupled pairwise, blocks of two, then blocks of
four, up to the whole register.  The resulting orthogonal transform maps the
product basis onto total-spin multiplet states labelled by the intermediate
spin of every tree node plus a terminal (J, M).  On top of the transform this
module provides the multiresolution ladder: approximation spaces V_j spanned
by blocks of 2^j qubits held at maximal spin, their detail complements W_j,
per-level state profiles, level-conditioned block operators, and reduced
density matrices over coarse labels.

In the multiplet basis the ladder is label bookkeeping, kept in integer
tables built once per register size on first use.  A basis state lies in
W_j when j is the lowest level whose node spin is not maximal, and in V_M
when every node is maximal, so a state profile is a histogram of squared
hierarchic amplitudes over those bins.  A reduced density matrix scatters
the amplitudes into a (fine part x coarse label) array A and returns
A^T A^*.  The dense projectors V_j and W_j are kept as references for small
registers; nothing else calls them.

Dense operations are limited to ``MAX_DENSE_QUBITS`` = 8 qubits: trees are
powers of two, and the next size would need a 2^16 x 2^16 transform.

Conventions fixed here and relied on by the test fixtures:

- trees pair adjacent qubits (0-1, 2-3, ...), then adjacent pairs, and so on;
- a basis-state path lists internal-node spins in post-order (children before
  parents, left before right), so the last entry is the root spin;
- columns are sorted by descending terminal J, then ascending M, then
  lexicographic path ("canonical order");
- transform entry [i, k] is the overlap of product state i with multiplet
  state k, so hierarchic amplitudes of a state vector are U^dagger @ psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .angular_momentum import MAX_TWICE_J, MultipletLabel, SpinLabel, couple_pair_matrix

# 16 qubits, the next tree size, would need a 34 GB dense transform.
MAX_DENSE_QUBITS = 8
# ladder_dimensions is closed-form integer arithmetic, independent of the
# dense cap.
MAX_LADDER_LEVELS = 12
MAX_TREE_QUBITS = 4096

NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TreeNode:
    """One block of the coupling tree covering qubits [offset, offset + size)."""

    offset: int
    num_qubits: int
    left: "TreeNode | None"
    right: "TreeNode | None"
    content: tuple[tuple[int, int], ...]  # (twice_j, multiplicity), descending J

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def level(self) -> int:
        """Block scale: the node covers 2^level qubits."""
        return self.num_qubits.bit_length() - 1


@dataclass(frozen=True)
class CouplingTree:
    """Balanced pairwise coupling plan over a power-of-two register."""

    num_qubits: int
    levels: int
    root: TreeNode

    def nodes_at_level(self, level: int) -> list[TreeNode]:
        """Blocks of 2^level qubits, left to right."""
        if not 0 <= level <= self.levels:
            raise ValueError(f"level must be in 0..{self.levels}, got {level}")
        out = []

        def walk(node):
            if node.level == level:
                out.append(node)
            elif not node.is_leaf:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out

    def root_content(self) -> list[tuple[SpinLabel, int]]:
        """Total spins of the whole register with multiplicities, descending J."""
        return [(SpinLabel(tj), mult) for tj, mult in self.root.content]


@dataclass(frozen=True)
class MultipletBasisState:
    """One column label of the hierarchic transform.

    ``path`` holds the intermediate spin of every internal node in post-order;
    ``terminal`` is the (J, M) of the whole register, with J equal to the last
    path entry.
    """

    path: tuple[SpinLabel, ...]
    terminal: MultipletLabel


@dataclass(frozen=True)
class LevelLabel:
    """Coarse label of a basis state: node spins at levels >= some cutoff
    (post-order) together with the register magnetic number."""

    spins: tuple[SpinLabel, ...]
    twice_m: int


@dataclass(frozen=True)
class LadderDimensions:
    """Dimension bookkeeping of the ladder V_0 ⊃ V_1 ⊃ ... ⊃ V_M."""

    v: tuple[int, ...]  # dim V_0 ... dim V_M
    w: tuple[int, ...]  # dim W_1 ... dim W_M

    @property
    def levels(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class LadderProfile:
    """Squared projection norms of a state onto W_1 ... W_M and V_M."""

    detail_weights: tuple[float, ...]
    final_weight: float

    def total(self) -> float:
        return sum(self.detail_weights) + self.final_weight


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
    to 16 is accepted (the coupling tree itself requires a power of two).
    The ceiling is that of ``SpinLabel``: n qubits reach 2J = n, and 2j is
    capped at ``MAX_TWICE_J`` = 16.
    """
    if not 1 <= num_qubits <= MAX_TWICE_J:
        raise ValueError(f"register size must be in 1..{MAX_TWICE_J}, got {num_qubits}")
    return [(SpinLabel(tj), mult) for tj, mult in _content(num_qubits)]


def build_coupling_tree(num_qubits: int) -> CouplingTree:
    """Balanced adjacent-pair coupling tree over a power-of-two register."""
    if num_qubits < 1 or num_qubits & (num_qubits - 1) != 0:
        raise ValueError(f"register size must be a power of two, got {num_qubits}")
    if num_qubits > MAX_TREE_QUBITS:
        raise ValueError(f"register size {num_qubits} exceeds {MAX_TREE_QUBITS}")

    def build(offset, size):
        if size == 1:
            return TreeNode(offset, 1, None, None, _content(1))
        left = build(offset, size // 2)
        right = build(offset + size // 2, size // 2)
        return TreeNode(offset, size, left, right, _content(size))

    levels = num_qubits.bit_length() - 1
    return CouplingTree(num_qubits, levels, build(0, num_qubits))


def _postorder_levels(num_qubits: int) -> list[int]:
    """Levels of the internal nodes in path (post-order) order."""
    if num_qubits == 1:
        return []
    half = _postorder_levels(num_qubits // 2)
    return half + half + [num_qubits.bit_length() - 1]


# Cached per register size; all balanced trees of equal size are identical.
# Entries are (read-only orthogonal matrix, [(path twice_j tuple, twice_J, twice_M)]).
_TRANSFORM_CACHE: dict[int, tuple[np.ndarray, list[tuple[tuple[int, ...], int, int]]]] = {}


@cache
def _pair_block(tj_l: int, tj_r: int):
    """Read-only couple_pair_matrix(j_l, j_r) and its column labels (2J, 2M),
    ascending J, then ascending M."""
    block = couple_pair_matrix(SpinLabel(tj_l), SpinLabel(tj_r))
    block.flags.writeable = False
    labels = tuple((tj, tm) for tj in range(abs(tj_l - tj_r), tj_l + tj_r + 1, 2)
                   for tm in range(-tj, tj + 1, 2))
    return block, labels


def _transform_with_states(num_qubits: int):
    """U_n = (U_{n/2} x U_{n/2}) C_n, with the sparse recoupling C_n applied as
    one pair block per pair of child (path, J) groups."""
    if num_qubits in _TRANSFORM_CACHE:
        return _TRANSFORM_CACHE[num_qubits]
    if num_qubits == 1:
        matrix = np.eye(2)
        matrix.flags.writeable = False
        result = (matrix, [((), 1, -1), ((), 1, 1)])
        _TRANSFORM_CACHE[1] = result
        return result

    u_half, s_half = _transform_with_states(num_qubits // 2)
    # Child columns grouped by (path, J); M ascends within a group, as it does
    # down the rows of a pair block.
    groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for idx, (path, tj, _) in enumerate(s_half):
        groups.setdefault((path, tj), []).append(idx)

    # C_n as (left columns, right columns, pair block, first state) entries.
    recoupling = []
    states = []
    for (path_l, tj_l), cols_l in groups.items():
        for (path_r, tj_r), cols_r in groups.items():
            block, labels = _pair_block(tj_l, tj_r)
            recoupling.append((cols_l, cols_r, block, len(states)))
            states.extend((path_l + path_r + (tj,), tj, tm) for tj, tm in labels)

    order = sorted(range(len(states)),
                   key=lambda k: (-states[k][1], states[k][2], states[k][0]))
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    matrix = np.empty((2 ** num_qubits, len(order)))
    for cols_l, cols_r, block, first in recoupling:
        matrix[:, position[first:first + block.shape[1]]] = (
            np.kron(u_half[:, cols_l], u_half[:, cols_r]) @ block)
    matrix.flags.writeable = False
    result = (matrix, [states[k] for k in order])
    _TRANSFORM_CACHE[num_qubits] = result
    return result


def _check_dense(num_qubits: int) -> None:
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations support at most {MAX_DENSE_QUBITS} qubits "
            f"({num_qubits} requested)"
        )


@dataclass(frozen=True)
class _LevelGroups:
    """Canonical basis states grouped by their coarse label at one level.

    State k carries label ``labels[label_id[k]]`` and fine part number
    ``fine_id[k]``; no two states share both ids.
    """

    labels: tuple[LevelLabel, ...]  # canonical first-seen order
    label_index: dict[LevelLabel, int]
    label_id: np.ndarray
    fine_id: np.ndarray
    num_fine: int


# Label tables of the canonical basis, one per register size (and level),
# each built on first use: analyze_state needs only the ladder bins.

_SPIN_LABELS = tuple(SpinLabel(tj) for tj in range(MAX_TWICE_J + 1))


def _readonly(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.intp)
    array.flags.writeable = False
    return array


@cache
def _basis_states(num_qubits: int) -> tuple[MultipletBasisState, ...]:
    _, raw = _transform_with_states(num_qubits)
    return tuple(
        MultipletBasisState(tuple(_SPIN_LABELS[t] for t in path), MultipletLabel(tj, tm))
        for path, tj, tm in raw
    )


@cache
def _ladder_bins(num_qubits: int) -> np.ndarray:
    """W_j index of each basis state: the lowest level whose node spin is not
    maximal (2j != 2^level), or 0 when every node is maximal (the state is in V_M)."""
    _, raw = _transform_with_states(num_qubits)
    node_levels = _postorder_levels(num_qubits)
    return _readonly([
        min((lv for t, lv in zip(path, node_levels) if t != 2 ** lv), default=0)
        for path, _, _ in raw
    ])


@cache
def _groups_at(num_qubits: int, level: int) -> _LevelGroups:
    _, raw = _transform_with_states(num_qubits)
    node_levels = _postorder_levels(num_qubits)
    coarse = [i for i, lv in enumerate(node_levels) if lv >= level]
    fine = [i for i, lv in enumerate(node_levels) if lv < level]
    coarse_index: dict[tuple[tuple[int, ...], int], int] = {}
    fine_index: dict[tuple[int, ...], int] = {}
    label_id, fine_id = [], []
    for path, _, tm in raw:
        key = (tuple(path[i] for i in coarse), tm)
        label_id.append(coarse_index.setdefault(key, len(coarse_index)))
        fine_id.append(fine_index.setdefault(tuple(path[i] for i in fine), len(fine_index)))
    labels = tuple(LevelLabel(tuple(_SPIN_LABELS[t] for t in spins), tm)
                   for spins, tm in coarse_index)
    return _LevelGroups(labels, {key: n for n, key in enumerate(labels)},
                        _readonly(label_id), _readonly(fine_id), len(fine_index))


def _level_groups(tree: CouplingTree, level: int) -> _LevelGroups:
    if not 0 <= level <= tree.levels:
        raise ValueError(f"level must be in 0..{tree.levels}, got {level}")
    return _groups_at(tree.num_qubits, level)


def hierarchic_transform(tree: CouplingTree) -> np.ndarray:
    """Orthogonal matrix from the product basis to the multiplet basis.

    Entry [i, k] is the overlap of product state i (qubit 0 most significant,
    down before up) with multiplet state k in canonical order; hierarchic
    amplitudes of a register state are ``u.conj().T @ psi``.

    The result is the cached matrix itself and is read-only: writing to it
    raises ``ValueError``; copy it first to modify it.
    """
    _check_dense(tree.num_qubits)
    matrix, _ = _transform_with_states(tree.num_qubits)
    return matrix


def multiplet_basis_states(tree: CouplingTree) -> list[MultipletBasisState]:
    """Column labels of :func:`hierarchic_transform`, canonical order."""
    _check_dense(tree.num_qubits)
    return list(_basis_states(tree.num_qubits))


def ladder_dimensions(levels: int) -> LadderDimensions:
    """Exact dimensions of V_0 ... V_M and W_1 ... W_M for 2^levels qubits.

    dim V_j = (2^j + 1)^(2^(M-j)): blocks of 2^j qubits restricted to their
    maximal spin 2^(j-1).  Values are exact integers for levels up to 12.
    """
    if not 0 <= levels <= MAX_LADDER_LEVELS:
        raise ValueError(f"levels must be in 0..{MAX_LADDER_LEVELS}, got {levels}")
    v = tuple((2 ** j + 1) ** (2 ** (levels - j)) for j in range(levels + 1))
    w = tuple(v[j - 1] - v[j] for j in range(1, levels + 1))
    return LadderDimensions(v, w)


def approximation_projector(tree: CouplingTree, level: int) -> np.ndarray:
    """Orthogonal projector onto V_level in the product basis.

    Blockwise tensor product of maximal-spin projectors, each assembled from
    the block's own transform columns with terminal spin (block size) / 2.
    A dense reference for the label-based :func:`analyze_state`.
    """
    _check_dense(tree.num_qubits)
    if not 0 <= level <= tree.levels:
        raise ValueError(f"level must be in 0..{tree.levels}, got {level}")
    if level == 0:
        return np.eye(2 ** tree.num_qubits)
    block_size = 2 ** level
    u_block, s_block = _transform_with_states(block_size)
    cols = [k for k, (_, tj, _) in enumerate(s_block) if tj == block_size]
    basis = u_block[:, cols]
    block_projector = basis @ basis.T
    num_blocks = tree.num_qubits // block_size
    return reduce(np.kron, [block_projector] * num_blocks)


def detail_projector(tree: CouplingTree, level: int) -> np.ndarray:
    """Orthogonal projector onto the detail space W_level = V_{level-1} minus V_level."""
    if not 1 <= level <= tree.levels:
        raise ValueError(f"level must be in 1..{tree.levels}, got {level}")
    return approximation_projector(tree, level - 1) - approximation_projector(tree, level)


def _check_state(state: np.ndarray, tree: CouplingTree) -> np.ndarray:
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 2 ** tree.num_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes, tree expects {2 ** tree.num_qubits}"
        )
    # np.linalg.norm's sum of squares, through vdot, which does not warn on
    # overflow: an overflowing norm is inf and fails below
    norm = np.sqrt(np.vdot(state.real, state.real) + np.vdot(state.imag, state.imag))
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOLERANCE}")
    return state


def _hierarchic_amplitudes(state: np.ndarray, tree: CouplingTree) -> np.ndarray:
    """U^dagger psi, applying the real U to each part of psi so U stays real."""
    matrix, _ = _transform_with_states(tree.num_qubits)
    return matrix.T @ state.real + 1j * (matrix.T @ state.imag)


def analyze_state(state: np.ndarray, tree: CouplingTree) -> LadderProfile:
    """Squared projection norms of a unit state onto W_1 ... W_M and V_M.

    A histogram of the squared hierarchic amplitudes over the ladder bins of
    their basis states.  The entries sum to 1 (completeness of the ladder
    decomposition).
    """
    _check_dense(tree.num_qubits)
    state = _check_state(state, tree)
    amplitudes = _hierarchic_amplitudes(state, tree)
    weights = np.bincount(_ladder_bins(tree.num_qubits),
                          weights=amplitudes.real ** 2 + amplitudes.imag ** 2,
                          minlength=tree.levels + 1)
    return LadderProfile(tuple(float(w) for w in weights[1:]), float(weights[0]))


def level_labels(tree: CouplingTree, level: int) -> list[LevelLabel]:
    """Distinct coarse labels at ``level``, in canonical basis order."""
    _check_dense(tree.num_qubits)
    return list(_level_groups(tree, level).labels)


def conditioned_operator(tree: CouplingTree, level: int, blocks) -> np.ndarray:
    """Block-diagonal operator in the hierarchic basis, conditioned on the
    coarse labels at ``level``.

    ``blocks`` maps a coarse label to the square matrix applied to the basis
    states carrying that label (ordered as in the canonical basis).  A key may
    be a :class:`LevelLabel` or, when it addresses a single node, a
    :class:`MultipletLabel`.  Unlisted labels receive the identity.  The
    result is unitary exactly when every block is unitary.
    """
    _check_dense(tree.num_qubits)
    groups = _level_groups(tree, level)

    def normalize(key):
        if isinstance(key, MultipletLabel):
            return LevelLabel((SpinLabel(key.twice_j),), key.twice_m)
        return key

    operator = np.eye(2 ** tree.num_qubits, dtype=complex)
    for key, block in blocks.items():
        key = normalize(key)
        if key not in groups.label_index:
            raise ValueError(f"no basis states carry label {key} at level {level}")
        indices = np.flatnonzero(groups.label_id == groups.label_index[key])
        block = np.asarray(block, dtype=complex)
        if block.shape != (len(indices), len(indices)):
            raise ValueError(
                f"block for {key} has shape {block.shape}, expected "
                f"({len(indices)}, {len(indices)})"
            )
        operator[np.ix_(indices, indices)] = block
    return operator


def reduce_to_level(state: np.ndarray, tree: CouplingTree, level: int):
    """Density matrix over the coarse labels at ``level``.

    The finer labels (node spins below ``level``) are traced out: two coarse
    labels stay coherent only through identical fine completions.  Diagonal
    entries are the total squared amplitude of the hierarchic basis states
    carrying each label.  Returns ``(rho, labels)`` with labels in canonical
    order.

    The amplitudes are scattered into a (fine part x coarse label) array A,
    so rho = A^T A^*.
    """
    _check_dense(tree.num_qubits)
    state = _check_state(state, tree)
    groups = _level_groups(tree, level)
    scattered = np.zeros((groups.num_fine, len(groups.labels)), dtype=complex)
    scattered[groups.fine_id, groups.label_id] = _hierarchic_amplitudes(state, tree)
    return scattered.T @ scattered.conj(), list(groups.labels)
