"""The hierarchic change of basis of spin-1/2 registers and its ladder.

A register of 2^M qubits is coupled pairwise, blocks of two, then blocks of
four, up to the whole register.  The resulting orthogonal transform maps the
product basis onto total-spin multiplet states labelled by the intermediate
spin of every tree node plus a terminal (J, M).  On top of the transform this
module provides the multiresolution ladder: approximation spaces V_j spanned
by blocks of 2^j qubits held at maximal spin, their detail complements W_j,
per-level state profiles, level-conditioned block operators, and reduced
density matrices over coarse labels.  Coupling trees, register content and
ladder dimensions are integer bookkeeping, defined in ``register`` and
re-exported here.

In the multiplet basis the ladder is label bookkeeping on the integer label
table of the recoupling plan, built once per register size on first use.  A
basis state lies in W_j when j is the lowest level whose node spin is not
maximal, and in V_M when every node is maximal, so a state profile is a
histogram of squared hierarchic amplitudes over those bins.  The dense
projectors V_j and W_j are kept as references for small registers; nothing
else calls them.

One integer key per label row defines the canonical order below: the plan
sorts its table by it, and the coarse labels of a level are ranked by it.
Sorted order is first-seen order.  Each block below the level takes its fine
spins independently of the others, so a coarse label first appears with the
lexicographically least fine completion of every block, and that completion
grows strictly with the block's spin; comparing first appearances therefore
compares the labels by (descending J, ascending M, coarse spins).

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

from collections import namedtuple
from collections.abc import Mapping
from functools import cache, lru_cache, reduce

import numpy as np

from .angular_momentum import _pair_columns, couple_pair_matrix
from .register import (  # noqa: F401
    MAX_LADDER_LEVELS, MAX_TREE_QUBITS, MAX_TWICE_J, CouplingTree, LadderDimensions,
    MultipletLabel, SpinLabel, TreeNode, build_coupling_tree, ladder_dimensions,
    register_content,
)
from .register import _as_integer, _content, _square

MAX_DENSE_QUBITS = 8

NORM_TOLERANCE = 1e-6


class MultipletBasisState(namedtuple("MultipletBasisState", "path terminal")):
    """One column label of the hierarchic transform.

    ``path`` holds the intermediate spin of every internal node in post-order,
    a tuple of :class:`SpinLabel`; ``terminal`` is the (J, M) of the whole
    register, a :class:`MultipletLabel`, with J equal to the last path entry.
    """

    __slots__ = ()


class LevelLabel(namedtuple("LevelLabel", "spins twice_m")):
    """Coarse label of a basis state: node spins at levels >= some cutoff
    (post-order, a tuple of :class:`SpinLabel`) together with the register
    magnetic number 2M."""

    __slots__ = ()


class LadderProfile(namedtuple("LadderProfile", "detail_weights final_weight")):
    """Squared projection norms of a state onto W_1 ... W_M (the tuple
    ``detail_weights``) and V_M (``final_weight``)."""

    __slots__ = ()

    def total(self) -> float:
        return sum(self.detail_weights) + self.final_weight


def _postorder_levels(num_qubits: int) -> list[int]:
    """Levels of the internal nodes in path (post-order) order."""
    if num_qubits == 1:
        return []
    half = _postorder_levels(num_qubits // 2)
    return half + half + [num_qubits.bit_length() - 1]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One integer per row that sorts as the rows do, lexicographically."""
    low = rows.min(axis=0)
    # With no columns, every row gets the key 0.
    return np.broadcast_to(np.ravel_multi_index((rows - low).T, rows.max(axis=0) - low + 1),
                           len(rows))


def _canonical_keys(rows: np.ndarray) -> np.ndarray:
    """One integer per label row in table layout (path spins 2j, then 2J and
    2M) that sorts as the canonical order does: descending J, ascending M,
    then lexicographic path."""
    # Stacked column-major, so that the reductions of _row_keys run along
    # contiguous columns.
    return _row_keys(np.vstack((-rows[:, -2], rows[:, -1], rows[:, :-2].T)).T)


@cache
def _plan(num_qubits: int):
    """Float-free recoupling plan ``(table, entries)`` of U_n = (U_{n/2} x U_{n/2}) C_n.

    ``table`` (read-only, integer) has one row per canonical column: the path
    spins 2j in post-order, then 2J and 2M.  ``entries`` holds C_n as one
    ``(2j_l, 2j_r, gathers, scatters)`` per pair of child spins: row k of
    ``gathers`` lists the columns of U_{n/2} x U_{n/2} of the k-th pair of
    child (path, J) groups in pair-block row order, and row k of ``scatters``
    the canonical positions of that pair block's columns.  The child spins
    and their multiplicities are read from the register content of n/2
    qubits, and the (2J, 2M) of each pair-block column from the column order
    of ``couple_pair_matrix``.
    """
    if num_qubits == 1:
        table = np.array([[1, -1], [1, 1]])
        table.flags.writeable = False
        return table, ()
    half, _ = _plan(num_qubits // 2)
    dim = len(half)
    # The child columns of one J run M-major, path-minor: each column of that
    # (2J + 1) x multiplicity grid is one (path, J) group, M ascending as down a
    # pair block's rows.  Transposed, row p of a grid lists the group of path p.
    grids = [(tj, np.flatnonzero(half[:, -2] == tj).reshape(tj + 1, mult).T)
             for tj, mult in _content(num_qubits // 2)]
    entries, rows = [], []
    for tj_l, grid_l in grids:
        for tj_r, grid_r in grids:
            gathers = (grid_l[:, None, :, None] * dim + grid_r[None, :, None, :]).reshape(
                len(grid_l) * len(grid_r), -1)
            jm = np.array(_pair_columns(tj_l, tj_r))
            first_l, first_r = np.divmod(np.repeat(gathers[:, 0], len(jm)), dim)
            # Each column's table row: both children's path spins, the pair's spin 2J,
            # then 2J and 2M.
            rows.append(np.hstack((half[first_l, :-2], half[first_r, :-2],
                                   np.tile(jm[:, [0, 0, 1]], (len(gathers), 1)))))
            entries.append((tj_l, tj_r, gathers))
    stacked = np.concatenate(rows)
    order = np.argsort(_canonical_keys(stacked))
    table = stacked[order]
    table.flags.writeable = False
    position = np.argsort(order)  # canonical position of each stacked row
    scatters = np.split(position, np.cumsum([len(block) for block in rows])[:-1])
    return table, tuple((*entry, scatter.reshape(entry[2].shape))
                        for entry, scatter in zip(entries, scatters))


@cache
def _transform(num_qubits: int) -> np.ndarray:
    """Read-only, C-ordered U_n: for each plan entry, the gathered columns of
    U_{n/2} x U_{n/2} of all its pairs of child (path, J) groups times the
    entry's pair block, in one product, written to the scatters.  The largest
    temporary is one entry's columns, 165,888 bytes at 8 qubits (2j_l = 2j_r
    = 2), against 512 KB for a whole 2^8 x 2^8 Kronecker product.  Checks
    the dense cap before it builds anything."""
    _check_dense(num_qubits)
    if num_qubits == 1:
        matrix = np.eye(2)
    else:
        u_half = _transform(num_qubits // 2)
        dim = len(u_half)
        matrix = np.empty((dim * dim, dim * dim))
        for tj_l, tj_r, gathers, scatters in _plan(num_qubits)[1]:
            block = couple_pair_matrix(_spin_label(tj_l), _spin_label(tj_r))
            columns = u_half[:, None, gathers // dim] * u_half[None, :, gathers % dim]
            matrix[:, scatters] = columns.reshape(dim * dim, *gathers.shape) @ block
    matrix.flags.writeable = False
    return matrix


def _check_dense(num_qubits: int) -> None:
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations support at most {MAX_DENSE_QUBITS} qubits "
            f"({num_qubits} requested)"
        )


class _LevelGroups(namedtuple("_LevelGroups", "labels label_id fine_id num_fine")):
    """Canonical basis states grouped by their coarse label at one level.

    State k carries label ``labels[label_id[k]]`` and fine part number
    ``fine_id[k]`` (two integer arrays); no two states share both ids.
    ``labels`` is in canonical order, which is first-seen order, and
    ``num_fine`` counts the fine parts.
    """

    __slots__ = ()


_spin_label = cache(SpinLabel)


def _spin_rows(rows: np.ndarray):
    """Each row of a 2-D integer array of spins 2j as a tuple of the shared
    records of :func:`_spin_label`, one record per 2j."""
    return map(tuple, np.frompyfunc(_spin_label, 1, 1)(rows).tolist())


@cache
def _basis_states(num_qubits: int) -> tuple[MultipletBasisState, ...]:
    table, _ = _plan(num_qubits)
    return tuple(map(MultipletBasisState, _spin_rows(table[:, :-2]),
                     map(MultipletLabel, *table[:, -2:].T.tolist())))


@cache
def _ladder_bins(num_qubits: int) -> np.ndarray:
    """W_j index of each basis state: the lowest level whose node spin is not
    maximal (2j != 2^level), or 0 when every node is maximal (the state is in V_M)."""
    table, _ = _plan(num_qubits)
    levels = np.array(_postorder_levels(num_qubits), dtype=np.intp)
    top = num_qubits.bit_length()  # M + 1: above every level, so "% top" maps it to 0
    lowest = np.where(table[:, :len(levels)] != 2 ** levels, levels, top)
    bins = lowest.min(axis=1, initial=top) % top
    bins.flags.writeable = False
    return bins


@cache
def _groups_at(num_qubits: int, level: int) -> _LevelGroups:
    table, _ = _plan(num_qubits)
    node_levels = np.array(_postorder_levels(num_qubits))
    # coarse: node spins at levels >= level, then 2J and 2M; fine: the other node spins
    coarse = table[:, np.append(np.flatnonzero(node_levels >= level), [-2, -1])]
    _, first, label_id = np.unique(_canonical_keys(coarse), return_index=True,
                                   return_inverse=True)
    fine_parts, fine_id = np.unique(_row_keys(table[:, np.flatnonzero(node_levels < level)]),
                                    return_inverse=True)
    label_id.flags.writeable = fine_id.flags.writeable = False
    labels = tuple(map(LevelLabel, _spin_rows(coarse[first, :-2]), coarse[first, -1].tolist()))
    return _LevelGroups(labels, label_id, fine_id, len(fine_parts))


def hierarchic_transform(tree: CouplingTree) -> np.ndarray:
    """Orthogonal matrix from the product basis to the multiplet basis.

    Entry [i, k] is the overlap of product state i (qubit 0 most significant,
    down before up) with multiplet state k in canonical order; hierarchic
    amplitudes of a real register state are ``u.T @ psi``.  U is real, so for
    a complex psi apply ``u.T`` to its real and imaginary parts,
    ``u.T @ psi.real + 1j * (u.T @ psi.imag)``: a complex operand would make
    numpy copy U to complex.

    The result is the cached matrix itself and is read-only: writing to it
    raises ``ValueError``; copy it first to modify it.
    """
    return _transform(tree.num_qubits)


def multiplet_basis_states(tree: CouplingTree) -> list[MultipletBasisState]:
    """Column labels of :func:`hierarchic_transform`, canonical order."""
    _check_dense(tree.num_qubits)
    return list(_basis_states(tree.num_qubits))


def approximation_projector(tree: CouplingTree, level: int) -> np.ndarray:
    """Orthogonal projector onto V_level in the product basis.

    Blockwise tensor product of maximal-spin projectors, each assembled from
    the block's own transform columns with terminal spin (block size) / 2.
    A dense reference for the label-based :func:`analyze_state`.
    """
    _check_dense(tree.num_qubits)
    block_size = 2 ** _as_integer("level", level, range(tree.levels + 1))
    basis = _transform(block_size)[:, _plan(block_size)[0][:, -2] == block_size]
    block_projector = basis @ basis.T
    num_blocks = tree.num_qubits // block_size
    return reduce(np.kron, [block_projector] * num_blocks)


def detail_projector(tree: CouplingTree, level: int) -> np.ndarray:
    """Orthogonal projector onto the detail space W_level = V_{level-1} minus V_level."""
    level = _as_integer("level", level, range(1, tree.levels + 1))
    return approximation_projector(tree, level - 1) - approximation_projector(tree, level)


def _check_state(state, tree: CouplingTree) -> np.ndarray:
    """``state`` as a complex vector: one axis of 2^n numbers (any numeric
    dtype) for the tree's n qubits.  The one check of a register state; its
    values, finite or not, are not looked at."""
    state = np.asarray(state)
    if state.dtype.kind not in "biufc":
        raise ValueError(f"state must be numeric, got dtype {state.dtype}")
    if state.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {state.shape}")
    if state.size != 2 ** tree.num_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes, tree expects {2 ** tree.num_qubits}"
        )
    return state.astype(complex, copy=False)


def _apply_transform(vector: np.ndarray, num_qubits: int, inverse: bool = False) -> np.ndarray:
    """U^T v, the hierarchic amplitudes of v, or with ``inverse`` U v: the
    real U applied to each part of the complex v, so U is never made complex.
    The one apply of the transform."""
    # One 256 x 2 real product on the (re, im) columns of v was measured: it moved
    # the forward amplitudes by up to 6.0e-16, which would change the bytes the
    # CLI `transform` prints, so the apply keeps two matrix-vector products.
    matrix = _transform(num_qubits) if inverse else _transform(num_qubits).T
    return matrix @ vector.real + 1j * (matrix @ vector.imag)


def _unit_amplitudes(state, tree: CouplingTree) -> np.ndarray:
    """Read-only hierarchic amplitudes U^T psi of a unit state: :func:`_check_state`
    on every call, then the norm test and the apply of :func:`_amplitudes_of`,
    which holds the last state's.  The descent of one state, ``analyze_state``
    and then ``reduce_to_level`` at each level, applies the transform once."""
    state = _check_state(state, tree)
    return _amplitudes_of(state.tobytes(), tree.num_qubits)


# Keyed by content, never by identity, so a state written to in place between
# two calls is computed again.  One entry: consecutive calls on an equal state
# are the traffic this serves.
@lru_cache(maxsize=1)
def _amplitudes_of(data: bytes, num_qubits: int) -> np.ndarray:
    """The norm of the complex state held in ``data`` must be 1 within
    ``NORM_TOLERANCE``; returns its amplitudes, read-only."""
    state = np.frombuffer(data, dtype=complex)
    # np.linalg.norm's sum of squares, through vdot, which does not warn on
    # overflow: an overflowing norm is inf and fails below
    norm = np.sqrt(np.vdot(state.real, state.real) + np.vdot(state.imag, state.imag))
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOLERANCE}")
    amplitudes = _apply_transform(state, num_qubits)
    amplitudes.flags.writeable = False
    return amplitudes


def analyze_state(state: np.ndarray, tree: CouplingTree) -> LadderProfile:
    """Squared projection norms of a unit state onto W_1 ... W_M and V_M.

    A histogram of the squared hierarchic amplitudes over the ladder bins of
    their basis states.  The entries sum to 1 (completeness of the ladder
    decomposition).
    """
    _check_dense(tree.num_qubits)
    amplitudes = _unit_amplitudes(state, tree)
    weights = np.bincount(_ladder_bins(tree.num_qubits),
                          weights=amplitudes.real ** 2 + amplitudes.imag ** 2,
                          minlength=tree.levels + 1)
    return LadderProfile(tuple(float(w) for w in weights[1:]), float(weights[0]))


def _level_groups(tree: CouplingTree, level: int) -> _LevelGroups:
    """Groups at a checked ``level`` of a dense-size tree.  Level 0 is served
    by level 1's: every internal node sits at level >= 1, so both levels have
    the same coarse and fine columns."""
    _check_dense(tree.num_qubits)
    level = _as_integer("level", level, range(tree.levels + 1))
    return _groups_at(tree.num_qubits, max(level, 1))


def level_labels(tree: CouplingTree, level: int) -> list[LevelLabel]:
    """Distinct coarse labels at ``level``, in canonical basis order."""
    return list(_level_groups(tree, level).labels)


def conditioned_operator(tree: CouplingTree, level: int, blocks) -> np.ndarray:
    """Block-diagonal operator in the hierarchic basis, conditioned on the
    coarse labels at ``level``.

    ``blocks`` maps a coarse label to the square matrix applied to the basis
    states carrying that label (ordered as in the canonical basis).  A key may
    be a :class:`LevelLabel` or, when it addresses a single node, a
    :class:`MultipletLabel`.  Unlisted labels receive the identity.  The
    result is unitary exactly when every block is unitary.  ``blocks`` that
    is not a mapping, and a block that is not a square numeric matrix of the
    label's size, raise ValueError.
    """
    groups = _level_groups(tree, level)
    if not isinstance(blocks, Mapping):
        raise ValueError(f"blocks must be a mapping, got {type(blocks).__name__}")
    operator = np.eye(2 ** tree.num_qubits, dtype=complex)
    for key, block in blocks.items():
        if isinstance(key, MultipletLabel):
            # a 1-qubit tree has no internal node: its J = 1/2 labels carry no spins
            one_qubit = tree.num_qubits == 1 and key.twice_j == 1
            key = LevelLabel(() if one_qubit else (_spin_label(key.twice_j),), key.twice_m)
        if key not in groups.labels:
            raise ValueError(f"no basis states carry label {key} at level {level}")
        indices = np.flatnonzero(groups.label_id == groups.labels.index(key))
        block = _square(f"block for {key}", block)
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

    With the amplitudes scattered into a (fine part x coarse label) array
    A = X + iY, rho = A^T A^* has real part X^T X + Y^T Y and imaginary part
    Y^T X - X^T Y.  Both come from one real product (a dgemm): [X; Y]^T times
    the (2 num_fine x 2L) array whose columns alternate [X; Y] and [-Y; X],
    read as L x L complex.  Its inner dimension is 2 num_fine, where a complex
    A^T A^* (a zgemm) has num_fine, which is 1 at levels 0 and 1; BLAS runs
    that shape slowly.  For the 256 x 256 rho of 8 qubits at level 1 the
    complex product took 148 us and the real one 67 us (one thread, OpenBLAS
    0.3.31, a 2-vCPU x86-64 host).
    """
    groups = _level_groups(tree, level)
    amplitudes = _unit_amplitudes(state, tree)
    num_fine, num_labels = groups.num_fine, len(groups.labels)
    parts = np.zeros((2, num_fine, num_labels))  # X over Y
    parts[:, groups.fine_id, groups.label_id] = amplitudes.view(float).reshape(-1, 2).T
    rotated = np.empty((2, num_fine, num_labels, 2))  # each label's [X; Y], then [-Y; X]
    rotated[..., 0] = parts
    np.negative(parts[1], out=rotated[0, ..., 1])
    rotated[1, ..., 1] = parts[0]
    rho = parts.reshape(2 * num_fine, num_labels).T @ rotated.reshape(2 * num_fine, -1)
    return rho.view(complex), list(groups.labels)
