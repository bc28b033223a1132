"""Coupling trees, the hierarchic transform, and the multiresolution ladder."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhier import hierarchy as hi
from spinhier import register
from spinhier.angular_momentum import MultipletLabel, SpinLabel, _pair_columns, cg

SQ2 = 1.0 / np.sqrt(2.0)

SINGLET = np.array([0.0, -SQ2, SQ2, 0.0])

TEXTBOOK_PAIR_MATRIX = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-SQ2, 0.0, SQ2, 0.0],
    [SQ2, 0.0, SQ2, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def _total_spin_squared(num_qubits):
    """(sum_i S_i)^2 as a dense matrix; independent multiplet-content oracle."""
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    ops = {"x": 0.5 * (sp + sp.T), "y": (sp - sp.T) / 2j, "z": np.diag([-0.5, 0.5])}
    dim = 2 ** num_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for axis in "xyz":
        component = np.zeros((dim, dim), dtype=complex)
        for q in range(num_qubits):
            factors = [np.eye(2)] * num_qubits
            factors[q] = ops[axis]
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            component += term
        total += component @ component
    return total


def _content_by_diagonalization(num_qubits):
    """Multiplicity of each total spin from the eigenvalues of S^2."""
    eigenvalues = np.linalg.eigvalsh(_total_spin_squared(num_qubits))
    counts = {}
    for val in eigenvalues:
        tj = round(np.sqrt(4 * val + 1) - 1)  # j(j+1) -> 2j, exact for small sizes
        counts[tj] = counts.get(tj, 0) + 1
    return {tj: counts[tj] // (tj + 1) for tj in counts}


# ------------------------------------------------------------ coupling trees

def test_tree_two_qubits_content():
    tree = hi.build_coupling_tree(2)
    assert [(s.twice_j, m) for s, m in tree.root_content()] == [(2, 1), (0, 1)]


def test_tree_four_qubits_content_matches_diagonalization_oracle():
    tree = hi.build_coupling_tree(4)
    got = {s.twice_j: m for s, m in tree.root_content()}
    assert got == _content_by_diagonalization(4)
    assert got == {4: 1, 2: 3, 0: 2}
    assert sum((tj + 1) * mult for tj, mult in got.items()) == 16


def test_tree_single_qubit_is_leaf():
    tree = hi.build_coupling_tree(1)
    assert tree.root.is_leaf
    assert [(s.twice_j, m) for s, m in tree.root_content()] == [(1, 1)]


def test_tree_rejects_bad_sizes():
    for bad in (0, 3, 6, 12, -4, 8192):
        with pytest.raises(ValueError, match=f"power of two in 1..4096, got {bad}"):
            hi.build_coupling_tree(bad)


def test_tree_pairs_adjacent_blocks():
    tree = hi.build_coupling_tree(8)
    offsets = [(n.offset, n.num_qubits) for n in tree.nodes_at_level(1)]
    assert offsets == [(0, 2), (2, 2), (4, 2), (6, 2)]
    offsets = [(n.offset, n.num_qubits) for n in tree.nodes_at_level(2)]
    assert offsets == [(0, 4), (4, 4)]


def test_tree_is_derived_from_its_size():
    for levels in range(hi.MAX_LADDER_LEVELS + 1):
        tree = hi.build_coupling_tree(2 ** levels)
        assert tree.levels == levels
        frontier = [tree.root]  # a walk through left and right, one level at a time
        for level in range(levels, -1, -1):
            assert frontier == tree.nodes_at_level(level)
            for node in frontier:
                assert node.level == level
                assert node.content is register._content(node.num_qubits)
            frontier = [child for node in frontier for child in (node.left, node.right)]
        assert frontier == [None] * 2 ** (levels + 1)
    assert hi.build_coupling_tree(np.int64(8)) == hi.build_coupling_tree(8)
    assert type(hi.build_coupling_tree(np.int64(8)).num_qubits) is int
    # the size is checked however the tree is made
    with pytest.raises(ValueError, match="power of two in 1..4096, got 3"):
        hi.CouplingTree(3)


def _content_by_coupling(num_qubits):
    """Multiplicities from coupling one spin-1/2 at a time: 2j -> 2j +- 1."""
    content = {1: 1}
    for _ in range(num_qubits - 1):
        coupled = {}
        for tj, mult in content.items():
            for tj_new in (tj - 1, tj + 1):
                if tj_new >= 0:
                    coupled[tj_new] = coupled.get(tj_new, 0) + mult
        content = coupled
    return content


def test_register_content_any_size():
    for n in range(1, 17):
        content = hi.register_content(n)
        assert sum((s.twice_j + 1) * m for s, m in content) == 2 ** n
        assert [s.twice_j for s, _ in content] == sorted(_content_by_coupling(n), reverse=True)
        assert {s.twice_j: m for s, m in content} == _content_by_coupling(n)
    assert {s.twice_j: m for s, m in hi.register_content(3)} == {3: 1, 1: 2}
    assert [s.twice_j for s, _ in hi.register_content(17)] == list(range(17, 0, -2))
    for bad in (0, -1, 4097):
        with pytest.raises(ValueError, match=f"1..4096, got {bad}"):
            hi.register_content(bad)


def test_register_content_matches_diagonalization_oracle():
    for n in range(1, 9):
        assert {s.twice_j: m for s, m in hi.register_content(n)} == _content_by_diagonalization(n)


def test_tree_node_contents_match_coupling_reference():
    for size in (1, 2, 4, 8, 16):
        tree = hi.build_coupling_tree(size)
        for level in range(tree.levels + 1):
            for node in tree.nodes_at_level(level):
                want = _content_by_coupling(node.num_qubits)
                assert node.content == tuple(sorted(want.items(), reverse=True))


def test_tree_root_content_at_4096_qubits():
    n = 4096
    content = [(s.twice_j, mult) for s, mult in hi.register_content(n)]
    root = hi.build_coupling_tree(n).root_content()
    assert [(s.twice_j, mult) for s, mult in root] == content
    assert [tj for tj, _ in content] == list(range(n, -1, -2))
    for k in [*range(0, n // 2, 37), n // 2]:  # a spread of k; math.comb is slow at this size
        assert content[k][1] == math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
    assert content[1] == (n - 2, n - 1)
    assert content[-1] == (0, math.comb(n, n // 2) // (n // 2 + 1))  # Catalan number
    assert sum((tj + 1) * mult for tj, mult in content) == 2 ** n


# ------------------------------------------------------- hierarchic transform

def test_transform_two_qubits_equals_pair_matrix_after_reorder():
    tree = hi.build_coupling_tree(2)
    u = hi.hierarchic_transform(tree)
    states = hi.multiplet_basis_states(tree)
    # canonical order is triplet M=-1,0,+1 then singlet; the textbook
    # coupling matrix puts the singlet first
    mb_columns = [3, 0, 1, 2]
    assert np.max(np.abs(u[:, mb_columns] - TEXTBOOK_PAIR_MATRIX)) < 1e-12
    assert states[3].terminal == MultipletLabel(0, 0)
    assert [s.terminal.twice_m for s in states[:3]] == [-2, 0, 2]


def test_transform_is_read_only_cached_matrix():
    tree = hi.build_coupling_tree(4)
    u = hi.hierarchic_transform(tree)
    expected = u.copy()
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    with pytest.raises(ValueError):
        u *= 2.0
    again = hi.hierarchic_transform(tree)
    assert again is u
    assert np.array_equal(again, expected)
    assert np.max(np.abs(again.T @ again - np.eye(16))) < 1e-12


def test_transform_single_qubit_is_identity():
    tree = hi.build_coupling_tree(1)
    assert np.array_equal(hi.hierarchic_transform(tree), np.eye(2))


def _reference_transform(num_qubits):
    """Column-by-column build: each (J, M) column of the coupled pair of child
    groups summed from Kronecker products of child columns weighted by cg,
    then all columns sorted into canonical order."""
    if num_qubits == 1:
        return np.eye(2), [((), 1, -1), ((), 1, 1)]
    u_half, s_half = _reference_transform(num_qubits // 2)
    groups = {}
    for idx, (path, tj, tm) in enumerate(s_half):
        groups.setdefault((path, tj), {})[tm] = idx
    columns, states = [], []
    for (path_l, tj_l), m_l in groups.items():
        for (path_r, tj_r), m_r in groups.items():
            for tj in range(abs(tj_l - tj_r), tj_l + tj_r + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    col = np.zeros(2 ** num_qubits)
                    for tm_l, col_l in m_l.items():
                        if tm - tm_l in m_r:
                            coeff = cg(SpinLabel(tj_l), tm_l, SpinLabel(tj_r), tm - tm_l,
                                       MultipletLabel(tj, tm))
                            if coeff != 0.0:
                                col += coeff * np.kron(u_half[:, col_l],
                                                       u_half[:, m_r[tm - tm_l]])
                    columns.append(col)
                    states.append((path_l + path_r + (tj,), tj, tm))
    order = sorted(range(len(states)),
                   key=lambda k: (-states[k][1], states[k][2], states[k][0]))
    return (np.column_stack([columns[k] for k in order]), [states[k] for k in order])


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 8])
def test_transform_bit_equal_to_column_reference(num_qubits):
    tree = hi.build_coupling_tree(num_qubits)
    matrix, raw = _reference_transform(num_qubits)
    assert hi.hierarchic_transform(tree).tobytes() == matrix.tobytes()
    # tobytes() is C-order whatever the layout; U.T @ x is not
    assert hi.hierarchic_transform(tree).flags.c_contiguous
    assert hi.multiplet_basis_states(tree) == [
        hi.MultipletBasisState(tuple(SpinLabel(t) for t in path), MultipletLabel(tj, tm))
        for path, tj, tm in raw
    ]


@pytest.mark.parametrize("num_qubits,bound", [(2, 1e-12), (4, 1e-12), (8, 1e-10)])
def test_transform_unitarity(num_qubits, bound):
    u = hi.hierarchic_transform(hi.build_coupling_tree(num_qubits))
    dim = 2 ** num_qubits
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < bound


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 8, 16])
def test_ladder_bins_count_the_ladder_dimensions(num_qubits):
    # the bins come from the integer plan alone: at 16 qubits a dense
    # transform would need 34 GB
    levels = num_qubits.bit_length() - 1
    dims = hi.ladder_dimensions(levels)
    counts = np.bincount(hi._ladder_bins(num_qubits), minlength=levels + 1)
    assert counts.tolist() == [dims.v[-1], *dims.w]


def _record_sort_first_seen(rows):
    """Reference grouping: np.unique over whole rows, re-ranked to first-seen order.

    Each integer row, padded with a zero so that none is empty, is read as one
    void scalar of its bytes: equal rows have equal bytes, and a 1-D unique
    sorts them far faster than ``np.unique(..., axis=0)``."""
    rows = np.ascontiguousarray(np.pad(rows, ((0, 0), (0, 1))))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


@pytest.mark.parametrize("num_qubits", [1, 2, 4, 8, 16])
def test_level_groups_match_the_record_sort(num_qubits):
    # at 16 qubits all five levels have different coarse labels: the largest
    # check that the canonical-key ranking of the labels is first-seen order
    table, _ = hi._plan(num_qubits)
    node_levels = np.array(hi._postorder_levels(num_qubits))
    for level in range(num_qubits.bit_length()):
        groups = hi._groups_at(num_qubits, level)
        coarse = np.flatnonzero(np.append(node_levels >= level, [False, True]))
        fine = np.flatnonzero(node_levels < level)
        label_id, first = _record_sort_first_seen(table[:, coarse])
        fine_id, fine_first = _record_sort_first_seen(table[:, fine])
        assert np.array_equal(groups.label_id, label_id)
        # fine parts are summed over, so only the partition they make is fixed:
        # two states share a fine id exactly when they share a fine part
        pairs = set(zip(groups.fine_id.tolist(), fine_id.tolist()))
        assert groups.num_fine == len(np.unique(groups.fine_id)) == len(fine_first) == len(pairs)
        assert not groups.label_id.flags.writeable and not groups.fine_id.flags.writeable
        want = table[np.ix_(first, coarse)]
        assert [label.twice_m for label in groups.labels] == want[:, -1].tolist()
        # every label has the same number of spins, so one flat list compares them all
        assert {len(label.spins) for label in groups.labels} == {len(coarse) - 1}
        assert ([spin.twice_j for label in groups.labels for spin in label.spins]
                == want[:, :-1].ravel().tolist())
    # level 0 leaves no fine columns: one fine part holds every state
    assert hi._groups_at(num_qubits, 0).num_fine == 1


def _typed(record):
    """A label record as nested (type, value) pairs, so that two records
    compare equal only when their types agree at every depth."""
    if isinstance(record, tuple):
        return type(record), tuple(_typed(field) for field in record)
    return type(record), record


def _old_records(num_qubits, level):
    """The records as built before the shared row map, one generator per row:
    the basis states for ``level`` None, else the coarse labels at ``level``."""
    table, _ = hi._plan(num_qubits)
    if level is None:
        return tuple(hi.MultipletBasisState(tuple(hi._spin_label(t) for t in row[:-2]),
                                            MultipletLabel(row[-2], row[-1]))
                     for row in table.tolist())
    node_levels = np.array(hi._postorder_levels(num_qubits))
    coarse = np.flatnonzero(np.append(node_levels >= level, [False, True]))
    _, first = _record_sort_first_seen(table[:, coarse])
    return tuple(hi.LevelLabel(tuple(hi._spin_label(t) for t in row[:-1]), row[-1])
                 for row in table[np.ix_(first, coarse)].tolist())


def _spins(record):
    return record.path if isinstance(record, hi.MultipletBasisState) else record.spins


@pytest.mark.parametrize("num_qubits,level", [
    *[(n, None) for n in (1, 2, 4, 8)],
    *[(n, level) for n in (1, 2, 4, 8) for level in range(n.bit_length())],
    (16, 2), (16, 3),
], ids=lambda value: "basis" if value is None else str(value))
def test_shared_row_map_builds_the_old_records(num_qubits, level):
    new = hi._basis_states(num_qubits) if level is None else hi._groups_at(num_qubits, level).labels
    old = _old_records(num_qubits, level)
    assert new == old
    # the old records are MultipletBasisState of SpinLabel and MultipletLabel,
    # or LevelLabel of SpinLabel, with int fields
    assert [_typed(record) for record in new] == [_typed(record) for record in old]
    # one SpinLabel object per 2j across all records
    shared = {}
    for record in new:
        for spin in _spins(record):
            assert shared.setdefault(spin.twice_j, spin) is spin
    assert all(spin is hi._spin_label(twice_j) for twice_j, spin in shared.items())


def test_levels_zero_and_one_share_one_label_group():
    tree = hi.build_coupling_tree(8)
    state = np.random.default_rng(13).standard_normal(256)
    state /= np.linalg.norm(state)
    hi._groups_at.cache_clear()
    (rho0, labels0), (rho1, labels1) = (hi.reduce_to_level(state, tree, level) for level in (0, 1))
    assert np.array_equal(rho0, rho1) and labels0 == labels1
    assert hi._groups_at.cache_info().currsize == 1


@pytest.mark.parametrize("num_qubits,types", [(1, 0), (2, 1), (4, 4), (8, 9), (16, 25)])
def test_plan_holds_one_entry_per_pair_of_child_spins(num_qubits, types):
    table, entries = hi._plan(num_qubits)
    child_spins = [tj for tj, _ in register._content(num_qubits // 2)] if num_qubits > 1 else []
    assert [(tj_l, tj_r) for tj_l, tj_r, _, _ in entries] == [
        (tj_l, tj_r) for tj_l in child_spins for tj_r in child_spins]
    assert len(entries) == types
    for tj_l, tj_r, gathers, scatters in entries:
        for index in (gathers, scatters):
            assert index.dtype.kind == "i"
            assert index.shape == (len(gathers), (tj_l + 1) * (tj_r + 1))
    if num_qubits > 1:
        for part in (2, 3):
            joined = np.concatenate([entry[part].ravel() for entry in entries])
            assert np.array_equal(np.sort(joined), np.arange(2 ** num_qubits))
    # column c of every pair block lands where the table holds its (2J, 2M)
    for tj_l, tj_r, _, scatters in entries:
        for c, jm in enumerate(_pair_columns(tj_l, tj_r)):
            assert (table[scatters[:, c], -2:] == jm).all()


def test_basis_states_are_consistent():
    tree = hi.build_coupling_tree(4)
    states = hi.multiplet_basis_states(tree)
    assert len(states) == 16
    for st in states:
        assert len(st.path) == 3  # one entry per internal node
        left, right, root = st.path
        assert st.terminal.twice_j == root.twice_j
        # root spin reachable from the two pair spins
        assert abs(left.twice_j - right.twice_j) <= root.twice_j <= left.twice_j + right.twice_j
    # canonical order: descending terminal J, then ascending M
    keys = [(-st.terminal.twice_j, st.terminal.twice_m) for st in states]
    assert keys == sorted(keys)


def test_transform_rejects_oversized_register():
    # a 16-qubit tree is valid for bookkeeping but too large for dense work
    tree = hi.build_coupling_tree(16)
    with pytest.raises(ValueError):
        hi.hierarchic_transform(tree)


def test_transform_build_checks_the_dense_cap_before_it_allocates():
    # the cap sits in the one dense build, so no caller reaches a 2^16 x 2^16
    # allocation without it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"at most 8 qubits \(16 requested\)"):
            hi._transform(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_dense_entry_points_reject_sixteen_qubits():
    # the cap is checked before anything of size 2^16 x 2^16 is built
    tree = hi.build_coupling_tree(16)
    state = np.zeros(2 ** 16)
    state[0] = 1.0
    calls = [
        lambda: hi.multiplet_basis_states(tree),
        lambda: hi.analyze_state(state, tree),
        lambda: hi.reduce_to_level(state, tree, 2),
        lambda: hi.level_labels(tree, 2),
        lambda: hi.conditioned_operator(tree, 2, {}),
        lambda: hi.approximation_projector(tree, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"at most 8 qubits \(16 requested\)"):
            call()


# ---------------------------------------------------------------- the ladder

def test_ladder_dimensions_one_level():
    dims = hi.ladder_dimensions(1)
    assert dims.v == (4, 3)
    assert dims.w == (1,)


def test_ladder_dimensions_three_levels():
    dims = hi.ladder_dimensions(3)
    assert dims.v == (256, 81, 25, 9)
    assert dims.w == (175, 56, 16)
    assert sum(dims.w) + dims.v[-1] == dims.v[0]


def test_ladder_dimensions_telescoping():
    for levels in range(0, 13):
        dims = hi.ladder_dimensions(levels)
        assert dims.levels == levels
        assert dims.v[0] == 2 ** (2 ** levels)
        for j in range(1, levels + 1):
            assert dims.v[j - 1] == dims.v[j] + dims.w[j - 1]
    with pytest.raises(ValueError):
        hi.ladder_dimensions(13)


def test_projector_level_zero_is_identity():
    tree = hi.build_coupling_tree(4)
    assert np.array_equal(hi.approximation_projector(tree, 0), np.eye(16))


def test_pair_projector_annihilates_singlet():
    tree = hi.build_coupling_tree(2)
    proj = hi.approximation_projector(tree, 1)
    assert np.max(np.abs(proj @ SINGLET)) < 1e-12
    assert round(np.trace(proj)) == 3
    det = hi.detail_projector(tree, 1)
    assert np.max(np.abs(det - np.outer(SINGLET, SINGLET))) < 1e-12


def test_projector_algebra():
    tree = hi.build_coupling_tree(8)
    projectors = [hi.approximation_projector(tree, j) for j in range(4)]
    for j, pj in enumerate(projectors):
        assert np.max(np.abs(pj @ pj - pj)) < 1e-10
        for k, pk in enumerate(projectors):
            pmax = projectors[max(j, k)]
            assert np.max(np.abs(pj @ pk - pmax)) < 1e-10
    resolution = sum(hi.detail_projector(tree, j) for j in range(1, 4)) + projectors[3]
    assert np.max(np.abs(resolution - np.eye(256))) < 1e-10


# ------------------------------------------------------------- state analysis

def test_analyze_all_up_state():
    tree = hi.build_coupling_tree(4)
    state = np.zeros(16)
    state[-1] = 1.0
    profile = hi.analyze_state(state, tree)
    assert profile.final_weight == pytest.approx(1.0, abs=1e-12)
    assert max(profile.detail_weights) < 1e-12


def test_analyze_singlet_pair_product():
    tree = hi.build_coupling_tree(4)
    profile = hi.analyze_state(np.kron(SINGLET, SINGLET), tree)
    assert profile.detail_weights[0] == pytest.approx(1.0, abs=1e-12)
    assert profile.detail_weights[1] < 1e-12
    assert profile.final_weight < 1e-12


def test_analyze_rejects_bad_states():
    tree = hi.build_coupling_tree(2)
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([1.0, 0.0]), tree)  # wrong size
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([1.0, 1.0, 0.0, 0.0]), tree)  # not normalized
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([np.nan, 0.0, 0.0, 0.0]), tree)  # norm is NaN


def test_a_state_must_be_one_numeric_axis():
    # a pure 4-qubit density matrix has 2^8 entries and Frobenius norm 1, and
    # the text "0.5" would convert to a number
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    cases = [(np.outer(psi, psi.conj()), 8, "state must be one-dimensional, got shape (16, 16)"),
             (np.array(["0.5"] * 4), 2, "state must be numeric, got dtype <U3")]
    for state, num_qubits, message in cases:
        tree = hi.build_coupling_tree(num_qubits)
        for call in (lambda: hi.analyze_state(state, tree),
                     lambda: hi.reduce_to_level(state, tree, 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


def test_basis_change_consistency():
    # terminal-J weights read off the transform agree with the projector route
    rng = np.random.default_rng(11)
    for num_qubits in (4, 8):
        tree = hi.build_coupling_tree(num_qubits)
        qubits = rng.standard_normal((num_qubits, 2)) + 1j * rng.standard_normal((num_qubits, 2))
        state = np.array([1.0 + 0j])
        for q in qubits:
            state = np.kron(state, q / np.linalg.norm(q))
        u = hi.hierarchic_transform(tree)
        amplitudes = u.conj().T @ state
        states = hi.multiplet_basis_states(tree)
        top_weight = sum(
            abs(a) ** 2
            for a, st in zip(amplitudes, states)
            if st.terminal.twice_j == num_qubits
        )
        profile = hi.analyze_state(state, tree)
        assert top_weight == pytest.approx(profile.final_weight, abs=1e-10)


# ------------------------------------------------- conditioned block operators

def test_conditioned_identity_blocks():
    tree = hi.build_coupling_tree(4)
    op = hi.conditioned_operator(tree, 2, {})
    assert np.array_equal(op, np.eye(16))
    # explicit identity blocks for every label give the identity as well
    states = hi.multiplet_basis_states(tree)
    blocks = {}
    for label in hi.level_labels(tree, 2):
        size = sum(
            1 for st in states
            if (st.path[-1],) == label.spins and st.terminal.twice_m == label.twice_m
        )
        blocks[label] = np.eye(size)
    op = hi.conditioned_operator(tree, 2, blocks)
    assert np.max(np.abs(op - np.eye(16))) == 0.0


def test_conditioned_singlet_phase_pair():
    tree = hi.build_coupling_tree(2)
    phase = np.exp(1j * 0.8)
    op = hi.conditioned_operator(tree, 1, {MultipletLabel(0, 0): [[phase]]})
    # express in singlet-first ordering (then triplet M=-1,0,+1)
    mb_order = [3, 0, 1, 2]
    reordered = op[np.ix_(mb_order, mb_order)]
    assert np.max(np.abs(reordered - np.diag([phase, 1, 1, 1]))) < 1e-12


def test_conditioned_unitary_blocks_give_unitary_operator():
    rng = np.random.default_rng(3)
    tree = hi.build_coupling_tree(4)
    blocks = {}
    for label in hi.level_labels(tree, 2):
        states = hi.multiplet_basis_states(tree)
        size = sum(
            1 for st in states
            if (st.path[-1],) == label.spins and st.terminal.twice_m == label.twice_m
        )
        raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        blocks[label], _ = np.linalg.qr(raw)
    op = hi.conditioned_operator(tree, 2, blocks)
    assert np.max(np.abs(op.conj().T @ op - np.eye(16))) < 1e-12


def test_conditioned_block_shape_error():
    tree = hi.build_coupling_tree(2)
    with pytest.raises(ValueError):
        hi.conditioned_operator(tree, 1, {MultipletLabel(0, 0): np.eye(2)})
    with pytest.raises(ValueError):
        hi.conditioned_operator(tree, 1, {MultipletLabel(6, 0): np.eye(1)})


def test_conditioned_operator_on_one_qubit_takes_the_register_label():
    # a 1-qubit tree has no internal node, so its labels carry no spins, and a
    # J = 1/2 key addresses LevelLabel((), M)
    tree = hi.build_coupling_tree(1)
    assert hi.level_labels(tree, 0) == [hi.LevelLabel((), -1), hi.LevelLabel((), 1)]
    op = hi.conditioned_operator(tree, 0, {MultipletLabel(1, 1): [[1j]]})
    assert np.array_equal(op, np.diag([1, 1j]))
    assert np.array_equal(op, hi.conditioned_operator(tree, 0, {hi.LevelLabel((), 1): [[1j]]}))
    key = re.escape(str(hi.LevelLabel((SpinLabel(3),), 1)))
    with pytest.raises(ValueError, match=f"^no basis states carry label {key} at level 0$"):
        hi.conditioned_operator(tree, 0, {MultipletLabel(3, 1): [[1j]]})


SINGLET_KEY = re.escape(str(hi.LevelLabel((SpinLabel(0),), 0)))


@pytest.mark.parametrize("blocks,message", [
    ([1, 2], "^blocks must be a mapping, got list$"),
    ("ab", "^blocks must be a mapping, got str$"),
    ({MultipletLabel(0, 0): "ab"}, f"^block for {SINGLET_KEY} must be numeric, got dtype <U2$"),
    ({MultipletLabel(0, 0): [[None]]},
     f"^block for {SINGLET_KEY} must be numeric, got dtype object$"),
    ({MultipletLabel(0, 0): [1.0]},
     rf"^block for {SINGLET_KEY} must be a square matrix, got shape \(1,\)$"),
    ({MultipletLabel(0, 0): np.eye(2)},
     rf"^block for {SINGLET_KEY} has shape \(2, 2\), expected \(1, 1\)$"),
    ({MultipletLabel(0, 0): [[np.nan]]},
     f"^block for {SINGLET_KEY} entries must be finite, got nan$"),
], ids=["list", "str", "text-block", "none-block", "vector-block", "wrong-size-block",
        "nan-block"])
def test_conditioned_operator_names_what_it_refuses(blocks, message):
    with pytest.raises(ValueError, match=message):
        hi.conditioned_operator(hi.build_coupling_tree(2), 1, blocks)


# ------------------------------------------------------ reduced density matrix

def test_reduce_pure_triplet():
    tree = hi.build_coupling_tree(2)
    triplet0 = np.array([0.0, SQ2, SQ2, 0.0])
    rho, labels = hi.reduce_to_level(triplet0, tree, 1)
    target = labels.index(hi.LevelLabel((SpinLabel(2),), 0))
    assert rho[target, target] == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduce_superposition_diagonal():
    tree = hi.build_coupling_tree(2)
    u = hi.hierarchic_transform(tree)
    a, b = 0.6, 0.8
    state = a * u[:, 3] + b * u[:, 1]  # a |0,0> + b |1,0>
    rho, labels = hi.reduce_to_level(state, tree, 1)
    singlet = labels.index(hi.LevelLabel((SpinLabel(0),), 0))
    triplet = labels.index(hi.LevelLabel((SpinLabel(2),), 0))
    assert rho[singlet, singlet].real == pytest.approx(a ** 2, abs=1e-12)
    assert rho[triplet, triplet].real == pytest.approx(b ** 2, abs=1e-12)


def test_reduce_diagonal_matches_amplitude_sums():
    rng = np.random.default_rng(23)
    tree = hi.build_coupling_tree(4)
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state /= np.linalg.norm(state)
    u = hi.hierarchic_transform(tree)
    amplitudes = u.conj().T @ state
    states = hi.multiplet_basis_states(tree)
    rho, labels = hi.reduce_to_level(state, tree, 2)
    for pos, label in enumerate(labels):
        expected = sum(
            abs(a) ** 2
            for a, st in zip(amplitudes, states)
            if (st.path[-1],) == label.spins and st.terminal.twice_m == label.twice_m
        )
        assert rho[pos, pos].real == pytest.approx(expected, abs=1e-12)


# ------------------------------------------- amplitudes of the last state held

def _descent(state, tree):
    """``analyze_state``, then ``reduce_to_level`` at every level: the
    hierarchic descent of one state."""
    return (hi.analyze_state(state, tree),
            *(hi.reduce_to_level(state, tree, level) for level in range(tree.levels + 1)))


def _random_unit_state(seed, num_qubits):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(2 ** num_qubits) + 1j * rng.standard_normal(2 ** num_qubits)
    return state / np.linalg.norm(state)


def test_descent_of_one_state_applies_the_transform_once():
    tree = hi.build_coupling_tree(8)
    state = _random_unit_state(29, 8)
    hi._amplitudes_of.cache_clear()
    _descent(state, tree)
    info = hi._amplitudes_of.cache_info()
    assert (info.misses, info.hits, info.currsize, info.maxsize) == (1, 4, 1, 1)
    # an equal state in another array is a hit too
    _descent(state.copy(), tree)
    info = hi._amplitudes_of.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_a_state_written_in_place_is_computed_again():
    tree = hi.build_coupling_tree(4)
    state = _random_unit_state(31, 4)
    before = hi.analyze_state(state, tree)
    state[:] = 0.0
    state[-1] = 1.0  # all up: every weight in V_M
    after = hi.analyze_state(state, tree)
    assert after != before
    assert after == hi.LadderProfile((0.0, 0.0), 1.0)
    rho, labels = hi.reduce_to_level(state, tree, 2)
    top = labels.index(hi.LevelLabel((SpinLabel(4),), 4))
    assert rho[top, top] == 1.0 and np.count_nonzero(rho) == 1


def test_held_amplitudes_are_read_only():
    tree = hi.build_coupling_tree(2)
    state = _random_unit_state(37, 2)
    amplitudes = hi._unit_amplitudes(state, tree)
    assert not amplitudes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        amplitudes[0] = 0.0
    assert hi._unit_amplitudes(state, tree) is amplitudes


def test_a_refused_state_is_refused_on_every_call():
    tree = hi.build_coupling_tree(2)
    state = np.array([2.0, 0.0, 0.0, 0.0])
    message = "^state norm 2.0 deviates from 1 by more than 1e-06$"
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            hi.analyze_state(state, tree)
        for level in range(tree.levels + 1):
            with pytest.raises(ValueError, match=message):
                hi.reduce_to_level(state, tree, level)
    # the level is checked first, then the state's shape, then its norm
    with pytest.raises(ValueError, match="^level must be in 0..1, got 2$"):
        hi.reduce_to_level(state, tree, 2)
    with pytest.raises(ValueError, match="^state has 2 amplitudes, tree expects 4$"):
        hi.reduce_to_level(state[:2] * 9, tree, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 4, 8)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("complex", "real", "strided")))
def test_held_amplitudes_give_the_uncached_outputs_bit_for_bit(num_qubits, seed, layout):
    tree = hi.build_coupling_tree(num_qubits)
    state = _random_unit_state(seed, num_qubits)
    if layout == "real":
        state = state.real / np.linalg.norm(state.real)
    elif layout == "strided":
        state = np.repeat(state, 2)[::2]
    assert np.array_equal(hi._unit_amplitudes(state, tree).view(float),
                          hi._apply_transform(state.astype(complex), num_qubits).view(float))
    cached = _descent(state, tree)
    uncached = []
    for call in (lambda: hi.analyze_state(state, tree),
                 *(lambda level=level: hi.reduce_to_level(state, tree, level)
                   for level in range(tree.levels + 1))):
        hi._amplitudes_of.cache_clear()
        uncached.append(call())
    assert cached[0] == uncached[0]
    for (rho, labels), (fresh_rho, fresh_labels) in zip(cached[1:], uncached[1:]):
        assert labels == fresh_labels
        assert rho.tobytes() == fresh_rho.tobytes()
