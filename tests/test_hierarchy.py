"""Coupling trees, the hierarchic transform, and the multiresolution ladder."""

import math

import numpy as np
import pytest

from spinhier import hierarchy as hi
from spinhier.angular_momentum import MultipletLabel, SpinLabel, cg

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
        with pytest.raises(ValueError):
            hi.build_coupling_tree(bad)


def test_tree_pairs_adjacent_blocks():
    tree = hi.build_coupling_tree(8)
    offsets = [(n.offset, n.num_qubits) for n in tree.nodes_at_level(1)]
    assert offsets == [(0, 2), (2, 2), (4, 2), (6, 2)]
    offsets = [(n.offset, n.num_qubits) for n in tree.nodes_at_level(2)]
    assert offsets == [(0, 4), (4, 4)]


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
    for bad in (0, 17, 4096):
        with pytest.raises(ValueError, match=f"1..16, got {bad}"):
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
    content = hi.build_coupling_tree(n).root.content
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
    assert hi.multiplet_basis_states(tree) == [
        hi.MultipletBasisState(tuple(SpinLabel(t) for t in path), MultipletLabel(tj, tm))
        for path, tj, tm in raw
    ]


@pytest.mark.parametrize("num_qubits,bound", [(2, 1e-12), (4, 1e-12), (8, 1e-10)])
def test_transform_unitarity(num_qubits, bound):
    u = hi.hierarchic_transform(hi.build_coupling_tree(num_qubits))
    dim = 2 ** num_qubits
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < bound


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

def test_ladder_dimensions_worked_example():
    dims = hi.ladder_dimensions(2)
    assert dims.v == (16, 9, 5)
    assert dims.w == (7, 4)


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
        assert dims.v[0] == 2 ** (2 ** levels)
        for j in range(1, levels + 1):
            assert dims.v[j - 1] == dims.v[j] + dims.w[j - 1]
    with pytest.raises(ValueError):
        hi.ladder_dimensions(13)


def test_projector_ranks_match_ladder_dimensions():
    for levels in (1, 2, 3):
        tree = hi.build_coupling_tree(2 ** levels)
        dims = hi.ladder_dimensions(levels)
        for j in range(levels + 1):
            proj = hi.approximation_projector(tree, j)
            eigenvalues = np.linalg.eigvalsh(proj)
            assert int(np.sum(eigenvalues > 0.5)) == dims.v[j]
        for j in range(1, levels + 1):
            det = hi.detail_projector(tree, j)
            eigenvalues = np.linalg.eigvalsh(det)
            assert int(np.sum(eigenvalues > 0.5)) == dims.w[j - 1]


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


def test_analyze_profile_sums_to_one():
    rng = np.random.default_rng(7)
    tree = hi.build_coupling_tree(4)
    for _ in range(100):
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state /= np.linalg.norm(state)
        assert hi.analyze_state(state, tree).total() == pytest.approx(1.0, abs=1e-12)


def test_analyze_rejects_bad_states():
    tree = hi.build_coupling_tree(2)
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([1.0, 0.0]), tree)  # wrong size
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([1.0, 1.0, 0.0, 0.0]), tree)  # not normalized
    with pytest.raises(ValueError):
        hi.analyze_state(np.array([np.nan, 0.0, 0.0, 0.0]), tree)  # norm is NaN


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


def test_reduce_random_states_unit_trace_psd():
    rng = np.random.default_rng(19)
    tree = hi.build_coupling_tree(4)
    for level in (1, 2):
        for _ in range(10):
            state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state /= np.linalg.norm(state)
            rho, _ = hi.reduce_to_level(state, tree, level)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12


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
