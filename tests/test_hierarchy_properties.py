"""Property tests of the label-based ladder analysis and reduced density
matrices against dense and loop-based oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhier import hierarchy as hi

SIZES = (1, 2, 4, 8)


@st.composite
def register_states(draw):
    """(tree, unit state): Haar-random, or a random superposition of a few
    hierarchic basis states so the weight sits on a handful of labels."""
    tree = hi.build_coupling_tree(draw(st.sampled_from(SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** tree.num_qubits
    if draw(st.booleans()):
        state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        u = hi.hierarchic_transform(tree)
        columns = rng.choice(dim, size=min(dim, draw(st.integers(1, 3))), replace=False)
        coeffs = rng.standard_normal(len(columns)) + 1j * rng.standard_normal(len(columns))
        state = u[:, columns] @ coeffs
    return tree, state / np.linalg.norm(state)


def _node_levels(tree):
    """Levels of the internal nodes in path (post-order) order."""
    out = []

    def walk(node):
        if not node.is_leaf:
            walk(node.left)
            walk(node.right)
            out.append(node.level)

    walk(tree.root)
    return out


def _split(tree, level):
    """(coarse label, fine part) of every basis state, canonical order."""
    levels = _node_levels(tree)
    out = []
    for st_ in hi.multiplet_basis_states(tree):
        coarse = tuple(s for s, lv in zip(st_.path, levels) if lv >= level)
        fine = tuple(s.twice_j for s, lv in zip(st_.path, levels) if lv < level)
        out.append((hi.LevelLabel(coarse, st_.terminal.twice_m), fine))
    return out


def _labels_oracle(tree, level):
    return list(dict.fromkeys(label for label, _ in _split(tree, level)))


def _profile_oracle(state, tree):
    """Squared norms of P_{j-1} psi - P_j psi and of P_M psi, dense projectors."""
    projected = [hi.approximation_projector(tree, j) @ state for j in range(tree.levels + 1)]
    details = [np.linalg.norm(projected[j - 1] - projected[j]) ** 2
               for j in range(1, tree.levels + 1)]
    return np.array(details + [np.linalg.norm(projected[-1]) ** 2])


def _reduce_oracle(state, tree, level):
    """Sum over fine parts of the outer products of coarse amplitude vectors."""
    amplitudes = hi.hierarchic_transform(tree).conj().T @ state
    split = _split(tree, level)
    labels = _labels_oracle(tree, level)
    pos = {label: n for n, label in enumerate(labels)}
    vectors = {}
    for amp, (label, fine) in zip(amplitudes, split):
        vectors.setdefault(fine, np.zeros(len(labels), dtype=complex))[pos[label]] = amp
    rho = sum(np.outer(vec, vec.conj()) for vec in vectors.values())
    return rho, labels


@settings(max_examples=60, deadline=None)
@given(register_states())
def test_analyze_matches_projector_oracle(case):
    tree, state = case
    profile = hi.analyze_state(state, tree)
    got = np.array(profile.detail_weights + (profile.final_weight,))
    assert len(profile.detail_weights) == tree.levels
    assert np.max(np.abs(got - _profile_oracle(state, tree))) <= 1e-14
    assert abs(profile.total() - np.linalg.norm(state) ** 2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(register_states())
def test_reduce_matches_outer_product_oracle(case):
    tree, state = case
    for level in range(tree.levels + 1):
        rho, labels = hi.reduce_to_level(state, tree, level)
        want, want_labels = _reduce_oracle(state, tree, level)
        assert labels == want_labels
        assert np.max(np.abs(rho - want)) <= 1e-14
        # a unit state's rho has unit trace and no negative eigenvalue
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize("num_qubits", SIZES)
def test_level_labels_match_first_seen_oracle(num_qubits):
    tree = hi.build_coupling_tree(num_qubits)
    for level in range(tree.levels + 1):
        assert hi.level_labels(tree, level) == _labels_oracle(tree, level)


def test_level_labels_four_qubit_fixture():
    tree = hi.build_coupling_tree(4)
    got = [(tuple(s.twice_j for s in label.spins), label.twice_m)
           for label in hi.level_labels(tree, 2)]
    assert got == [((4,), -4), ((4,), -2), ((4,), 0), ((4,), 2), ((4,), 4),
                   ((2,), -2), ((2,), 0), ((2,), 2), ((0,), 0)]
    got = [(tuple(s.twice_j for s in label.spins), label.twice_m)
           for label in hi.level_labels(tree, 0)]
    assert got[4:8] == [((2, 2, 4), 4), ((0, 2, 2), -2), ((2, 0, 2), -2), ((2, 2, 2), -2)]
    assert got[-2:] == [((0, 0, 0), 0), ((2, 2, 0), 0)]
    assert hi.level_labels(tree, 1) == hi.level_labels(tree, 0)  # no fine nodes yet


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1), st.data())
def test_conditioned_operator_matches_oracle(num_qubits, seed, data):
    tree = hi.build_coupling_tree(num_qubits)
    level = data.draw(st.integers(0, tree.levels))
    labels = [label for label, _ in _split(tree, level)]
    chosen = data.draw(st.lists(st.sampled_from(_labels_oracle(tree, level)),
                                max_size=4, unique=True))
    rng = np.random.default_rng(seed)
    want = np.eye(2 ** num_qubits, dtype=complex)
    blocks = {}
    for label in chosen:
        indices = [k for k, lab in enumerate(labels) if lab == label]
        shape = (len(indices), len(indices))
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        blocks[label] = np.linalg.qr(raw)[0]
        want[np.ix_(indices, indices)] = blocks[label]
    assert np.array_equal(hi.conditioned_operator(tree, level, blocks), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("complex", "real", "strided")))
def test_reduce_matches_the_complex_product_of_the_scattered_amplitudes(num_qubits, seed,
                                                                        layout):
    """rho from the real product against A^T A^* of the scattered amplitudes A."""
    tree = hi.build_coupling_tree(num_qubits)
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(2 ** num_qubits)
    if layout != "real":
        state = state + 1j * rng.standard_normal(2 ** num_qubits)
    state /= np.linalg.norm(state)
    if layout == "strided":
        state = np.repeat(state, 2)[::2]
    amplitudes = hi._apply_transform(state.astype(complex), num_qubits)
    for level in range(tree.levels + 1):
        rho, labels = hi.reduce_to_level(state, tree, level)
        assert labels == _labels_oracle(tree, level)
        split = _split(tree, level)
        label_pos = {label: n for n, label in enumerate(labels)}
        fine_pos = {}
        rows = [fine_pos.setdefault(fine, len(fine_pos)) for _, fine in split]
        columns = [label_pos[label] for label, _ in split]
        scattered = np.zeros((len(fine_pos), len(labels)), dtype=complex)
        scattered[rows, columns] = amplitudes
        assert np.max(np.abs(rho - scattered.T @ scattered.conj())) <= 1e-15
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        weights = np.bincount(columns, weights=np.abs(amplitudes) ** 2, minlength=len(labels))
        assert np.max(np.abs(np.diag(rho) - weights)) <= 1e-15
        if layout == "real":
            assert np.all(rho.imag == 0.0)
