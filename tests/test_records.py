"""Value records: named tuples that read, compare and hash as the plain tuple
of their values, whose reprs name their fields, and whose ``_replace`` checks
a field as the constructor does."""

import re

import numpy as np
import pytest

from spinhier import dynamics, hierarchy, quantum_dot, wavelet
from spinhier.register import (
    CouplingTree, InvalidLabelError, LadderDimensions, MultipletLabel, SpinLabel, TreeNode,
    ladder_dimensions,
)

GAAS = quantum_dot.DotParameters.gaas()
TRIANGLE = dynamics.PulseProfile((0.0, 1.0, 0.25), 2.0)

# Each record with the repr its dataclass form gave.
REPRS = [
    (SpinLabel(3), "SpinLabel(twice_j=3)"),
    (MultipletLabel(3, -1), "MultipletLabel(twice_j=3, twice_m=-1)"),
    (TreeNode(4, 2), "TreeNode(offset=4, num_qubits=2)"),
    (CouplingTree(8), "CouplingTree(num_qubits=8)"),
    (ladder_dimensions(2), "LadderDimensions(v=(16, 9, 5), w=(7, 4))"),
    (GAAS, "DotParameters(g=-0.44, hbar_omega0=3.0, mass_ratio=0.067, epsilon=13.1, d=0.7, "
           "b_field=0.0)"),
    (quantum_dot.physical_estimates(GAAS),
     "PhysicalEstimates(a_b_nm=19.470539769508367, spin_orbit_ratio=4.381224990507346e-08, "
     "dipole_mev=1.408007666991441e-09)"),
    (hierarchy.multiplet_basis_states(hierarchy.build_coupling_tree(2))[1],
     "MultipletBasisState(path=(SpinLabel(twice_j=2),), "
     "terminal=MultipletLabel(twice_j=2, twice_m=0))"),
    (hierarchy.level_labels(hierarchy.build_coupling_tree(4), 2)[0],
     "LevelLabel(spins=(SpinLabel(twice_j=4),), twice_m=-4)"),
    (hierarchy.analyze_state(np.eye(16)[3], hierarchy.build_coupling_tree(4)),
     "LadderProfile(detail_weights=(0.0, 0.8333333333333335), "
     "final_weight=0.16666666666666666)"),
    (hierarchy._groups_at(2, 1),
     "_LevelGroups(labels=(LevelLabel(spins=(SpinLabel(twice_j=2),), twice_m=-2), "
     "LevelLabel(spins=(SpinLabel(twice_j=2),), twice_m=0), "
     "LevelLabel(spins=(SpinLabel(twice_j=2),), twice_m=2), "
     "LevelLabel(spins=(SpinLabel(twice_j=0),), twice_m=0)), "
     "label_id=array([0, 1, 2, 3]), fine_id=array([0, 0, 0, 0]), num_fine=1)"),
    (wavelet.pyramid_forward([0.0, 2.0, 4.0, 8.0], 2),
     "PyramidDecomposition(approximation=array([7.]), details=(array([-1.41421356, "
     "-2.82842712]), array([-5.])))"),
    (quantum_dot.exchange_at_field(GAAS, 1.5),
     "ExchangeResult(b=1.0, c=1.5, j_mev=1.5528038096869716)"),
    (dynamics.PulseProfile(samples=(0.0, 1.0, 0.25), duration_ns=2.0),
     "PulseProfile(samples=(0.0, 1.0, 0.25), duration_ns=2.0)"),
]
RECORDS = [record for record, _ in REPRS]
NAMES = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record,text", REPRS, ids=NAMES)
def test_record_reprs_name_their_fields(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=NAMES)
def test_records_are_immutable_named_tuples(record):
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
    assert record._asdict() == dict(zip(record._fields, record))
    for name in (*record._fields, "anything"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_records_equal_the_plain_tuple_of_their_values():
    assert SpinLabel(4) == CouplingTree(4) == (4,)
    assert hash(SpinLabel(4)) == hash(CouplingTree(4)) == hash((4,))
    assert MultipletLabel(2, 2) == TreeNode(2, 2) == (2, 2)
    assert sorted([SpinLabel(3), SpinLabel(1)]) == [SpinLabel(1), SpinLabel(3)]
    assert MultipletLabel(1, 1) < MultipletLabel(3, -1)
    assert ladder_dimensions(1) == LadderDimensions((4, 3), (1,))


# (record, fields to replace) for every record that checks its fields
CHECKED = {
    "SpinLabel-negative": (SpinLabel(2), {"twice_j": -1}),
    "SpinLabel-float": (SpinLabel(2), {"twice_j": 2.0}),
    "MultipletLabel-parity": (MultipletLabel(2, 0), {"twice_m": 1}),
    "MultipletLabel-range": (MultipletLabel(2, 0), {"twice_m": 4}),
    "MultipletLabel-j": (MultipletLabel(2, 0), {"twice_j": -2}),
    "TreeNode-size": (TreeNode(0, 2), {"num_qubits": 3}),
    "TreeNode-empty": (TreeNode(0, 2), {"num_qubits": 0}),
    "TreeNode-misaligned": (TreeNode(0, 2), {"offset": 1}),
    "TreeNode-negative": (TreeNode(0, 2), {"offset": -2}),
    "TreeNode-str": (TreeNode(0, 1), {"offset": "a"}),
    "TreeNode-bool": (TreeNode(0, 1), {"num_qubits": True}),
    "TreeNode-beyond": (TreeNode(2048, 2048), {"offset": 4096}),
    "CouplingTree-size": (CouplingTree(8), {"num_qubits": 6}),
    "CouplingTree-bool": (CouplingTree(8), {"num_qubits": True}),
    "DotParameters-d": (GAAS, {"d": -1.0}),
    "DotParameters-nan": (GAAS, {"b_field": float("nan")}),
    "DotParameters-complex": (GAAS, {"g": 1j}),
    "DotParameters-epsilon": (GAAS, {"epsilon": 0.5}),
    "PulseProfile-one-sample": (TRIANGLE, {"samples": [1.0]}),
    "PulseProfile-duration": (TRIANGLE, {"duration_ns": 0.0}),
    "PulseProfile-nan": (TRIANGLE, {"samples": [1.0, float("nan")]}),
    "PulseProfile-complex": (TRIANGLE, {"samples": [1j, 1.0]}),
}


@pytest.mark.parametrize("record,changes", CHECKED.values(), ids=CHECKED.keys())
def test_replace_checks_a_field_as_the_constructor_does(record, changes):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **changes})
    message = f"^{re.escape(str(built.value))}$"
    with pytest.raises(type(built.value), match=message):
        record._replace(**changes)
    with pytest.raises(type(built.value), match=message):
        type(record)._make({**record._asdict(), **changes}.values())


@pytest.mark.parametrize("offset,num_qubits,message", [
    (0, 3, "node size must be a power of two in 1..4096, got 3"),
    (0, 0, "node size must be a power of two in 1..4096, got 0"),
    (0, 8192, "node size must be a power of two in 1..4096, got 8192"),
    (1, 2, "offset must be a non-negative multiple of num_qubits = 2, got 1"),
    (-2, 2, "offset must be a non-negative multiple of num_qubits = 2, got -2"),
    ("a", 1, "offset must be an integer, got 'a'"),
    (True, 1, "offset must be an integer, got True"),
    (0, True, "num_qubits must be an integer, got True"),
    (4096, 4096, "offset + num_qubits must be at most 4096, got 8192"),
    (8192, 1, "offset + num_qubits must be at most 4096, got 8193"),
    (4095, 2, "offset must be a non-negative multiple of num_qubits = 2, got 4095"),
])
def test_tree_node_refuses_a_block_no_tree_has(offset, num_qubits, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TreeNode(offset, num_qubits)


@pytest.mark.parametrize("num_qubits", [8, np.int64(4096)], ids=["8", "int64-4096"])
def test_tree_nodes_are_the_blocks_of_their_tree(num_qubits):
    tree = CouplingTree(num_qubits)
    assert TreeNode(np.int64(4), np.int64(2)) == tree.nodes_at_level(1)[2]
    assert type(TreeNode(np.int64(4), 2).offset) is int
    for level in range(tree.levels + 1):
        for node in tree.nodes_at_level(level):
            assert TreeNode(*node) == node and type(node) is TreeNode
            if not node.is_leaf:
                assert (node.left, node.right) == (TreeNode(node.offset, node.num_qubits // 2),
                                                   TreeNode(node.offset + node.num_qubits // 2,
                                                            node.num_qubits // 2))
    assert tree.root == TreeNode(0, num_qubits)


def test_replace_and_make_keep_the_checked_values():
    assert SpinLabel(2)._replace(twice_j=np.int64(4)) == SpinLabel(4)
    assert type(SpinLabel(2)._replace(twice_j=np.int64(4)).twice_j) is int
    replaced = GAAS._replace(d=np.float32(0.5), b_field=2)
    assert replaced == quantum_dot.DotParameters.gaas(d=0.5, b_field=2.0)
    assert all(type(value) is float for value in replaced)
    assert MultipletLabel._make([3, -1]) == MultipletLabel(3, -1)
    replaced = TRIANGLE._replace(samples=np.array([0, 1, 0.25]))
    assert replaced == TRIANGLE and type(replaced.samples) is tuple
    assert all(type(value) is float for value in replaced.samples)
    with pytest.raises(InvalidLabelError, match="^twice_j must be non-negative, got -1$"):
        SpinLabel._make([-1])
