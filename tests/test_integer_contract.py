"""The integer contract of the public API: every integer argument takes any
integer type, numpy's included, but bool; anything else raises ValueError
naming the argument.  ``steps``, the Haar ``levels`` and the spin labels are
checked with the rest of their validation in their own modules' tests."""

import numpy as np
import pytest

from spinhier import gates
from spinhier import hierarchy as hi

TREE4 = hi.build_coupling_tree(4)
TREE8 = hi.build_coupling_tree(8)
STATE4 = np.full(16, 0.25)

# (parameter name, call taking the value, a valid value)
CONTRACT = {
    "build_coupling_tree": ("num_qubits", hi.build_coupling_tree, 8),
    "register_content": ("num_qubits", hi.register_content, 5),
    "ladder_dimensions": ("levels", hi.ladder_dimensions, 3),
    "nodes_at_level": ("level", TREE8.nodes_at_level, 2),
    "approximation_projector": ("level", lambda v: hi.approximation_projector(TREE4, v), 1),
    "detail_projector": ("level", lambda v: hi.detail_projector(TREE4, v), 1),
    "level_labels": ("level", lambda v: hi.level_labels(TREE8, v), 2),
    "conditioned_operator": ("level", lambda v: hi.conditioned_operator(TREE8, v, {}), 2),
    "reduce_to_level": ("level", lambda v: hi.reduce_to_level(STATE4, TREE4, v), 1),
    "single_spin_z_rotation": ("which", lambda v: gates.single_spin_z_rotation(v, 0.3), 2),
}


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "2", None])
@pytest.mark.parametrize("call", CONTRACT)
def test_integer_parameters_refuse_everything_but_integers(call, bad):
    name, function, _ = CONTRACT[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        function(bad)


@pytest.mark.parametrize("call", CONTRACT)
def test_integer_parameters_take_numpy_integers(call):
    _, function, valid = CONTRACT[call]
    want = function(valid)
    for numpy_type in (np.int64, np.int32):
        assert _same(function(numpy_type(valid)), want)


def test_level_is_checked_before_the_label_cache():
    hi._groups_at.cache_clear()
    hi.level_labels(TREE8, 1)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="level must be an integer"):
            hi.reduce_to_level(np.eye(256)[0], TREE8, bad)
    assert hi._groups_at.cache_info().currsize == 1
