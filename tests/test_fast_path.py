"""The policy rounds stay on NumPy's fast scalar path: no function on the
round path names a `PowerLevel` member or calls `np.broadcast_to`."""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np
import pytest

from stressgrid import engine, policies
from stressgrid.levels import PowerLevel

ROUND_PATH = [
    policies._send,
    policies._sheddable,
    policies._cuttable,
    policies._walk_chunks,
    policies.baseline_step,
    policies.alg1_decisions,
    policies.cut_nonsmart_groups,
    policies.alg1_round,
    policies.eligible_lower_runs,
    policies._shed_chunk,
    policies.alg2_step,
    policies.reset_hourly,
    engine._play_hour,
]


def slow_path_uses(fn) -> set[str]:
    """The `PowerLevel.<member>` attributes and `broadcast_to` calls in
    `fn`'s source."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "PowerLevel":
            found.add(f"PowerLevel.{node.attr}")
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "broadcast_to":
                found.add("broadcast_to")
    return found


@pytest.mark.parametrize("fn", ROUND_PATH, ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_round_path_stays_on_numpy_fast_path(fn):
    """A round at 1000 homes works on arrays of about 900 elements, so its
    cost is the fixed cost of its NumPy calls. One ufunc call on a
    900-element int8 array took 4.0 us with a `PowerLevel` (IntEnum) member
    as an operand and 0.8 us with a plain int (NumPy 2.4.6, Python 3.11.7,
    2-vCPU x86-64): NumPy converts an int subclass by its slow scalar path.
    Each `np.broadcast_to` took 3.4 us. The round path takes its levels as
    the plain ints `levels._L1` .. `_L5` and keeps one level for all a
    scalar."""
    assert slow_path_uses(fn) == set()


def test_guard_sees_both_slow_uses():
    def slow(level):
        return np.broadcast_to(level != PowerLevel.L1, 3)

    assert slow_path_uses(slow) == {"PowerLevel.L1", "broadcast_to"}
