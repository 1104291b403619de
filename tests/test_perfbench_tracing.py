"""The perfbench code calls library names that no library path needs.

The tracer wraps library names by module attribute, and the workloads call
names such as `Placer.residual_scale` and `ParameterMatrix.random`.  A
refactor that drops one of those names breaks only benchmark runs, and
silently; these tests make it fail here instead.
"""

import pytest

import poleplace
import poleplace.bench  # noqa: F401  (submodules resolved by name, as in perfbench/run.py)
import poleplace.cli  # noqa: F401
from conftest import load_perfbench


def test_every_trace_target_exists():
    tracing = load_perfbench("tracing")
    missing = []
    for owner_path, attr, _ in tracing.TARGETS:
        owner = poleplace
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{owner_path}.{attr}")
    assert not missing


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_op_of_each_workload_passes_its_check(name):
    _, run, check = WORKLOADS[name](poleplace, 1)[0]
    causes, _ = check(run())
    assert causes == []
