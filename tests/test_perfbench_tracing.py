"""The perfbench tracer wraps library names by module attribute.

A refactor that drops one of those names breaks only traced benchmark runs,
and silently; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import poleplace
import poleplace.bench  # noqa: F401  (submodules resolved by name, as in perfbench/run.py)
import poleplace.cli  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, _ in tracing.TARGETS:
        owner = poleplace
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{owner_path}.{attr}")
    assert not missing
