"""Benchmark harness: run the optimizer over a corpus and tabulate results.

Corpus entries are system files (see `sysfile`).  An entry without an
explicit target structure gets the standard defective benchmark treatment:
every closed-loop eigenvalue at zero, with Jordan blocks sized by the
controllability indices.  Entries may carry published baseline values which
are rendered side by side for comparison; rows never fail the harness, a
broken entry is recorded and the run continues.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, PolePlaceError
from .linalg import DEFAULT_TOL
from .optimize import ObjectiveSpec, OptOptions, minimize
from .placement import residual_ok
from .structure import EigStructure, System, check_admissible, controllability_indices
from .sysfile import SystemFile, load_system


@dataclass(frozen=True)
class BenchRow:
    example: str
    method: str
    kappa_fro: float
    gain_fro: float
    delta_fro: float
    residual: float
    runtime_s: float
    ok: bool
    baseline: dict | None = None
    # OptResult.evaluations summed, and the restarts that ended at a
    # stationary point ("grad_tol" or "roundoff"); None on a failed row
    evals: int | None = None
    converged: int | None = None


def defective_zero_structure(sys, tol=DEFAULT_TOL):
    """All eigenvalues at zero, block orders equal to the controllability
    indices (the hardest admissible defective request)."""
    c = controllability_indices(sys, tol)
    return EigStructure((0.0,), (c,))


def builtin_systems():
    """Self-contained corpus entries used when no corpus directory is given."""
    double_integrator = SystemFile(
        name="double_integrator",
        system=System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])),
        structure=None,
        baseline=None,
    )
    chain = SystemFile(
        name="chain_3x2",
        system=System(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        ),
        structure=None,
        baseline=None,
    )
    return [double_integrator, chain]


def load_corpus(corpus_dir):
    """Load every *.json entry of a corpus directory, sorted by name.

    A missing directory, or one without entries, raises ParseError.
    """
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise ParseError(f"corpus directory {corpus_dir}: no *.json entries "
                         "(missing or empty)")
    return [load_system(path) for path in paths]


def run_bench(entries, objective=ObjectiveSpec("condition", 1.0),
              opts=OptOptions(), tol=DEFAULT_TOL):
    """One BenchRow per entry; failures become failed rows, not aborts."""
    label = f"{objective.method}(alpha={objective.alpha:g})"
    rows = []
    for entry in sorted(entries, key=lambda e: e.name):
        start = time.perf_counter()
        try:
            sys = entry.system
            if entry.structure is None:
                # admissible by construction: its invariant degrees are the
                # controllability indices, so they are computed only once
                spec = defective_zero_structure(sys, tol)
            else:
                spec = entry.structure
                report = check_admissible(spec, sys, tol)
                if not report.satisfied:
                    raise PolePlaceError(f"inadmissible structure: {report.message}")
            result = minimize(objective, sys, spec, opts, tol)
            res = result.placement
            rows.append(
                BenchRow(
                    example=entry.name,
                    method=label,
                    kappa_fro=result.metrics["kappa_fro_X"],
                    gain_fro=result.metrics["gain_fro"],
                    delta_fro=result.metrics["delta_fro"],
                    residual=res.residual,
                    runtime_s=time.perf_counter() - start,
                    ok=residual_ok(sys, res, tol),
                    baseline=entry.baseline,
                    evals=sum(result.evaluations),
                    converged=sum(t in ("grad_tol", "roundoff")
                                  for t in result.terminations),
                )
            )
        except PolePlaceError:
            rows.append(
                BenchRow(
                    example=entry.name,
                    method=label,
                    kappa_fro=float("nan"),
                    gain_fro=float("nan"),
                    delta_fro=float("nan"),
                    residual=float("nan"),
                    runtime_s=time.perf_counter() - start,
                    ok=False,
                    baseline=entry.baseline,
                )
            )
    return rows
