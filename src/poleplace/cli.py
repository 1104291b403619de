"""Command-line front end.

Subcommands: check, place, optimize, bench, recover.  Exit codes: 0 success,
1 parse or usage error (out-of-range flag values and non-finite file entries
included), 2 inadmissible structure, 3 unreachable pair, 4 singular or failed
numerics.  All commands are deterministic for a fixed --seed.
"""

import argparse
import functools
import sys as _sys
from pathlib import Path

import numpy as np

from .bench import builtin_systems, load_corpus, run_bench
from .errors import (
    ChainConsistencyError,
    NotReachableError,
    ParseError,
    PolePlaceError,
    SingularMatrixError,
)
from .linalg import ToleranceConfig, fro_norm
from .optimize import ObjectiveSpec, OptOptions, minimize, placement_metrics
from .placement import ParameterMatrix, Placer, chains_from_feedback, residual_ok
from .report import render_csv, render_markdown, render_report
from .structure import check_admissible
from .sysfile import load_feedback, load_parameter, load_structure, load_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_UNREACHABLE = 3
EXIT_SINGULAR = 4


class _InadmissibleError(PolePlaceError):
    """The target structure fails the Rosenbrock conditions."""


# exception type -> exit code, first match wins; any other PolePlaceError
# (parse and structure errors included) is a usage error
_EXIT_CODES = (
    (NotReachableError, EXIT_UNREACHABLE),
    (_InadmissibleError, EXIT_INADMISSIBLE),
    ((SingularMatrixError, ChainConsistencyError), EXIT_SINGULAR),
)

_PLACE_DRAWS = 20


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# built once per process: the five subparsers cost ~1 ms, more than a parse
@functools.cache
def build_parser():
    parser = _Parser(prog="poleplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        # flags: (flag, add_argument keywords) pairs in --help order
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    def outputs(what):
        return (
            ("--tol", dict(type=float, default=1e-8,
                           help="residual tolerance (default 1e-8)")),
            ("--out", dict(help=f"write the {what} here instead of stdout")),
        )

    inputs = (
        ("--system", dict(required=True, help="system file (JSON)")),
        ("--spec", dict(
            help="structure file; defaults to the system file's structure")),
    )
    report = outputs("report")
    seed = (("--seed", dict(type=int, default=0)),)
    search = (
        ("--method", dict(choices=("condition", "normality"),
                          default="condition")),
        ("--alpha", dict(type=float, default=1.0)),
        ("--restarts", dict(type=int, default=10)),
        ("--max-iters", dict(type=int, default=500)),
    )

    command("check", cmd_check, "Rosenbrock admissibility check",
            *inputs, *report)
    command("place", cmd_place, "place once with a random or given K",
            *inputs, *report, *seed,
            ("--k-file", dict(help="parameter matrix file (JSON)")))
    command("optimize", cmd_optimize, "multi-start optimization over K",
            *inputs, *report, *search, *seed)
    command("bench", cmd_bench, "run the benchmark corpus",
            ("--corpus", dict(help="directory of system files; "
                              "defaults to the built-in synthetic systems")),
            *search, *seed, *outputs("table"),
            ("--format", dict(choices=("md", "csv"), default="md")))
    command("recover", cmd_recover,
            "recover the parameter matrix reproducing a given feedback "
            "(simple spectra only)",
            *inputs, *report,
            ("--feedback", dict(required=True,
                                help='feedback file: {"F": [[...]]}')))
    return parser


def _emit(text, out):
    if out:
        Path(out).write_text(text)
    else:
        _sys.stdout.write(text)


def _options(args):
    """Tolerance, objective and optimizer options from the flags.

    Commands without optimizer flags get (tol, None, None).  Out-of-range
    values, a negative --seed included, raise ParseError, so they exit 1
    like any other usage error.
    """
    try:
        if "seed" in args and args.seed < 0:
            raise ValueError("seed must be nonnegative")
        tol = ToleranceConfig(residual_tol=args.tol)
        if "method" not in args:
            return tol, None, None
        obj = ObjectiveSpec(args.method, args.alpha)
        opts = OptOptions(restarts=args.restarts, max_iters=args.max_iters,
                          seed=args.seed)
    except ValueError as exc:
        raise ParseError(f"invalid option value: {exc}") from None
    return tol, obj, opts


def _load_inputs(args):
    sf = load_system(args.system)
    if args.spec:
        spec = load_structure(args.spec, sf.system.n)
    else:
        spec = sf.structure
    if spec is None:
        raise ParseError(
            f"{args.system}: no structure given (embed one or pass --spec)"
        )
    return sf, spec


def _admissible_inputs(args, tol):
    """`_load_inputs`, then raise unless the structure is admissible."""
    sf, spec = _load_inputs(args)
    report = check_admissible(spec, sf.system, tol)
    if not report.satisfied:
        raise _InadmissibleError(f"inadmissible structure: {report.message}")
    return sf, spec


def _metrics_fields(res, metrics):
    return [("residual", res.residual), ("cond_V", res.cond_V), *metrics.items()]


def _report(args, fields, matrices, ok):
    """Write the report; exit 0 on an accepted placement, else 4."""
    _emit(render_report(fields, matrices), args.out)
    return EXIT_OK if ok else EXIT_SINGULAR


def cmd_check(args):
    tol, _, _ = _options(args)
    sf, spec = _load_inputs(args)
    report = check_admissible(spec, sf.system, tol)
    text = render_report(
        [
            ("command", "check"),
            ("system", sf.name),
            ("n", sf.system.n),
            ("m", sf.system.m),
            ("controllability_indices", " ".join(map(str, report.controllability_indices))),
            ("invariant_degrees", " ".join(map(str, report.invariant_degrees))),
            ("admissible", "yes" if report.satisfied else "no"),
            ("detail", report.message or "-"),
        ]
    )
    _emit(text, args.out)
    return EXIT_OK if report.satisfied else EXIT_INADMISSIBLE


def cmd_place(args):
    tol, _, _ = _options(args)
    sf, spec = _admissible_inputs(args, tol)
    sys = sf.system
    placer = Placer(sys, spec, tol)

    if args.k_file:
        K = load_parameter(args.k_file, spec, sys.m)
        res = placer.place(K)  # SingularMatrixError propagates -> exit 4
        source = ("k_file", args.k_file)
    else:
        rng = np.random.default_rng(args.seed)
        for _ in range(_PLACE_DRAWS):
            try:
                res = placer.place(ParameterMatrix.random(spec, sys.m, rng))
                break
            except SingularMatrixError:
                continue
        else:
            raise SingularMatrixError(
                f"no nonsingular placement in {_PLACE_DRAWS} draws"
            )
        source = ("seed", args.seed)

    ok = residual_ok(sys, res, tol)
    fields = [
        ("command", "place"),
        ("system", sf.name),
        ("n", sys.n),
        ("m", sys.m),
        source,
        ("status", "ok" if ok else "failed"),
    ] + _metrics_fields(res, placement_metrics(sys, spec, res, tol))
    return _report(args, fields, [("F", res.F), ("V", res.V), ("X", res.X)], ok)


def cmd_optimize(args):
    tol, obj, opts = _options(args)
    sf, spec = _admissible_inputs(args, tol)
    sys = sf.system
    result = minimize(obj, sys, spec, opts, tol)
    res = result.placement
    ok = residual_ok(sys, res, tol)
    fields = [
        ("command", "optimize"),
        ("system", sf.name),
        ("method", args.method),
        ("alpha", float(args.alpha)),
        ("restarts", args.restarts),
        ("seed", args.seed),
        ("status", "ok" if ok else "failed"),
        ("best_value", result.best_value),
    ]
    per_restart = zip(result.restart_values, result.traces,
                      result.terminations, result.evaluations)
    for i, (final, trace, termination, evals) in enumerate(per_restart):
        fields += [
            (f"restart_{i}_final", final),
            # a singular_start restart has the empty trace: 0 steps
            (f"restart_{i}_steps", max(len(trace) - 1, 0)),
            (f"restart_{i}_termination", termination),
            (f"restart_{i}_evals", evals),
        ]
    fields += _metrics_fields(res, result.metrics)
    return _report(args, fields, [("F", res.F)], ok)


def cmd_bench(args):
    tol, obj, opts = _options(args)
    entries = load_corpus(args.corpus) if args.corpus else builtin_systems()
    rows = run_bench(entries, obj, opts, tol)
    text = render_markdown(rows) if args.format == "md" else render_csv(rows)
    _emit(text, args.out)
    return EXIT_OK


def cmd_recover(args):
    tol, _, _ = _options(args)
    sf, spec = _load_inputs(args)
    sys = sf.system
    F = load_feedback(args.feedback, sys)
    chains = chains_from_feedback(sys, spec, F, tol)
    placer = Placer(sys, spec, tol)
    K = placer.recover_parameters(chains)
    res = placer.place(K)
    err = float(np.abs(res.F - F).max())
    ok = err <= 1e-8 * (1.0 + fro_norm(F))
    fields = [
        ("command", "recover"),
        ("system", sf.name),
        ("status", "ok" if ok else "failed"),
        ("reproduction_error", err),
        # the error a backward-stable round trip may show through cond(V)
        ("reproduction_floor",
         res.cond_V * np.finfo(float).eps * (1.0 + fro_norm(F))),
    ] + _metrics_fields(res, placement_metrics(sys, spec, res, tol))
    matrices = [("F", F), ("F_reproduced", res.F)]
    matrices += [(f"K_{i}", blk) for i, blk in enumerate(K.blocks)]
    return _report(args, fields, matrices, ok)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except PolePlaceError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                return code
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
