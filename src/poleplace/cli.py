"""Command-line front end.

Subcommands: check, place, optimize, bench, recover.  Exit codes: 0 success,
1 parse or usage error (out-of-range flag values and non-finite file entries
included), 2 inadmissible structure, 3 unreachable pair, 4 singular or failed
numerics.  All commands are deterministic for a fixed --seed.
"""

import argparse
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

# exception type -> exit code, first match wins; any other PolePlaceError
# (parse and structure errors included) is a usage error
_EXIT_CODES = (
    (NotReachableError, EXIT_UNREACHABLE),
    ((SingularMatrixError, ChainConsistencyError), EXIT_SINGULAR),
)

_PLACE_DRAWS = 20


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="poleplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=False):
        p.add_argument("--system", required=True, help="system file (JSON)")
        p.add_argument(
            "--spec",
            required=spec_required,
            help="structure file; defaults to the system file's structure",
        )
        p.add_argument("--tol", type=float, default=1e-8,
                       help="residual tolerance (default 1e-8)")
        p.add_argument("--out", help="write the report here instead of stdout")

    p_check = sub.add_parser("check", help="Rosenbrock admissibility check")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_place = sub.add_parser("place", help="place once with a random or given K")
    common(p_place)
    p_place.add_argument("--seed", type=int, default=0)
    p_place.add_argument("--k-file", help="parameter matrix file (JSON)")
    p_place.set_defaults(func=cmd_place)

    p_opt = sub.add_parser("optimize", help="multi-start optimization over K")
    common(p_opt)
    p_opt.add_argument("--method", choices=("condition", "normality"),
                       default="condition")
    p_opt.add_argument("--alpha", type=float, default=1.0)
    p_opt.add_argument("--restarts", type=int, default=10)
    p_opt.add_argument("--max-iters", type=int, default=500)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = sub.add_parser("bench", help="run the benchmark corpus")
    p_bench.add_argument("--corpus", help="directory of system files; "
                         "defaults to the built-in synthetic systems")
    p_bench.add_argument("--method", choices=("condition", "normality"),
                         default="condition")
    p_bench.add_argument("--alpha", type=float, default=1.0)
    p_bench.add_argument("--restarts", type=int, default=10)
    p_bench.add_argument("--max-iters", type=int, default=500)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--tol", type=float, default=1e-8)
    p_bench.add_argument("--format", choices=("md", "csv"), default="md")
    p_bench.add_argument("--out", help="write the table here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_rec = sub.add_parser(
        "recover",
        help="recover the parameter matrix reproducing a given feedback "
        "(simple spectra only)",
    )
    common(p_rec, spec_required=False)
    p_rec.add_argument("--feedback", required=True,
                       help='feedback file: {"F": [[...]]}')
    p_rec.set_defaults(func=cmd_recover)

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


def _metrics_fields(res, metrics):
    return [("residual", res.residual), ("cond_V", res.cond_V), *metrics.items()]


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
    sf, spec = _load_inputs(args)
    sys = sf.system
    report = check_admissible(spec, sys, tol)
    if not report.satisfied:
        _sys.stderr.write(f"inadmissible structure: {report.message}\n")
        return EXIT_INADMISSIBLE
    placer = Placer(sys, spec, tol)

    if args.k_file:
        K = load_parameter(args.k_file, spec, sys.m)
        res = placer.place(K)  # SingularMatrixError propagates -> exit 4
        source = ("k_file", args.k_file)
    else:
        rng = np.random.default_rng(args.seed)
        res = None
        for _ in range(_PLACE_DRAWS):
            try:
                res = placer.place(ParameterMatrix.random(spec, sys.m, rng))
                break
            except SingularMatrixError:
                continue
        if res is None:
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
    _emit(render_report(fields, [("F", res.F), ("V", res.V), ("X", res.X)]),
          args.out)
    return EXIT_OK if ok else EXIT_SINGULAR


def cmd_optimize(args):
    tol, obj, opts = _options(args)
    sf, spec = _load_inputs(args)
    sys = sf.system
    report = check_admissible(spec, sys, tol)
    if not report.satisfied:
        _sys.stderr.write(f"inadmissible structure: {report.message}\n")
        return EXIT_INADMISSIBLE
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
        fields.append((f"restart_{i}_final", final))
        # a singular_start restart has the empty trace: 0 steps
        fields.append((f"restart_{i}_steps", max(len(trace) - 1, 0)))
        fields.append((f"restart_{i}_termination", termination))
        fields.append((f"restart_{i}_evals", evals))
    fields += _metrics_fields(res, result.metrics)
    _emit(render_report(fields, [("F", res.F)]), args.out)
    return EXIT_OK if ok else EXIT_SINGULAR


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
    for i, blk in enumerate(K.blocks):
        matrices.append((f"K_{i}", blk))
    _emit(render_report(fields, matrices), args.out)
    return EXIT_OK if ok else EXIT_SINGULAR


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
