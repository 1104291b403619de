import functools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import poleplace as pp
from poleplace import cli, optimize
from poleplace.cli import main
from conftest import split_limit, start_conds

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

DI = {
    "name": "di",
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "structure": [
        {"re": -1.0, "im": 0.0, "blocks": [1]},
        {"re": -2.0, "im": 0.0, "blocks": [1]},
    ],
}

CHAIN = {
    "name": "chain",
    "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "B": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
}

# the double integrator with the pair -1 +- i: F = [-2, -2]
DI_PAIR = {
    "name": "di_pair",
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
    "structure": [{"re": -1.0, "im": 1.0, "blocks": [1]}],
}

UNREACHABLE = {
    "name": "island",
    "A": [[1.0, 0.0], [0.0, 2.0]],
    "B": [[1.0], [0.0]],
    "structure": [
        {"re": -1.0, "im": 0.0, "blocks": [1]},
        {"re": -2.0, "im": 0.0, "blocks": [1]},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_admissible_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        code, out, _ = run(capsys, ["check", "--system", path])
        assert code == 0
        assert "controllability_indices: 2" in out
        assert "admissible: yes" in out

    def test_inadmissible_exit_two(self, tmp_path, capsys):
        payload = dict(CHAIN)
        payload["structure"] = [{"re": 0.0, "im": 0.0, "blocks": [1, 1, 1]}]
        path = write(tmp_path, "c.json", payload)
        code, out, _ = run(capsys, ["check", "--system", path])
        assert code == 2
        assert "admissible: no" in out

    def test_unreachable_exit_three(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", UNREACHABLE)
        code, _, err = run(capsys, ["check", "--system", path])
        assert code == 3
        assert "not reachable" in err

    def test_parse_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, ["check", "--system", str(bad)])
        assert code == 1

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run(capsys, ["check"])  # missing --system
        assert code == 1
        assert "error" in err

    def test_tol_flag_rejected(self, tmp_path, capsys):
        # admissibility reads only the rank threshold, so check takes no --tol
        path = write(tmp_path, "di.json", DI)
        code, out, err = run(capsys, ["check", "--system", path, "--tol", "1e-3"])
        assert code == 1
        assert out == "" and "unrecognized arguments: --tol" in err

    def test_large_norm_pair_reachable(self, tmp_path, capsys):
        # ||A||_2 = 17.9 and ||B||_2 = 5.4: the Krylov matrix has norm 1.3e16,
        # far above B's, and the indices must still read B's own rank
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 16)) * 10 / 4
        B = rng.standard_normal((16, 4))
        structure = [{"re": -float(k), "im": 0.0, "blocks": [1]} for k in range(1, 17)]
        path = write(tmp_path, "big.json", {"name": "big", "A": A.tolist(),
                                            "B": B.tolist(), "structure": structure})
        code, out, _ = run(capsys, ["check", "--system", path])
        assert code == 0
        assert "controllability_indices: 4 4 4 4" in out
        assert "admissible: yes" in out


class TestPlace:
    def test_unique_feedback_reported(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        code, out, _ = run(capsys, ["place", "--system", path, "--seed", "3"])
        assert code == 0
        assert "status: ok" in out
        assert "-2.000000000000e+00 -3.000000000000e+00" in out

    def test_deterministic_reports(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        _, out1, _ = run(capsys, ["place", "--system", path, "--seed", "7"])
        _, out2, _ = run(capsys, ["place", "--system", path, "--seed", "7"])
        assert out1 == out2

    def test_k_file_input(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        k_path = write(tmp_path, "k.json", {"blocks": [{"re": [[0.5]]}, {"re": [[1.5]]}]})
        code, out, _ = run(capsys, ["place", "--system", path, "--k-file", k_path])
        assert code == 0
        assert "k_file:" in out

    def test_k_file_zero_imaginary_part_is_real(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        reports = []
        for blocks in ([{"re": [[0.5]]}, {"re": [[1.5]]}],
                       [{"re": [[0.5]], "im": [[0.0]]}, {"re": [[1.5]], "im": [[0.0]]}]):
            k_path = write(tmp_path, "k.json", {"blocks": blocks})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run(capsys, ["place", "--system", path, "--k-file", k_path])
            assert code == 0
            reports.append(out)
        assert reports[1] == reports[0]
        assert "X.im" not in reports[1]

    def test_inadmissible_exit_two(self, tmp_path, capsys):
        payload = dict(CHAIN)
        payload["structure"] = [{"re": 0.0, "im": 0.0, "blocks": [1, 1, 1]}]
        path = write(tmp_path, "c.json", payload)
        code, _, err = run(capsys, ["place", "--system", path])
        assert code == 2

    def test_no_structure_exit_one(self, tmp_path, capsys):
        payload = {k: v for k, v in DI.items() if k != "structure"}
        path = write(tmp_path, "bare.json", payload)
        code, out, err = run(capsys, ["place", "--system", path])
        assert code == 1
        assert out == ""
        assert "no structure given" in err

    def test_every_draw_singular_exit_four(self, tmp_path, capsys, monkeypatch):
        # cond(V) >= 1 always, so a limit of 0.5 rejects every draw
        path = write(tmp_path, "di.json", DI)
        monkeypatch.setattr(cli, "ToleranceConfig", functools.partial(
            pp.ToleranceConfig, singular_cond_limit=0.5))
        code, out, err = run(capsys, ["place", "--system", path])
        assert code == 4
        assert out == ""
        assert "no nonsingular placement in 20 draws" in err

    def test_complex_pair_report_splits_X(self, tmp_path, capsys):
        path = write(tmp_path, "dp.json", DI_PAIR)
        code, out, _ = run(capsys, ["place", "--system", path, "--seed", "0"])
        assert code == 0
        lines = out.splitlines()
        assert "X:" not in lines
        re_at, im_at = lines.index("X.re:"), lines.index("X.im:")
        assert im_at == re_at + 3  # two rows of X.re between the headers
        X = np.array([[float(v) for v in lines[at + 1 + r].split()]
                      for at in (re_at, im_at) for r in range(2)])
        # the pair's columns are conjugates: Re equal, Im opposite
        assert np.array_equal(X[:2, 0], X[:2, 1])
        assert np.array_equal(X[2:, 0], -X[2:, 1])
        assert np.abs(X[2:]).max() > 0
        f_row = lines[lines.index("F:") + 1]
        assert [float(v) for v in f_row.split()] == pytest.approx([-2.0, -2.0])

    def test_singular_k_file_exit_four(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        k_path = write(tmp_path, "k0.json", {"blocks": [{"re": [[0.0]]}, {"re": [[0.0]]}]})
        code, _, err = run(capsys, ["place", "--system", path, "--k-file", k_path])
        assert code == 4
        assert "singular" in err

    def test_spec_flag_overrides(self, tmp_path, capsys):
        payload = {k: v for k, v in DI.items() if k != "structure"}
        path = write(tmp_path, "bare.json", payload)
        spec_path = write(
            tmp_path, "spec.json", [{"re": 0.0, "im": 0.0, "blocks": [2]}]
        )
        code, out, _ = run(
            capsys, ["place", "--system", path, "--spec", spec_path, "--seed", "1"]
        )
        assert code == 0
        lines = out.splitlines()
        f_row = lines[lines.index("F:") + 1]
        assert all(abs(float(v)) < 1e-12 for v in f_row.split())  # F = 0


class TestOptimize:
    def test_min_gain_single_input(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        code, out, _ = run(
            capsys,
            ["optimize", "--system", path, "--method", "normality", "--alpha", "0",
             "--restarts", "2", "--max-iters", "40", "--seed", "5"],
        )
        assert code == 0
        gain = float(next(l for l in out.splitlines() if l.startswith("gain_fro")).split()[1])
        assert gain == pytest.approx(np.sqrt(13.0), rel=1e-8)

    def test_alpha_weight_monotonicity(self, tmp_path, capsys):
        spec = [{"re": -1.0, "im": 0.0, "blocks": [1]},
                {"re": -2.0, "im": 0.0, "blocks": [1]},
                {"re": -3.0, "im": 0.0, "blocks": [1]}]
        payload = dict(CHAIN)
        payload["structure"] = spec
        path = write(tmp_path, "c.json", payload)

        def metrics(alpha):
            code, out, _ = run(
                capsys,
                ["optimize", "--system", path, "--alpha", alpha,
                 "--restarts", "3", "--max-iters", "120", "--seed", "11"],
            )
            assert code == 0
            lines = dict(
                l.split(": ") for l in out.splitlines() if ": " in l and ":" != l[-1]
            )
            return float(lines["kappa_fro"]), float(lines["gain_fro"])

        kappa_rob, gain_rob = metrics("1")
        kappa_gain, gain_gain = metrics("0")
        assert kappa_rob <= kappa_gain * (1 + 1e-9)
        assert gain_gain <= gain_rob * (1 + 1e-9)

    def test_inadmissible_exit_two(self, tmp_path, capsys):
        payload = dict(CHAIN)
        payload["structure"] = [{"re": 0.0, "im": 0.0, "blocks": [1, 1, 1]}]
        path = write(tmp_path, "c.json", payload)
        code, out, err = run(capsys, ["optimize", "--system", path])
        assert code == 2
        assert out == ""
        assert "inadmissible structure" in err

    def test_restart_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        args = ["optimize", "--system", path, "--restarts", "1", "--seed", "7",
                "--max-iters", "30"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    def test_restart_terminations_reported(self, tmp_path, capsys):
        # the bench's structure for the corpus: all poles at zero, blocks
        # equal to the controllability indices
        spec = write(tmp_path, "s.json", [{"re": 0.0, "im": 0.0, "blocks": [3, 2]}])
        path = str(CORPUS / "bn02_distillation.json")
        code, out, _ = run(
            capsys,
            ["optimize", "--system", path, "--spec", spec, "--restarts", "2"],
        )
        assert code == 0
        fields = [l.split(": ", 1) for l in out.splitlines() if ": " in l]
        keys, values = [k for k, _ in fields], dict(fields)
        for i in range(2):
            at = keys.index(f"restart_{i}_steps")
            assert keys[at + 1:at + 3] == [
                f"restart_{i}_termination", f"restart_{i}_evals"
            ]
            assert values[f"restart_{i}_termination"] in ("grad_tol", "roundoff")
            assert int(values[f"restart_{i}_evals"]) > 0


    def test_singular_start_reported(self, tmp_path, capsys, monkeypatch):
        # one start draw per restart and a singular_cond_limit between the
        # draws' cond(V): the restarts above it report 0 steps
        path = write(tmp_path, "di.json", DI)
        sf = pp.load_system(path)
        conds = start_conds(pp.Placer(sf.system, sf.structure), 2, 6)
        limit = split_limit(conds)
        monkeypatch.setattr(optimize, "_RESAMPLE_LIMIT", 1)
        monkeypatch.setattr(cli, "ToleranceConfig", functools.partial(
            pp.ToleranceConfig, singular_cond_limit=limit))
        code, out, _ = run(
            capsys,
            ["optimize", "--system", path, "--restarts", "6", "--seed", "2",
             "--max-iters", "30"],
        )
        assert code == 0
        values = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
        for i, cond in enumerate(conds):
            singular = cond > limit
            assert (values[f"restart_{i}_termination"] == "singular_start") == singular
            if singular:
                assert values[f"restart_{i}_steps"] == "0"
                assert values[f"restart_{i}_evals"] == "1"
                assert values[f"restart_{i}_final"] == "inf"


class TestBench:
    def test_builtin_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["bench", "--restarts", "2", "--max-iters", "40", "--seed", "1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert "double_integrator" in out and "chain_3x2" in out
        assert "| ok |" in out

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys,
            ["bench", "--restarts", "2", "--max-iters", "40", "--seed", "1",
             "--format", "csv", "--out", str(out_path)],
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("example,method,")
        assert len(text.strip().splitlines()) == 3

    @pytest.mark.parametrize("make", ("missing", "empty"))
    def test_corpus_without_entries_is_an_error(self, capsys, tmp_path, make):
        corpus = tmp_path / "corpus"
        if make == "empty":
            corpus.mkdir()
        code, out, err = run(
            capsys, ["bench", "--corpus", str(corpus), "--format", "csv"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(corpus) in err


class TestRecover:
    def test_round_trip_via_cli(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        f_path = write(tmp_path, "f.json", {"F": [[-2.0, -3.0]]})
        code, out, _ = run(
            capsys, ["recover", "--system", path, "--feedback", f_path]
        )
        assert code == 0
        fields = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
        err = float(fields["reproduction_error"])
        assert err < 1e-10
        floor = float(fields["reproduction_floor"])
        cond_V = float(fields["cond_V"])
        assert floor == pytest.approx(cond_V * np.finfo(float).eps * (1 + np.sqrt(13)))

    def test_tol_bounds_reproduction(self, tmp_path, capsys):
        # F = [-2 + 1e-6, -3] misses the spectrum {-1, -2} by ~1e-6: the
        # default tolerance rejects its chains, and --tol 1e-3 accepts them
        # and judges the reproduced [-2, -3] against 1e-3 (1 + ||F||_F)
        path = write(tmp_path, "di.json", DI)
        f_path = write(tmp_path, "f.json", {"F": [[-1.999999, -3.0]]})
        argv = ["recover", "--system", path, "--feedback", f_path]
        code, _, err = run(capsys, argv)
        assert code == 4 and "relation residual" in err
        code, out, _ = run(capsys, argv + ["--tol", "1e-3"])
        assert code == 0
        fields = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
        assert fields["status"] == "ok"
        assert float(fields["reproduction_error"]) == pytest.approx(1e-6, rel=1e-6)

    def test_defective_spec_rejected(self, tmp_path, capsys):
        payload = dict(DI)
        payload["structure"] = [{"re": 0.0, "im": 0.0, "blocks": [2]}]
        path = write(tmp_path, "d.json", payload)
        f_path = write(tmp_path, "f.json", {"F": [[0.0, 0.0]]})
        code, _, err = run(
            capsys, ["recover", "--system", path, "--feedback", f_path]
        )
        assert code == 1
        assert "simple spectrum" in err


class TestBadInputValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--alpha", "2"],
            ["optimize", "--alpha", "nan"],
            ["optimize", "--max-iters", "0"],
            ["bench", "--restarts", "0"],
            ["place", "--tol", "0"],
            ["place", "--tol", "nan"],
            ["place", "--seed", "-1"],
            ["optimize", "--seed", "-1"],
            ["bench", "--seed", "-1"],
            ["place", "--tol", "inf"],
        ],
    )
    def test_out_of_range_flag_exits_one(self, tmp_path, capsys, argv):
        if argv[0] != "bench":
            argv = argv[:1] + ["--system", write(tmp_path, "di.json", DI)] + argv[1:]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "error" in err

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        out = tmp_path / "missing" / "x.txt"
        code, stdout, err = run(capsys, ["check", "--system", path, "--out", str(out)])
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and "cannot write" in err

    def test_non_finite_k_file_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "di.json", DI)
        k_path = write(
            tmp_path, "k.json", {"blocks": [{"re": [[float("nan")]]}, {"re": [[1.5]]}]}
        )
        code, _, err = run(capsys, ["place", "--system", path, "--k-file", k_path])
        assert code == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["check", "place"])
    @pytest.mark.parametrize("where", ["A", "re"])
    def test_entry_that_is_not_a_number_exits_one(self, tmp_path, capsys, command,
                                                  where):
        # true would read as 1.0, and "-1" as -1
        payload = dict(DI)
        if where == "A":
            payload["A"] = [[0, True], [0, 0]]
        else:
            payload["structure"] = [{"re": "-1", "im": 0.0, "blocks": [1]},
                                    {"re": -2.0, "im": 0.0, "blocks": [1]}]
        path = write(tmp_path, "bool.json", payload)
        code, _, err = run(capsys, [command, "--system", path])
        assert code == 1
        assert "numbers" in err

    @pytest.mark.parametrize("command", ["check", "place"])
    def test_non_finite_eigenvalue_exits_one(self, tmp_path, capsys, command):
        payload = dict(DI)
        payload["structure"] = [
            {"re": float("nan"), "im": 0.0, "blocks": [1]},
            {"re": -2.0, "im": 0.0, "blocks": [1]},
        ]
        path = write(tmp_path, "nan.json", payload)
        code, _, err = run(capsys, [command, "--system", path])
        assert code == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["check", "place"])
    @pytest.mark.parametrize("record, fault", [
        ({"Re": -1.0, "blocks": [2]}, "missing 're', unknown key 'Re'"),
        ({"re": -1.0, "block": [2]}, "missing 'blocks', unknown key 'block'"),
        ({"re": -1.0, "im": 0.0, "blocks": [2], "note": "x"}, "unknown key 'note'"),
    ])
    def test_misspelled_record_key_exits_one(self, tmp_path, capsys, command,
                                             record, fault):
        # {"Re": -1.0, "blocks": [2]} once read as a double pole at 0
        path = write(tmp_path, "key.json", dict(DI, structure=[record]))
        code, stdout, err = run(capsys, [command, "--system", path])
        assert code == 1
        assert stdout == ""
        assert "structure record 0 malformed: " + fault in err
