import csv
import io
import json

import numpy as np
import pytest

import poleplace as pp
from poleplace.bench import (
    builtin_systems,
    defective_zero_structure,
    load_corpus,
    run_bench,
)
from poleplace.report import render_csv, render_markdown


def small_opts():
    return pp.OptOptions(restarts=2, max_iters=40, seed=0)


class TestDefectiveZeroStructure:
    def test_blocks_equal_indices(self):
        sys = builtin_systems()[1].system  # chain_3x2
        spec = defective_zero_structure(sys)
        assert spec.eigenvalues == (0.0,)
        assert spec.block_orders == ((2, 1),)
        assert pp.check_admissible(spec, sys).satisfied


class TestLoadCorpus:
    def test_missing_or_empty_directory_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("no entries here")
        for corpus in (tmp_path / "no_such_dir", tmp_path):
            with pytest.raises(pp.ParseError, match=str(corpus)):
                load_corpus(corpus)


class TestRunBench:
    def test_builtin_corpus_two_rows(self):
        rows = run_bench(builtin_systems(), opts=small_opts())
        assert len(rows) == 2
        assert all(row.ok for row in rows)
        assert [row.example for row in rows] == ["chain_3x2", "double_integrator"]

    def test_failed_entry_recorded_not_raised(self, tmp_path):
        good = {
            "name": "ok",
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[0.0], [1.0]],
        }
        bad = {
            "name": "impossible",
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[0.0], [1.0]],
            "structure": [{"re": 0.0, "im": 0.0, "blocks": [1, 1]}],
        }
        for name, payload in (("a_ok.json", good), ("b_bad.json", bad)):
            (tmp_path / name).write_text(json.dumps(payload))
        rows = run_bench(load_corpus(tmp_path), opts=small_opts())
        assert len(rows) == 2
        by_name = {row.example: row for row in rows}
        assert by_name["ok"].ok
        assert not by_name["impossible"].ok
        assert np.isnan(by_name["impossible"].kappa_fro)

    def test_markdown_and_csv_same_payload(self):
        rows = run_bench(builtin_systems(), opts=small_opts())
        md = render_markdown(rows)
        md_rows = [
            [c.strip() for c in line.strip("|").split("|")]
            for line in md.strip().splitlines()[2:]
        ]
        csv_rows = list(csv.reader(io.StringIO(render_csv(rows))))[1:]
        assert len(md_rows) == len(csv_rows) == len(rows)
        for md_row, csv_row in zip(md_rows, csv_rows):
            for md_cell, csv_cell in zip(md_row, csv_row):
                try:
                    full = float(csv_cell)
                except ValueError:
                    assert md_cell == csv_cell
                    continue
                assert md_cell == f"{full:.4g}"

    def test_csv_bit_stable_for_fixed_seed(self):
        rows1 = run_bench(builtin_systems(), opts=small_opts())
        rows2 = run_bench(builtin_systems(), opts=small_opts())

        def strip_runtime(text):
            parsed = list(csv.reader(io.StringIO(text)))
            return [row[:6] + row[7:] for row in parsed]

        # all payload columns except wall-clock runtime are bit-stable
        assert strip_runtime(render_csv(rows1)) == strip_runtime(render_csv(rows2))


class TestObservabilityColumns:
    def test_evals_and_converged_match_the_optimizer(self):
        entries = sorted(builtin_systems(), key=lambda e: e.name)
        rows = run_bench(entries, opts=small_opts())
        for entry, row in zip(entries, rows):
            spec = defective_zero_structure(entry.system)
            result = pp.minimize(pp.ObjectiveSpec("condition", 1.0),
                                 entry.system, spec, small_opts())
            assert row.evals == sum(result.evaluations) > 0
            assert row.converged == sum(
                t in ("grad_tol", "roundoff") for t in result.terminations
            )
            assert 0 <= row.converged <= small_opts().restarts

    def test_columns_follow_runtime_and_blank_on_failure(self, tmp_path):
        good = {"name": "ok", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}
        bad = dict(good, name="impossible",
                   structure=[{"re": 0.0, "im": 0.0, "blocks": [1, 1]}])
        for name, payload in (("a_ok.json", good), ("b_bad.json", bad)):
            (tmp_path / name).write_text(json.dumps(payload))
        rows = run_bench(load_corpus(tmp_path), opts=small_opts())
        header, *body = csv.reader(io.StringIO(render_csv(rows)))
        assert header[6:9] == ["runtime_s", "evals", "converged"]
        by_name = {cells[0]: dict(zip(header, cells)) for cells in body}
        ok, failed = by_name["ok"], by_name["impossible"]
        ok_row = next(row for row in rows if row.ok)
        assert ok["evals"] == str(ok_row.evals)
        assert ok["converged"] == str(ok_row.converged)
        assert failed["evals"] == failed["converged"] == ""
        md_rows = [
            [c.strip() for c in line.strip("|").split("|")]
            for line in render_markdown(rows).strip().splitlines()[2:]
        ]
        md_by_name = {cells[0]: cells for cells in md_rows}
        assert md_by_name["ok"][7:9] == [ok["evals"], ok["converged"]]
        assert md_by_name["impossible"][7:9] == ["", ""]
