import json

import numpy as np
import pytest

import poleplace as pp
from poleplace.sysfile import (
    load_feedback,
    load_parameter,
    load_structure,
    load_system,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "name": "di",
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0], [1.0]],
}


class TestLoadSystem:
    def test_valid_with_structure(self, tmp_path):
        payload = dict(BASE)
        payload["structure"] = [
            {"re": -1.0, "im": 0.0, "blocks": [1]},
            {"re": -2.0, "im": 0.0, "blocks": [1]},
        ]
        sf = load_system(write(tmp_path, "di.json", payload))
        assert sf.name == "di"
        assert sf.system.n == 2 and sf.system.m == 1
        assert sf.structure.eigenvalues == (-2.0, -1.0)

    def test_conjugate_auto_completed(self, tmp_path):
        payload = dict(BASE)
        payload["structure"] = [{"re": 1.0, "im": 1.0, "blocks": [1]}]
        sf = load_system(write(tmp_path, "c.json", payload))
        assert sf.structure.sigma == 1
        assert sf.structure.eigenvalues == (1 + 1j, 1 - 1j)

    def test_multiplicity_sum_rejected(self, tmp_path):
        payload = dict(BASE)
        payload["structure"] = [{"re": 0.0, "im": 0.0, "blocks": [3]}]
        with pytest.raises(pp.ParseError, match="multiplicities sum"):
            load_system(write(tmp_path, "bad.json", payload))

    def test_missing_field(self, tmp_path):
        with pytest.raises(pp.ParseError, match="'B'"):
            load_system(write(tmp_path, "nob.json", {"name": "x", "A": [[1.0]]}))

    def test_invalid_json_line_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  A: oops\n}')
        with pytest.raises(pp.ParseError, match="line 2"):
            load_system(path)

    def test_rank_deficient_B_rejected(self, tmp_path):
        payload = {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 1.0], [1.0, 1.0]]}
        with pytest.raises(pp.ParseError, match="full column rank"):
            load_system(write(tmp_path, "rank.json", payload))

    def test_baseline_passthrough(self, tmp_path):
        payload = dict(BASE)
        payload["baseline"] = {"kappa_fro": 16.73, "gain_fro": 3.102, "source": "x"}
        sf = load_system(write(tmp_path, "b.json", payload))
        assert sf.baseline["kappa_fro"] == 16.73

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_eigenvalue_rejected(self, tmp_path, part, bad):
        payload = dict(BASE)
        record = {"re": -1.0, "im": 0.0, "blocks": [1]}
        record[part] = bad
        payload["structure"] = [record, {"re": -2.0, "im": 0.0, "blocks": [1]}]
        with pytest.raises(pp.ParseError, match="non-finite"):
            load_system(write(tmp_path, "nan.json", payload))


class TestLoadStructure:
    def test_bare_list(self, tmp_path):
        path = write(tmp_path, "s.json", [{"re": 0.0, "im": 0.0, "blocks": [2, 1]}])
        spec = load_structure(path, 3)
        assert spec.block_orders == ((2, 1),)

    def test_wrapped_object(self, tmp_path):
        path = write(
            tmp_path, "s.json", {"structure": [{"re": -1.0, "blocks": [1]}]}
        )
        spec = load_structure(path, 1)
        assert spec.eigenvalues == (-1.0,)


class TestLoadParameter:
    def test_round_trip(self, tmp_path):
        spec = pp.EigStructure((1j, -1j, -2.0), ((1,), (1,), (2,)))
        ordered, _ = pp.normalize_ordering(spec)
        rng = np.random.default_rng(60)
        K = pp.ParameterMatrix.random(ordered, 2, rng)
        payload = {
            "blocks": [
                {"re": blk.real.tolist(), "im": blk.imag.tolist()}
                if np.iscomplexobj(blk)
                else {"re": np.asarray(blk, dtype=float).tolist()}
                for blk in K.blocks
            ]
        }
        loaded = load_parameter(write(tmp_path, "k.json", payload), ordered, 2)
        for a, b in zip(K.blocks, loaded.blocks):
            assert np.abs(a - b).max() == 0.0

    def test_shape_mismatch(self, tmp_path):
        spec = pp.EigStructure((-1.0,), ((2,),))
        payload = {"blocks": [{"re": [[1.0]]}]}
        with pytest.raises(pp.ParseError, match="shape"):
            load_parameter(write(tmp_path, "k.json", payload), spec, 1)

    @pytest.mark.parametrize(
        "block",
        [{"re": [[float("nan")]], "im": [[2.0]]},
         {"re": [[1.0]], "im": [[float("inf")]]}],
    )
    def test_non_finite_rejected(self, tmp_path, block):
        spec = pp.EigStructure((1j, -1j), ((1,), (1,)))
        payload = {"blocks": [block, {"re": [[1.0]], "im": [[-2.0]]}]}
        with pytest.raises(pp.ParseError, match="non-finite"):
            load_parameter(write(tmp_path, "k.json", payload), spec, 1)

    def test_conjugate_violation(self, tmp_path):
        spec = pp.EigStructure((1j, -1j), ((1,), (1,)))
        payload = {
            "blocks": [
                {"re": [[1.0]], "im": [[2.0]]},
                {"re": [[1.0]], "im": [[2.0]]},
            ]
        }
        with pytest.raises(pp.ParseError, match="conjugate"):
            load_parameter(write(tmp_path, "k.json", payload), spec, 1)


class TestLoadFeedback:
    def test_valid(self, tmp_path):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        F = load_feedback(
            write(tmp_path, "f.json", {"F": [[-2.0, -3.0]]}), sys
        )
        assert F.shape == (1, 2)

    def test_shape_rejected(self, tmp_path):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(pp.ParseError, match="shape"):
            load_feedback(write(tmp_path, "f.json", {"F": [[1.0]]}), sys)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, tmp_path, bad):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(pp.ParseError, match="non-finite"):
            load_feedback(write(tmp_path, "f.json", {"F": [[bad, -3.0]]}), sys)


class TestMalformedFiles:
    """Every input check of the file readers, one malformed file each."""

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(pp.ParseError, match="cannot read"):
            load_system(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "A, match",
        [([["a", "b"], ["c", "d"]], "'A' is not a numeric matrix"),
         ([[0.0, 1.0], [0.0]], "'A' is not a numeric matrix"),
         ([0.0, 1.0], "'A' must be a list of rows"),
         # numpy would read true as 1.0 and "1" as 1.0
         ([[0.0, True], [0.0, 0.0]], "'A' has entries that are not numbers"),
         ([[False, 1.0], [0.0, 0.0]], "'A' has entries that are not numbers"),
         ([[0.0, "1"], [0.0, "-0.5"]], "'A' has entries that are not numbers"),
         # a JSON number, but no float holds it
         ([[0, 10**400], [0, 0]], "'A' is not a numeric matrix")],
    )
    def test_matrix_field_rejected(self, tmp_path, A, match):
        payload = dict(BASE, A=A)
        with pytest.raises(pp.ParseError, match=match):
            load_system(write(tmp_path, "a.json", payload))

    @pytest.mark.parametrize(
        "structure, match",
        [([], "'structure' must be a non-empty list"),
         ({"re": -1.0, "blocks": [2]}, "'structure' must be a non-empty list"),
         ([[-1.0, [2]]], "structure record 0 must be an object"),
         ([{"re": -1.0}], "structure record 0 malformed"),
         ([{"re": "x", "blocks": [2]}], "structure record 0 malformed"),
         ([{"re": -1.0, "blocks": [1]}, {"re": -2.0, "blocks": ["one"]}],
          "invalid structure: block order 'one' is not an integer"),
         ([{"re": -1.0, "blocks": "21"}], "block order '2' is not an integer"),
         ([{"re": -1.0, "blocks": [2.7, 1]}], "block order 2.7 is not an integer"),
         ([{"re": -1.0, "blocks": [True, True]}],
          "block order True is not an integer"),
         ([{"re": -1.0, "blocks": 2}], "structure record 0 malformed"),
         ([{"re": True, "blocks": [2]}], "'re' and 'im' must be numbers"),
         ([{"re": "-1", "blocks": [2]}], "'re' and 'im' must be numbers"),
         ([{"re": -1.0, "im": False, "blocks": [2]}], "'re' and 'im' must be numbers"),
         ([{"re": -1.0, "im": "0", "blocks": [2]}], "'re' and 'im' must be numbers"),
         ([{"re": 10**400, "blocks": [2]}], "structure record 0 malformed"),
         # "re" and "blocks" are required, and no other key than "im" is read
         ([{"re": -1.0}], "structure record 0 malformed: missing 'blocks'"),
         ([{"blocks": [2]}], "structure record 0 malformed: missing 're'"),
         ([{"im": 1.0, "blocks": [2]}], "structure record 0 malformed: missing 're'"),
         ([{"Re": -1.0, "blocks": [2]}],
          "structure record 0 malformed: missing 're', unknown key 'Re'"),
         ([{"re": -1.0, "blocks": [1]}, {"re": -2.0, "im": 0.0, "blocks": [1],
                                         "kind": "real"}],
          "structure record 1 malformed: unknown key 'kind'"),
         ([{"re": -1.0, "IM": 1.0, "blocks": [1]}],
          "structure record 0 malformed: unknown key 'IM'")],
    )
    def test_structure_records_rejected(self, tmp_path, structure, match):
        payload = dict(BASE, structure=structure)
        with pytest.raises(pp.ParseError, match=match):
            load_system(write(tmp_path, "s.json", payload))

    @pytest.mark.parametrize("bad", [True, "1"])
    def test_feedback_entry_not_a_number_rejected(self, tmp_path, bad):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(pp.ParseError, match="'F' has entries that are not numbers"):
            load_feedback(write(tmp_path, "f.json", {"F": [[bad, -3.0]]}), sys)

    def test_integer_entries_accepted(self, tmp_path):
        payload = dict(BASE, A=[[0, 1], [0, 0]], B=[[0], [1]],
                       structure=[{"re": -1, "im": 0, "blocks": [2]}])
        sf = load_system(write(tmp_path, "ints.json", payload))
        assert np.array_equal(sf.system.A, [[0.0, 1.0], [0.0, 0.0]])
        assert sf.structure.eigenvalues == (-1.0,)

    def test_top_level_not_an_object(self, tmp_path):
        with pytest.raises(pp.ParseError, match="top level must be an object"):
            load_system(write(tmp_path, "list.json", [BASE]))

    def test_baseline_not_an_object(self, tmp_path):
        payload = dict(BASE, baseline=[16.73])
        with pytest.raises(pp.ParseError, match="'baseline' must be an object"):
            load_system(write(tmp_path, "b.json", payload))

    @pytest.mark.parametrize(
        "payload, match",
        [([{"re": [[1.0]]}], "expected object with a 'blocks' list"),
         ({"blocks": {"re": [[1.0]]}}, "expected object with a 'blocks' list"),
         ({"blocks": [{"re": [[1.0]]}, {"re": [[2.0]]}]},
          "2 blocks given, structure has 1 eigenvalues"),
         ({"blocks": [[[1.0]]]}, "block 0 must be an object with 're'"),
         ({"blocks": [{"im": [[1.0]]}]}, "block 0 must be an object with 're'"),
         ({"blocks": [{"re": [[True]]}]},
          r"'blocks\[0\]\.re' has entries that are not numbers"),
         ({"blocks": [{"re": [[1.0]], "im": [["0"]]}]},
          r"'blocks\[0\]\.im' has entries that are not numbers")],
    )
    def test_parameter_file_rejected(self, tmp_path, payload, match):
        spec = pp.EigStructure((-1.0,), ((1,),))
        with pytest.raises(pp.ParseError, match=match):
            load_parameter(write(tmp_path, "k.json", payload), spec, 1)

    @pytest.mark.parametrize("payload", [[[-2.0, -3.0]], {"K": [[-2.0, -3.0]]}])
    def test_feedback_file_rejected(self, tmp_path, payload):
        sys = pp.System(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(pp.ParseError, match="expected object with field 'F'"):
            load_feedback(write(tmp_path, "f.json", payload), sys)
