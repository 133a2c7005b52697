import json
from dataclasses import replace

import numpy as np
import pytest

from ncgeo import convert
from ncgeo.cli import main
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.io import (
    data_to_matrix,
    dict_to_triple,
    load_triple,
    matrix_to_data,
    save_triple,
    triple_to_dict,
)
from ncgeo.linalg import random_unitary
from ncgeo.triples import SpectralTripleData


@pytest.fixture()
def mgeom_file(tmp_path):
    path = tmp_path / "mgeom.striple"
    save_triple(path, matrix_geometry(2, seed=7))
    return str(path)


class TestSerialization:
    @pytest.mark.parametrize("builder", [
        lambda: trivial_points(3),
        lambda: two_point(0.5 + 0.25j),
        lambda: matrix_geometry(2, seed=3),
    ])
    def test_round_trip_exact(self, tmp_path, builder):
        t = builder()
        path = tmp_path / "t.striple"
        save_triple(path, t)
        back, _ = load_triple(path)
        assert back.hilbert_dim == t.hilbert_dim
        assert back.declared_p == t.declared_p
        # float JSON repr round-trips binary64 exactly
        assert np.array_equal(back.dirac, t.dirac)
        for a, b in zip(back.algebra_gens, t.algebra_gens):
            assert np.array_equal(a, b)
        if t.orientation_cycle is not None:
            assert back.orientation_cycle.degree == t.orientation_cycle.degree
            assert back.orientation_cycle.generalized == t.orientation_cycle.generalized

    @pytest.mark.parametrize("builder", [
        lambda: two_point(0.5 + 0.25j),
        lambda: matrix_geometry(2, seed=3),
    ])
    def test_saved_bytes_match_streamed_json(self, tmp_path, builder):
        t = builder()
        extra = {"note": "x", "values": [0.1, -2.5e-17, 3]}
        path = tmp_path / "t.striple"
        save_triple(path, t, extra)
        doc = triple_to_dict(t)
        doc.update(extra)
        streamed = tmp_path / "streamed.striple"
        with open(streamed, "w") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == streamed.read_bytes()

    def test_matrix_encoding(self):
        m = np.array([[1.5 + 2.5j, -0.25], [0.0, 1e-17j]])
        assert np.array_equal(data_to_matrix(matrix_to_data(m)), m)

    def test_malformed_raises(self, tmp_path):
        from ncgeo.io import FormatError
        path = tmp_path / "bad.striple"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_triple(path)
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(FormatError):
            load_triple(path)


class TestCheckCommand:
    def test_matrix_geometry_generalized_passes(self, mgeom_file):
        assert main(["--generalized-orientation", "check", mgeom_file]) == 0

    def test_matrix_geometry_strict_fails(self, mgeom_file):
        assert main(["--strict-orientation", "check", mgeom_file]) == 1

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.striple"
        bad.write_text("not json at all")
        assert main(["check", str(bad)]) == 2

    @staticmethod
    def _write_doc(tmp_path, edit):
        doc = triple_to_dict(two_point(1.0))
        edit(doc)
        path = tmp_path / "edited.striple"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["dirac"][0].pop(), id="ragged_rows"),
        pytest.param(lambda doc: doc["dirac"][0][1].__setitem__(0, float("nan")), id="nan_entry"),
        pytest.param(lambda doc: doc["algebra"]["generators"][0][1][1].__setitem__(1, float("inf")),
                     id="inf_entry"),
        pytest.param(lambda doc: doc.__setitem__("hilbert_dim", 3), id="hilbert_dim_mismatch"),
        pytest.param(lambda doc: doc.__setitem__("p", "x"), id="p_string"),
        pytest.param(lambda doc: doc.__setitem__("p", [1]), id="p_list"),
        pytest.param(lambda doc: doc.__setitem__("p", 1.5), id="p_float"),
        pytest.param(lambda doc: doc.__setitem__("p", -1), id="p_negative"),
    ])
    def test_unparseable_input_exit_two(self, tmp_path, capsys, edit):
        path = self._write_doc(tmp_path, edit)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_hermitian_dirac_reports_failure(self, tmp_path, capsys):
        def skew(doc):
            doc["dirac"][0][1] = [1.0, 0.0]
            doc["dirac"][1][0] = [-1.0, 0.0]
        path = self._write_doc(tmp_path, skew)
        assert main(["--format", "json", "check", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        entries = {e["condition_id"]: e["status"] for e in doc["report"]["entries"]}
        assert entries["validate:dirac_hermitian"] == "fail"

    def test_grading_not_involution_reports_failure(self, tmp_path, capsys):
        def scale_grading(doc):
            doc["grading"] = matrix_to_data(np.diag([2.0, -1.0]))
        path = self._write_doc(tmp_path, scale_grading)
        assert main(["--format", "json", "check", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        entries = {e["condition_id"]: e["status"] for e in json.loads(captured.out)["report"]["entries"]}
        assert entries["validate:grading_involution"] == "fail"
        assert entries["suite"] == "skipped"
        assert not any(cid.startswith("finite:") for cid in entries)

    def test_grading_not_preserving_algebra_reports_failure(self, tmp_path, capsys):
        # a Hermitian involution in general position: conjugation by it moves
        # the commutator algebra off itself
        t = matrix_geometry(2, seed=7)
        u = random_unitary(np.random.default_rng(0), 8)
        t.grading = u @ np.diag([1.0, 1, 1, 1, -1, -1, -1, -1]) @ u.conj().T
        path = str(tmp_path / "rotated_grading.striple")
        save_triple(path, t)
        assert main(["--format", "json", "check", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        entries = {e["condition_id"]: e["status"] for e in json.loads(captured.out)["report"]["entries"]}
        assert entries["validate:grading_involution"] == "pass"
        assert entries["validate:grading_splits_cda"] == "fail"
        assert entries["suite"] == "skipped"
        assert not any(cid.startswith("finite:") for cid in entries)

    def test_deterministic_output(self, mgeom_file, capsys):
        main(["--format", "json", "--generalized-orientation", "check", mgeom_file])
        out1 = capsys.readouterr().out
        main(["--format", "json", "--generalized-orientation", "check", mgeom_file])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_text_and_json_have_same_content(self, mgeom_file, capsys):
        main(["--format", "json", "--generalized-orientation", "check", mgeom_file])
        jdoc = json.loads(capsys.readouterr().out)
        main(["--format", "text", "--generalized-orientation", "check", mgeom_file])
        text = capsys.readouterr().out
        for entry in jdoc["report"]["entries"]:
            assert entry["condition_id"] in text


class TestExampleCommand:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "points.striple"
        assert main(["example", "trivial_points", "--n", "4", "-o", str(out)]) == 0
        t, _ = load_triple(out)
        assert t.hilbert_dim == 4

    def test_two_point_runs_suite(self, tmp_path):
        out = tmp_path / "tp.striple"
        main(["example", "two_point", "-o", str(out)])
        # two-point fails the spin^c entry, so the full check exits 1
        assert main(["check", str(out)]) == 1


class TestConvertCommand:
    def test_forward_and_back(self, tmp_path, capsys):
        src = tmp_path / "m.striple"
        save_triple(src, matrix_geometry(2, seed=7))
        riem = tmp_path / "m.riem"
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        tri, doc = load_triple(riem)
        assert doc.get("witness") is not None and doc.get("source") is not None
        back = tmp_path / "m.back"
        assert main(["convert", "to-spinc", str(riem), "-o", str(back)]) == 0
        out = capsys.readouterr().out
        assert "roundtrip:intertwine:dirac_residual" in out

    def test_two_point_prerequisite_failure(self, tmp_path, capsys):
        src = tmp_path / "tp.striple"
        save_triple(src, two_point(1.0))
        assert main(["convert", "to-riemannian", str(src)]) == 1
        err = capsys.readouterr().err
        assert "prerequisite" in err

    def test_to_spinc_builds_one_backward_assembly(self, tmp_path, monkeypatch):
        src = tmp_path / "m.striple"
        save_triple(src, matrix_geometry(2, seed=7))
        riem = tmp_path / "m.riem"
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        calls = []
        build = convert._backward_assembly

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(convert, "_backward_assembly", counted)
        assert main(["convert", "to-spinc", str(riem), "-o", str(tmp_path / "m.back")]) == 0
        assert len(calls) == 1

    def test_to_spinc_needs_bundle(self, tmp_path, capsys):
        src = tmp_path / "m.striple"
        save_triple(src, matrix_geometry(2, seed=7))
        assert main(["convert", "to-spinc", str(src)]) == 1

    @staticmethod
    def _bundle_doc(edit):
        """A to-spinc input with well-encoded bundle fields, then edited."""
        t = two_point(1.0)
        doc = triple_to_dict(t)
        eye = matrix_to_data(np.eye(t.hilbert_dim))
        doc["witness"] = {"c_basis_src": [eye], "c_basis_out": [eye]}
        doc["source"] = triple_to_dict(t)
        edit(doc)
        return doc

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc.__setitem__("witness", [1, 2]), id="witness_list"),
        pytest.param(lambda doc: doc.__setitem__("source", [1, 2]), id="source_list"),
        pytest.param(lambda doc: doc["source"].pop("dirac"), id="source_without_dirac"),
        pytest.param(lambda doc: doc["witness"].__setitem__("c_basis_src", "x"),
                     id="c_basis_src_string"),
    ])
    def test_to_spinc_malformed_bundle_exit_two(self, tmp_path, capsys, edit):
        path = tmp_path / "bundle.riem"
        path.write_text(json.dumps(self._bundle_doc(edit)))
        assert main(["convert", "to-spinc", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_to_spinc_failing_bundle_exit_one(self, tmp_path, capsys):
        # a well-encoded bundle whose conversion fails is not a parse error
        path = tmp_path / "bundle.riem"
        path.write_text(json.dumps(self._bundle_doc(lambda doc: None)))
        assert main(["convert", "to-spinc", str(path)]) == 1
        assert "prerequisite" in capsys.readouterr().err

    def test_to_riemannian_odd_input_exit_one(self, tmp_path, capsys):
        src = tmp_path / "odd.striple"
        save_triple(src, replace(matrix_geometry(2, seed=7), declared_p=1))
        assert main(["convert", "to-riemannian", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "double_odd_triple" in err


class TestOtherCommands:
    def test_double_and_homotopy(self, tmp_path):
        src = tmp_path / "odd.striple"
        t = two_point(1.0)
        from ncgeo.triples import SpectralTripleData
        save_triple(src, SpectralTripleData(2, t.algebra_gens, t.dirac))
        doubled = tmp_path / "even.striple"
        assert main(["double", str(src), "-o", str(doubled)]) == 0
        t2, _ = load_triple(doubled)
        assert t2.hilbert_dim == 4 and t2.grading is not None
        assert main(["homotopy-check", str(src)]) == 0

    def test_double_rejects_graded(self, tmp_path):
        src = tmp_path / "graded.striple"
        save_triple(src, two_point(1.0))
        assert main(["double", str(src)]) == 1

    def test_zeta(self, tmp_path, capsys):
        src = tmp_path / "points.striple"
        save_triple(src, trivial_points(5))
        assert main(["--format", "json", "zeta", str(src), "-s", "0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zeta"]["0.0"] == pytest.approx(5.0)

    def test_zeta_non_hermitian_dirac(self, tmp_path, capsys):
        t = two_point(1.0)
        src = tmp_path / "skew.striple"
        save_triple(src, SpectralTripleData(2, t.algebra_gens, np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                            t.grading))
        assert main(["zeta", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pair(self, tmp_path, capsys):
        from ncgeo.convert import spinc_to_riemannian
        res = spinc_to_riemannian(trivial_points(3))
        src = tmp_path / "riem.striple"
        save_triple(src, res.output)
        projs = tmp_path / "projs.json"
        eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        minimal = []
        for k in range(3):
            m = [[[0.0, 0.0]] * 3 for _ in range(3)]
            m[k][k] = [1.0, 0.0]
            minimal.append(m)
        projs.write_text(json.dumps({"left": minimal, "right": minimal}))
        assert main(["--format", "json", "pair", str(src), "--projectors", str(projs)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unimodular"] is True

    def test_product(self, tmp_path, capsys):
        t = matrix_geometry(2, seed=4)
        src = tmp_path / "m.striple"
        save_triple(src, t)
        n = 1
        module = {
            "size": n,
            "projector": matrix_to_data(np.eye(n * t.hilbert_dim)),
            "potential": None,
        }
        mpath = tmp_path / "mod.json"
        mpath.write_text(json.dumps(module))
        out = tmp_path / "prod.striple"
        assert main(["product", str(src), "--module", str(mpath), "-o", str(out)]) == 0
        t2, _ = load_triple(out)
        assert t2.hilbert_dim == t.hilbert_dim


class TestParseErrors:
    """Option values that no run could use exit 2 at parse."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["homotopy-check", "--samples", "0"], id="zero_samples"),
        pytest.param(["homotopy-check", "--samples", "-1"], id="negative_samples"),
        pytest.param(["zeta", "-s", "nan"], id="nan_s"),
        pytest.param(["zeta", "-s", "1", "inf"], id="inf_s"),
        pytest.param(["zeta", "-s", "-inf"], id="minus_inf_s"),
    ])
    def test_exit_two(self, tmp_path, capsys, argv):
        src = tmp_path / "t.striple"
        save_triple(src, two_point(1.0))
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", argv[0], str(src)] + argv[1:])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:overflow encountered in power")
def test_every_verb_writes_strict_json(tmp_path, capsys):
    # the information entries of check, convert and product have an infinite
    # tolerance, and zeta at a large negative s overflows; each must still
    # load without the non-JSON constants NaN and Infinity, and text that
    # looks like one stays text
    points = tmp_path / "p: Infinity,"
    save_triple(points, trivial_points(3))
    riem = str(tmp_path / "riem.striple")
    t = two_point(1.0)
    odd = tmp_path / "odd.striple"
    save_triple(odd, SpectralTripleData(2, t.algebra_gens, t.dirac))
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"size": 1, "projector": matrix_to_data(np.eye(3)), "potential": None}))
    projs = tmp_path / "projs.json"
    minimal = [matrix_to_data(np.diag(np.eye(3)[k])) for k in range(3)]
    projs.write_text(json.dumps({"left": minimal, "right": minimal}))
    runs = [
        ["example", "two_point", "-o", str(tmp_path / "tp.striple")],
        ["check", str(points)],
        ["convert", "to-riemannian", str(points), "-o", riem],
        ["convert", "to-spinc", riem, "-o", str(tmp_path / "back.striple")],
        ["product", str(points), "--module", str(mod), "-o", str(tmp_path / "prod.striple")],
        ["double", str(odd), "-o", str(tmp_path / "even.striple")],
        ["homotopy-check", str(odd)],
        ["pair", riem, "--projectors", str(projs)],
        ["zeta", str(tmp_path / "tp.striple"), "-s", "0", "-3000"],
    ]
    seen_infinite = False
    for argv in runs:
        assert main(["--format", "json"] + argv) in (0, 1), argv
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        entries = doc.get("report", {}).get("entries", [])
        seen_infinite |= any(e["tolerance"] == float("inf") for e in entries)
        seen_infinite |= float("inf") in doc.get("zeta", {}).values()
        if argv[0] == "check":
            assert doc["path"] == str(points)
    assert seen_infinite


class TestInputFileErrors:
    """The `product --module` and `pair --projectors` files: one that is not
    a JSON object, lacks a key or holds a bad matrix encoding did not parse
    (exit 2, one error line); a failing check stays exit 1."""

    EYE = matrix_to_data(np.eye(8))
    HALF = matrix_to_data(0.5 * np.eye(8))

    @staticmethod
    def _run(tmp_path, capsys, triple, argv, doc):
        src = tmp_path / "t.striple"
        save_triple(src, triple)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code = main([argv[0], str(src)] + argv[1:] + [str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("doc, expected", [
        pytest.param([1, 2], 2, id="top_level_list"),
        pytest.param({"size": 1}, 2, id="missing_projector"),
        pytest.param({"size": "one", "projector": EYE}, 2, id="size_not_a_number"),
        pytest.param({"size": 1, "projector": [[1.0, 2.0]]}, 2, id="bad_projector_encoding"),
        pytest.param({"size": 1, "projector": EYE, "potential": [[[[1.0]]]]}, 2,
                     id="bad_potential_encoding"),
        pytest.param({"size": 1, "projector": HALF}, 1, id="not_a_projector"),
    ])
    def test_product_module_file(self, tmp_path, capsys, doc, expected):
        argv = ["product", "-o", str(tmp_path / "out.striple"), "--module"]
        code, err = self._run(tmp_path, capsys, matrix_geometry(2, seed=4), argv, doc)
        assert code == expected
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_product_half_projector_names_the_gate(self, tmp_path, capsys):
        argv = ["product", "-o", str(tmp_path / "out.striple"), "--module"]
        doc = {"size": 1, "projector": self.HALF}
        code, err = self._run(tmp_path, capsys, matrix_geometry(2, seed=4), argv, doc)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: ") and "module:idempotent" in err

    @pytest.mark.parametrize("doc, expected", [
        pytest.param([[1.0, 0.0]], 2, id="top_level_list"),
        pytest.param({"left": []}, 2, id="missing_right"),
        pytest.param({"left": [[[1.0]]], "right": []}, 2, id="bad_encoding"),
        pytest.param({"left": [matrix_to_data(0.5 * np.eye(3))],
                      "right": [matrix_to_data(np.eye(3))]}, 1, id="not_a_projector"),
        pytest.param({"left": [], "right": [matrix_to_data(np.eye(3))]}, 1, id="empty_left"),
        pytest.param({"left": [], "right": []}, 1, id="both_empty"),
        pytest.param({"left": [matrix_to_data(np.eye(3))],
                      "right": [matrix_to_data(np.eye(2))]}, 1, id="wrong_shape"),
    ])
    def test_pair_projector_file(self, tmp_path, capsys, doc, expected):
        riem = convert.spinc_to_riemannian(trivial_points(3)).output
        code, err = self._run(tmp_path, capsys, riem, ["pair", "--projectors"], doc)
        assert code == expected
        assert err.startswith("error: ") and err.count("\n") == 1
