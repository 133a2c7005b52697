import json

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


class TestModuleSerialization:
    def test_round_trip(self):
        from ncgeo.io import dict_to_module, module_to_dict
        from ncgeo.algebra import generate_algebra
        from ncgeo.modules import ProjectiveModule, validate_module
        base = generate_algebra([np.diag([1.0, -1.0]).astype(complex)], with_unit=True)
        q = np.eye(4, dtype=complex)
        r = np.diag([2.0, 1.0, 1.0, 3.0]).astype(complex)
        mod = ProjectiveModule(base, 2, q, r, "right")
        doc = module_to_dict(mod)
        back = dict_to_module(doc)
        assert back.size == 2 and back.side == "right"
        assert np.array_equal(back.projector, q)
        assert np.array_equal(back.metric, r)
        assert validate_module(back).passed
