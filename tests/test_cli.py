import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unitary
from ncgeo import cli, convert
from ncgeo.cli import main
from ncgeo.examples import EXAMPLE_KINDS, matrix_geometry, trivial_points, two_point
from ncgeo.io import (
    data_to_matrix,
    dict_to_triple,
    load_triple,
    matrix_to_data,
    save_triple,
    triple_to_dict,
    vector_to_data,
)
from ncgeo.linalg import pull_back
from ncgeo.triples import SpectralTripleData, validate_triple
from test_bench_digests import check


def reference_matrix_data(m) -> list:
    """The per-entry encoding `io.matrix_to_data` is checked against."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def reference_vector_data(v) -> list:
    """The per-entry encoding `io.vector_to_data` is checked against."""
    v = np.asarray(v, dtype=complex).ravel()
    return [[float(x.real), float(x.imag)] for x in v]


def _leaves(data):
    if isinstance(data, list):
        for item in data:
            yield from _leaves(item)
    else:
        yield data


def assert_same_encoding(got, expected):
    # == takes -0.0 for 0.0; the JSON text does not
    assert got == expected
    assert all(type(x) is float for x in _leaves(got))
    assert json.dumps(got) == json.dumps(expected)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-17, 1e300, -1e300]


@st.composite
def complex_arrays(draw):
    """Complex (rows, cols) arrays of finite parts, with signed zeros,
    subnormals and huge values mixed in."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    part = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    parts = st.lists(part, min_size=rows * cols, max_size=rows * cols)
    m = np.empty((rows, cols), dtype=complex)
    m.real = np.reshape(draw(parts), (rows, cols))
    m.imag = np.reshape(draw(parts), (rows, cols))
    return m


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

    @settings(max_examples=200, deadline=None)
    @given(complex_arrays())
    def test_encoding_matches_per_entry_reference(self, m):
        assert_same_encoding(matrix_to_data(m), reference_matrix_data(m))
        assert_same_encoding(vector_to_data(m), reference_vector_data(m))
        assert_same_encoding(vector_to_data(m[0]), reference_vector_data(m[0]))

    @pytest.mark.parametrize("m", [
        pytest.param(np.array([[1.5 + 2.5j, -0.25], [0.0, 1e-17j]]), id="tiny_imaginary"),
        pytest.param(np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.0]]),
                     id="signed_zeros"),
        pytest.param(np.array([[5e-324, -1e-310j], [2.2250738585072014e-308, 1e300 - 1e300j]]),
                     id="subnormal_and_huge"),
        pytest.param(np.array([[1.0, -2.5], [1e300, 0.0]]), id="real"),
        pytest.param(np.array([[1, -2], [3, 0]]), id="integer"),
        pytest.param([[1, 2j], [0.5, -3]], id="nested_list"),
    ])
    def test_encoding_of_special_values(self, m):
        assert_same_encoding(matrix_to_data(m), reference_matrix_data(m))
        assert_same_encoding(vector_to_data(m), reference_vector_data(m))

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
        pytest.param(lambda doc: doc["algebra"].__setitem__("generators", []), id="no_generators"),
        pytest.param(lambda doc: doc["right_action"].__setitem__("generators", []),
                     id="no_right_generators"),
        pytest.param(lambda doc: doc.__setitem__("cycle", {"degree": -1, "terms": [[]]}),
                     id="cycle_degree_negative"),
        pytest.param(lambda doc: doc.__setitem__("cycle", [0]), id="cycle_list"),
    ])
    def test_unparseable_input_exit_two(self, tmp_path, capsys, edit):
        path = self._write_doc(tmp_path, edit)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda doc: doc.__setitem__("hilbert_dim", 2.9), "hilbert_dim",
                     id="hilbert_dim_float"),
        pytest.param(lambda doc: doc.__setitem__("hilbert_dim", "2"), "hilbert_dim",
                     id="hilbert_dim_string"),
        pytest.param(lambda doc: doc.__setitem__("hilbert_dim", True), "hilbert_dim",
                     id="hilbert_dim_bool"),
        pytest.param(lambda doc: doc["cycle"].__setitem__("degree", 0.5), "cycle degree",
                     id="cycle_degree_float"),
    ])
    def test_integer_field_is_not_truncated(self, tmp_path, capsys, edit, field):
        path = self._write_doc(tmp_path, edit)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be an integer, got ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["no", 1, "false", 0, None, [True]])
    def test_cycle_generalized_must_be_a_boolean(self, tmp_path, capsys, value):
        path = self._write_doc(tmp_path, lambda doc: doc["cycle"].__setitem__("generalized", value))
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cycle generalized must be a boolean, got {value!r}\n"

    @pytest.mark.parametrize("value", [True, False, "absent"])
    def test_cycle_generalized_boolean_loads(self, value):
        doc = triple_to_dict(two_point(1.0))
        if value == "absent":
            del doc["cycle"]["generalized"]
        else:
            doc["cycle"]["generalized"] = value
        assert dict_to_triple(doc).orientation_cycle.generalized is (value is True)

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
        u = random_unitary(np.random.default_rng(0), 8)
        t = replace(matrix_geometry(2, seed=7),
                    grading=u @ np.diag([1.0, 1, 1, 1, -1, -1, -1, -1]) @ u.conj().T)
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

    @pytest.mark.parametrize("kind, n", [
        pytest.param("trivial_points", "0", id="trivial_points"),
        pytest.param("matrix_geometry", "0", id="matrix_geometry"),
        pytest.param("matrix_geometry", "1", id="matrix_geometry_n1"),
    ])
    def test_zero_n_exit_two(self, tmp_path, capsys, kind, n):
        out = tmp_path / "t.striple"
        with pytest.raises(SystemExit) as exc:
            main(["example", kind, "--n", n, "-o", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "argument --n" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["two_point", "--coupling", "0"], id="zero_coupling"),
        pytest.param(["two_point", "--coupling", "nan"], id="nan_coupling"),
        pytest.param(["two_point", "--coupling", "inf"], id="inf_coupling"),
        pytest.param(["matrix_geometry", "--seed", "-1"], id="negative_seed"),
        pytest.param(["two_point", "--coupling", "-x"], id="word_coupling"),
    ])
    def test_unusable_option_exit_two(self, tmp_path, capsys, argv):
        out = tmp_path / "t.striple"
        with pytest.raises(SystemExit) as exc:
            main(["example"] + argv + ["-o", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ncgeo example: error: argument {argv[1]}: ")
        assert not out.exists()

    @pytest.mark.parametrize("coupling", ["-1+2j", "-2j"])
    def test_coupling_with_a_leading_minus(self, tmp_path, capsys, coupling):
        # a value such as -1+2j is not an option, with or without "="
        apart, joined = tmp_path / "apart.striple", tmp_path / "joined.striple"
        assert main(["example", "two_point", "--coupling", coupling, "-o", str(apart)]) == 0
        assert main(["example", "two_point", f"--coupling={coupling}", "-o", str(joined)]) == 0
        assert capsys.readouterr().err == ""
        assert apart.read_bytes() == joined.read_bytes()
        t, _ = load_triple(apart)
        assert t.dirac[0, 1] == complex(coupling)

    @pytest.mark.parametrize("kind, dim", [("trivial_points", 3), ("matrix_geometry", 8)])
    def test_default_n(self, tmp_path, kind, dim):
        out = tmp_path / "t.striple"
        assert main(["example", kind, "-o", str(out)]) == 0
        assert load_triple(out)[0].hilbert_dim == dim

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
        # the relative norm of the source's commutant part, which the
        # Grassmann backward twist does not recover
        _, doc = load_triple(back)
        assert 0.1 < doc["witness"]["commutant_part"] < 1.0

    def test_two_point_prerequisite_failure(self, tmp_path, capsys):
        src = tmp_path / "tp.striple"
        save_triple(src, two_point(1.0))
        assert main(["convert", "to-riemannian", str(src)]) == 1
        err = capsys.readouterr().err
        assert "prerequisite" in err
        # one line: the failed ids with their residuals, then the Wedderburn
        # blocks that cannot match
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "spinc:commutant_matches_right_action (residual 1.000e+00)" in err
        assert err.rstrip("\n").endswith("; cda blocks [(2, 1)] vs right action [(1, 1), (1, 1)]")

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

    def test_to_spinc_sweeps_the_bundled_basis(self, tmp_path, monkeypatch):
        # the module of a file comes with the basis rebuilt from the module
        # basis written there, so it is checked against the reloaded
        # triple's cda once
        src = tmp_path / "m.striple"
        save_triple(src, matrix_geometry(2, seed=7))
        riem = tmp_path / "m.riem"
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        calls = []
        sweep = convert.max_span_residual
        monkeypatch.setattr(convert, "max_span_residual",
                            lambda *args, **kwargs: calls.append(1) or sweep(*args, **kwargs))
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
        doc["witness"] = {"c_basis_src": [eye], "module_basis": eye}
        doc["source"] = triple_to_dict(t)
        edit(doc)
        return doc

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc.__setitem__("witness", [1, 2]), id="witness_list"),
        pytest.param(lambda doc: doc.__setitem__("source", [1, 2]), id="source_list"),
        pytest.param(lambda doc: doc["source"].pop("dirac"), id="source_without_dirac"),
        pytest.param(lambda doc: doc["witness"].__setitem__("c_basis_src", "x"),
                     id="c_basis_src_string"),
        pytest.param(lambda doc: doc["witness"].__setitem__("module_basis", "x"),
                     id="module_basis_string"),
        pytest.param(lambda doc: doc["witness"].__setitem__(
            "module_basis", matrix_to_data(np.ones((3, 2)))), id="module_basis_rows"),
    ])
    def test_to_spinc_malformed_bundle_exit_two(self, tmp_path, capsys, edit):
        path = tmp_path / "bundle.riem"
        path.write_text(json.dumps(self._bundle_doc(edit)))
        assert main(["convert", "to-spinc", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["source"].__setitem__("right_action", None),
                     "source has no right_action", id="source_right_action_null"),
        pytest.param(lambda doc: doc["witness"].__setitem__("c_basis_src", []),
                     "c_basis_src must be a nonempty list of 2 x 2 matrices", id="c_basis_src_empty"),
        pytest.param(lambda doc: doc["witness"].__setitem__("c_basis_src", [matrix_to_data(np.eye(3))]),
                     "c_basis_src must be a nonempty list of 2 x 2 matrices", id="c_basis_src_3x3"),
    ])
    def test_to_spinc_bundle_names_the_field(self, tmp_path, capsys, edit, message):
        path = tmp_path / "bundle.riem"
        path.write_text(json.dumps(self._bundle_doc(edit)))
        assert main(["convert", "to-spinc", str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_to_spinc_without_cycle_exit_one(self, tmp_path, capsys):
        # the backward conversion reads its orientation operator from the
        # cycle alone, never from the grading slot
        src, riem = tmp_path / "m.striple", tmp_path / "m.riem"
        save_triple(src, matrix_geometry(2, seed=7))
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        riem.write_text(json.dumps(dict(json.loads(riem.read_text()), cycle=None)))
        capsys.readouterr()
        assert main(["convert", "to-spinc", str(riem), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: conversion prerequisite failed: "
                                           "backward conversion needs an orientation cycle\n")

    @pytest.mark.parametrize("key", ["grading", "phi"])
    def test_to_spinc_without_riemannian_data_exit_one(self, tmp_path, capsys, key):
        # no grading or no distinguished vector: the Riemannian prerequisites
        # are all skipped, and the conversion refuses
        src, riem = tmp_path / "m.striple", tmp_path / "m.riem"
        save_triple(src, matrix_geometry(2, seed=7))
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        riem.write_text(json.dumps(dict(json.loads(riem.read_text()), **{key: None})))
        capsys.readouterr()
        assert main(["convert", "to-spinc", str(riem), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: conversion prerequisite failed: Riemannian "
                                           "prerequisites cannot be checked: needs both a "
                                           "distinguished vector and a grading\n")
        assert not (tmp_path / "out").exists()

    def test_to_spinc_old_bundle_names_module_basis(self, tmp_path, capsys):
        # a bundle written with the output's cda basis instead of the module
        # basis has no reader: it is a file without the bundle
        def old_bundle(doc):
            doc["witness"]["c_basis_out"] = [doc["witness"].pop("module_basis")]

        path = tmp_path / "old.riem"
        path.write_text(json.dumps(self._bundle_doc(old_bundle)))
        assert main(["convert", "to-spinc", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "module_basis" in err

    @pytest.mark.parametrize("builder", [
        pytest.param(lambda: matrix_geometry(2, seed=7), id="matrix_geometry_2_7"),
        pytest.param(lambda: trivial_points(3), id="trivial_points_3"),
    ])
    def test_module_basis_rebuilds_the_cda_basis(self, builder):
        # what to-spinc rebuilds from the bundle: u^* (1_m (x) s_k) u
        res = convert.spinc_to_riemannian(builder())
        rebuilt = pull_back(res.witness["module_basis"], res.witness["c_basis_src"])
        gaps = np.linalg.norm(rebuilt - np.asarray(res.witness["c_basis_out"]), axis=(1, 2))
        assert gaps.max() <= 1e-13

    @pytest.mark.parametrize("seed", [7, 2001408477])
    def test_cli_round_trip_matches_round_trip_check(self, tmp_path, capsys, seed):
        # to-riemannian's report is the forward half; to-spinc's holds the
        # backward half and, prefixed "roundtrip:", the intertwiner entries
        t = matrix_geometry(2, seed=seed)
        src, riem = tmp_path / "m.striple", tmp_path / "m.riem"
        save_triple(src, t)
        reports = []
        for argv in (["to-riemannian", str(src), "-o", str(riem)],
                     ["to-spinc", str(riem), "-o", str(tmp_path / "m.back")]):
            assert main(["--format", "json", "convert", *argv]) == 0
            reports.append(json.loads(capsys.readouterr().out)["report"]["entries"])
        forward, backward = reports

        def digest(cid, entry):
            return cid, entry["status"], check.detail_ints(entry["details"])

        cli_entries = (
            [digest(e["condition_id"].removeprefix("roundtrip:"), e) for e in backward
             if e["condition_id"].startswith("roundtrip:")]
            + [digest("forward:" + e["condition_id"], e) for e in forward]
            + [digest("backward:" + e["condition_id"], e) for e in backward
               if not e["condition_id"].startswith("roundtrip:")])
        expected = convert.round_trip_check(t).report.as_dict()["entries"]
        assert cli_entries == [digest(e["condition_id"], e) for e in expected]

    def test_to_spinc_failing_bundle_exit_one(self, tmp_path, capsys):
        # a well-encoded bundle whose conversion fails is not a parse error
        path = tmp_path / "bundle.riem"
        path.write_text(json.dumps(self._bundle_doc(lambda doc: None)))
        assert main(["convert", "to-spinc", str(path)]) == 1
        assert "prerequisite" in capsys.readouterr().err

    def test_to_riemannian_without_right_action_exit_one(self, tmp_path, capsys):
        src = tmp_path / "no_right.striple"
        save_triple(src, replace(matrix_geometry(2, seed=7), right_action_gens=None))
        assert main(["convert", "to-riemannian", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "conversion needs a right action" in err

    def test_to_riemannian_odd_input_exit_one(self, tmp_path, capsys):
        src = tmp_path / "odd.striple"
        save_triple(src, replace(matrix_geometry(2, seed=7), declared_p=1))
        assert main(["convert", "to-riemannian", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(": forward conversion needs even declared dimension, got p = 1\n")

    def test_even_positive_p_converts_both_ways(self, tmp_path, capsys):
        src = tmp_path / "p2.striple"
        save_triple(src, replace(matrix_geometry(2, seed=7), declared_p=2))
        riem, back = tmp_path / "p2.riem", tmp_path / "p2.back"
        assert main(["convert", "to-riemannian", str(src), "-o", str(riem)]) == 0
        assert main(["convert", "to-spinc", str(riem), "-o", str(back)]) == 0
        assert capsys.readouterr().err == ""
        for path in (riem, back):
            t, _ = load_triple(path)
            assert t.declared_p == 2 and t.orientation_cycle.degree == 0


class TestOtherCommands:
    def test_double_and_homotopy(self, tmp_path, capsys):
        # no verb doubles an ungraded triple; homotopy-check compares the
        # two standard doublings of one
        src = tmp_path / "odd.striple"
        t = two_point(1.0)
        save_triple(src, SpectralTripleData(2, t.algebra_gens, t.dirac))
        with pytest.raises(SystemExit) as exc:
            main(["double", str(src)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("ncgeo: error: argument command: invalid choice: 'double'")
        assert err.count("\n") == 1
        assert main(["homotopy-check", str(src)]) == 0

    def test_zeta(self, tmp_path, capsys):
        src = tmp_path / "points.striple"
        save_triple(src, trivial_points(5))
        assert main(["--format", "json", "zeta", str(src), "-s", "0", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zeta"]["0.0"] == pytest.approx(5.0)

    def test_zeta_overflow(self, tmp_path, capsys):
        src = tmp_path / "tp.striple"
        save_triple(src, two_point(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--format", "json", "zeta", str(src), "-s", "0", "-3000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: zeta diagnostic overflows") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("size", [1.5, "1", True])
    def test_module_size_must_be_an_integer(self, tmp_path, capsys, size):
        src = tmp_path / "p.striple"
        save_triple(src, trivial_points(3))
        mpath = tmp_path / "mod.json"
        mpath.write_text(json.dumps({"size": size, "projector": matrix_to_data(np.eye(3)),
                                     "potential": None}))
        out = tmp_path / "prod.striple"
        assert main(["product", str(src), "--module", str(mpath), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {mpath}: size must be an integer, got {size!r}\n"
        assert not out.exists()


class TestParserReuse:
    """`main` keeps one parser per process; no call leaves state for the next."""

    @pytest.fixture()
    def small_file(self, tmp_path):
        path = tmp_path / "t.striple"
        save_triple(path, trivial_points(3))
        return str(path)

    @staticmethod
    def _json_run(capsys, argv):
        code = main(["--format", "json", *argv])
        return code, json.loads(capsys.readouterr().out)

    def test_parser_built_once(self, small_file, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for _ in range(3):
            assert main(["zeta", small_file]) == 0
        assert len(built) == 1

    def test_tolerance_does_not_carry_over(self, small_file, capsys):
        _, doc = self._json_run(capsys, ["--tol", "1e-3", "check", small_file])
        assert doc["header"] == {"tol": 1e-3}
        _, doc = self._json_run(capsys, ["check", small_file])
        assert doc["header"] == {"tol": 1e-9}

    def test_zeta_defaults_after_explicit_values(self, small_file, capsys):
        _, doc = self._json_run(capsys, ["zeta", small_file, "-s", "3"])
        assert list(doc["zeta"]) == ["3.0"]
        _, doc = self._json_run(capsys, ["zeta", small_file])
        assert list(doc["zeta"]) == ["0.0", "1.0", "2.0"]

    def test_parse_failure_then_success(self, small_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", "zeta", small_file, "-s", "nan"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert self._json_run(capsys, ["zeta", small_file])[0] == 0


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

    @pytest.mark.parametrize("argv", [
        pytest.param(["--tol", "nan", "check", "{src}"], id="nan_tol"),
        pytest.param(["zeta", "{src}", "-s", "nan"], id="nan_s"),
        pytest.param(["homotopy-check", "{src}", "--samples", "0"], id="zero_samples"),
        pytest.param(["example", "doubled"], id="unknown_example_kind"),
    ])
    def test_one_line_without_usage(self, tmp_path, capsys, argv):
        src = tmp_path / "t.striple"
        save_triple(src, two_point(1.0))
        with pytest.raises(SystemExit) as exc:
            main([arg.format(src=src) for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ncgeo") and captured.err.count("\n") == 1
        assert ": error: " in captured.err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--tol", "nan"], id="nan_tol"),
        pytest.param(["--tol", "0"], id="zero_tol"),
        pytest.param(["--tol", "inf"], id="inf_tol"),
        pytest.param(["--rank-cut", "-1"], id="negative_rank_cut"),
        pytest.param(["--rank-cut", "nan"], id="nan_rank_cut"),
    ])
    def test_tolerance_flags_exit_two(self, tmp_path, capsys, flags):
        src = tmp_path / "t.striple"
        save_triple(src, two_point(1.0))
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--format", "json", "check", str(src)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"ncgeo: error: argument {flags[0]}: ")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_verb_writes_strict_json(tmp_path, capsys):
    # the information entries of check, convert and product have an infinite
    # tolerance; each must still load without the non-JSON constants NaN and
    # Infinity, and text that looks like one stays text
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
        ["homotopy-check", str(odd)],
        ["pair", riem, "--projectors", str(projs)],
        ["zeta", str(tmp_path / "tp.striple"), "-s", "0", "-2"],
    ]
    seen_infinite = False
    for argv in runs:
        assert main(["--format", "json"] + argv) in (0, 1), argv
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        entries = doc.get("report", {}).get("entries", [])
        seen_infinite |= any(e["tolerance"] == float("inf") for e in entries)
        if argv[0] == "check":
            assert doc["path"] == str(points)
    assert seen_infinite


def test_every_written_triple_is_valid(tmp_path, capsys):
    # each verb that writes a triple writes one that loads and passes
    # validate_triple
    src, riem = str(tmp_path / "m.striple"), str(tmp_path / "m.riem")
    save_triple(src, matrix_geometry(2, seed=7))
    points = str(tmp_path / "points.striple")
    save_triple(points, trivial_points(3))
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"size": 1, "projector": matrix_to_data(np.eye(3)), "potential": None}))
    runs = [["example", kind, "-o", str(tmp_path / f"{kind}.striple")] for kind in EXAMPLE_KINDS]
    runs += [
        ["convert", "to-riemannian", src, "-o", riem],
        ["convert", "to-spinc", riem, "-o", str(tmp_path / "m.back")],
        ["product", points, "--module", str(mod), "-o", str(tmp_path / "prod.striple")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        t, _ = load_triple(argv[-1])
        rep = validate_triple(t)
        assert rep.passed, (argv, rep.as_text())
    capsys.readouterr()


# the ids are fixed, not positional, so a case keeps its name when another
# verb is added or removed
@pytest.mark.parametrize("argv, target", [
    pytest.param(["example", "two_point", "-o", "{dir}/tp.striple"], "build_example",
                 id="argv0-build_example"),
    pytest.param(["check", "{points}"], "run_condition_suite", id="argv1-run_condition_suite"),
    pytest.param(["convert", "to-riemannian", "{points}", "-o", "{dir}/out.striple"],
                 "spinc_to_riemannian", id="argv2-spinc_to_riemannian"),
    pytest.param(["convert", "to-spinc", "{riem}", "-o", "{dir}/out.striple"],
                 "backward_round_trip", id="argv3-backward_round_trip"),
    pytest.param(["product", "{points}", "--module", "{dir}/mod.json", "-o", "{dir}/out.striple"],
                 "product_triple", id="argv4-product_triple"),
    pytest.param(["homotopy-check", "{odd}"], "appendix_equivalence_check",
                 id="argv6-appendix_equivalence_check"),
    pytest.param(["pair", "{riem}", "--projectors", "{dir}/projs.json"],
                 "poincare_pairing_matrix", id="argv7-poincare_pairing_matrix"),
    pytest.param(["zeta", "{points}"], "zeta_diagnostic", id="argv8-zeta_diagnostic"),
])
def test_library_refusal_is_one_line_exit_one(tmp_path, capsys, monkeypatch, argv, target):
    # main is the one place a refusal becomes an exit code: a ValueError from
    # the library call of any verb is one error line and exit 1
    from ncgeo import cli
    points, riem, odd = tmp_path / "points.striple", tmp_path / "riem.striple", tmp_path / "odd.striple"
    save_triple(points, trivial_points(3))
    assert main(["convert", "to-riemannian", str(points), "-o", str(riem)]) == 0
    t = two_point(1.0)
    save_triple(odd, SpectralTripleData(2, t.algebra_gens, t.dirac))
    (tmp_path / "mod.json").write_text(json.dumps(
        {"size": 1, "projector": matrix_to_data(np.eye(3)), "potential": None}))
    minimal = [matrix_to_data(np.diag(np.eye(3)[k])) for k in range(3)]
    (tmp_path / "projs.json").write_text(json.dumps({"left": minimal, "right": minimal}))
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise ValueError("refused inside the library")

    monkeypatch.setattr(cli, target, refuse)
    paths = {"dir": tmp_path, "points": points, "riem": riem, "odd": odd}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "refused inside the library" in captured.err


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
        pytest.param({"size": 0, "projector": []}, 2, id="size_zero"),
        pytest.param({"size": -1, "projector": EYE}, 2, id="size_negative"),
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

    @pytest.mark.parametrize("size", [0, -1])
    def test_product_size_below_one_names_the_field(self, tmp_path, capsys, size):
        argv = ["product", "-o", str(tmp_path / "out.striple"), "--module"]
        doc = {"size": size, "projector": [] if size == 0 else self.EYE}
        code, err = self._run(tmp_path, capsys, matrix_geometry(2, seed=4), argv, doc)
        assert code == 2
        assert err == f"error: {tmp_path / 'input.json'}: size must be a positive integer, got {size}\n"

    @pytest.mark.parametrize("potential, name", [
        pytest.param(3, "potential must be a list of rows of matrices", id="number"),
        pytest.param([3], "potential must be a list of rows of matrices", id="row_a_number"),
        pytest.param({"a": 1}, "potential must be a list of rows of matrices", id="object"),
        pytest.param([{"a": 1}], "potential must be a list of rows of matrices", id="row_an_object"),
    ])
    def test_product_potential_not_a_table_names_the_field(self, tmp_path, capsys, potential, name):
        argv = ["product", "-o", str(tmp_path / "out.striple"), "--module"]
        doc = {"size": 1, "projector": self.EYE, "potential": potential}
        code, err = self._run(tmp_path, capsys, matrix_geometry(2, seed=4), argv, doc)
        assert code == 2
        assert err == f"error: {tmp_path / 'input.json'}: {name}\n"

    @pytest.mark.parametrize("make, n", [(lambda: trivial_points(3), 3),
                                         (lambda: matrix_geometry(2, seed=7), 8)],
                             ids=["points3", "mg2-7"])
    def test_product_rank_zero_module_names_the_trace(self, tmp_path, capsys, make, n):
        # the zero projector is a projector of rank 0: there is no range to
        # compress to, refused with one line that names Tr Q
        argv = ["product", "-o", str(tmp_path / "out.striple"), "--module"]
        doc = {"size": 1, "projector": matrix_to_data(np.zeros((n, n)))}
        code, err = self._run(tmp_path, capsys, make(), argv, doc)
        assert code == 1
        assert err == "error: module projector has trace Tr Q = 0.000e+00: its range is empty\n"
        assert not (tmp_path / "out.striple").exists()

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

    @pytest.mark.parametrize("doc, side", [
        pytest.param({"left": 3, "right": []}, "left", id="left_number"),
        pytest.param({"left": [], "right": {"a": 1}}, "right", id="right_object"),
        pytest.param({"left": "x", "right": []}, "left", id="left_text"),
    ])
    def test_pair_side_not_a_list_names_the_field(self, tmp_path, capsys, doc, side):
        riem = convert.spinc_to_riemannian(trivial_points(3)).output
        code, err = self._run(tmp_path, capsys, riem, ["pair", "--projectors"], doc)
        assert code == 2
        assert err == f"error: {tmp_path / 'input.json'}: {side} must be a list of matrices\n"
