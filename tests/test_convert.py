import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_diag, random_unitary, spans_equal
from ncgeo import convert, linalg, tomita, triples
from ncgeo.algebra import AlgebraBasis, commutant, generate_algebra
from ncgeo.convert import (
    CliffordModuleData,
    _backward_assembly,
    appendix_equivalence_check,
    backward_round_trip,
    double_odd_triple,
    intertwine_triples,
    poincare_pairing_matrix,
    riemannian_to_spinc,
    round_trip_check,
    spinc_to_riemannian,
)
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.io import load_triple, save_triple
from ncgeo.kasparov import compress_to_range, one_form_residual, one_form_span
from ncgeo.linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    max_span_residual,
    operator_norm,
    project_onto_span,
    random_complex,
    random_hermitian,
    rel_residual,
    span_basis,
)
from ncgeo.modules import parseval_frame
from ncgeo.tomita import AntiunitaryMap, opposite_action, opposite_algebra, tomita_conjugation
from ncgeo.triples import (
    HochschildChain,
    SpectralTripleData,
    check_riemannian,
    commutator_algebra,
    represent_chain,
)

from test_algebra import NILPOTENT, cda_gens, inequivalent_pair, kronecker_intertwiners
from test_bench_digests import check


@pytest.fixture(scope="module")
def mgeom_forward():
    t = matrix_geometry(2, seed=7)
    return t, spinc_to_riemannian(t)


class TestForwardConversion:
    def test_trivial_points(self):
        t = trivial_points(3)
        res = spinc_to_riemannian(t)
        assert res.report.passed, res.report.as_text()
        # the distinguished vector collects the frame into the diagonal slots
        phi = res.witness["phi"]
        assert phi.shape == (3,) or np.linalg.norm(phi) > 0

    def test_matrix_geometry_full_suite(self, mgeom_forward):
        t, res = mgeom_forward
        assert res.report.passed, res.report.as_text()
        rr, ctx = check_riemannian(res.output)
        assert rr.passed
        z = ctx["metric"]
        assert operator_norm(z - np.eye(res.output.hilbert_dim)) < 1e-10

    def test_two_point_rejected(self):
        with pytest.raises(ValueError, match="spin"):
            spinc_to_riemannian(two_point(1.0))

    @pytest.mark.parametrize("case, prefix", [
        ("grading", "input triple invalid: validate:grading_anticommutes_dirac (residual "),
        ("cycle", "orientability fails: orient:volume_involution (residual "),
        ("two_point", "spin^c prerequisites fail: spinc:morita:actions_commute (residual "),
    ])
    def test_refusal_is_one_line(self, case, prefix):
        # the failed ids with their residuals, joined on one line
        base = matrix_geometry(2, seed=7)
        n = base.hilbert_dim
        t = {"grading": lambda: replace(base, grading=np.eye(n)),
             "cycle": lambda: replace(base, orientation_cycle=HochschildChain(
                 0, [(2.0 * np.eye(n),)], generalized=True)),
             "two_point": lambda: two_point(1.0)}[case]()
        with pytest.raises(ValueError) as err:
            spinc_to_riemannian(t)
        assert str(err.value).startswith(prefix)
        assert "\n" not in str(err.value)

    def test_riemannian_refusal_is_one_line(self, mgeom_forward):
        t, forward = mgeom_forward
        tri = forward.output
        phi = np.zeros(tri.hilbert_dim)
        phi[0] = 1.0
        with pytest.raises(ValueError) as err:
            riemannian_to_spinc(replace(tri, riemann_vector=phi), module_of(t, forward))
        assert str(err.value).startswith("Riemannian prerequisites fail: "
                                         "riemann:metric_solves_state (residual ")
        assert "; riemann:grading_fixes_vector (residual " in str(err.value)
        assert "\n" not in str(err.value)

    def test_missing_right_action_rejected(self):
        # check_spinc skips without a right action; the conversion refuses
        with pytest.raises(ValueError, match="conversion needs a right action"):
            spinc_to_riemannian(replace(matrix_geometry(2, seed=7), right_action_gens=None))

    def test_odd_declared_dimension_rejected_before_checks(self, monkeypatch):
        calls = []

        def spy(name):
            def refuse(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran on odd input")
            return refuse

        for name in ("check_orientability", "check_spinc"):
            monkeypatch.setattr(convert, name, spy(name))
        odd = replace(matrix_geometry(2, seed=7), declared_p=1)
        with pytest.raises(ValueError, match="double_odd_triple"):
            spinc_to_riemannian(odd)
        assert calls == []

    def test_epsilon_anticommutes(self, mgeom_forward):
        t, res = mgeom_forward
        eps = res.witness["epsilon"]
        d = res.output.dirac
        assert operator_norm(eps @ d + d @ eps) < 1e-9 * max(1.0, operator_norm(d))

    def test_orbit_map_bijective(self, mgeom_forward):
        t, res = mgeom_forward
        tri = res.output
        cda = tri.cda()
        vecs = np.stack([w @ tri.riemann_vector for w in cda.basis], axis=1)
        svals = np.linalg.svd(vecs, compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        assert rank == tri.hilbert_dim == cda.dim

    @pytest.mark.parametrize("seed", [0, 7])
    def test_output_cda_is_graded(self, seed, tmp_path):
        # the cda of a graded triple is homogeneous, even elements first; it
        # is the source's carried through u, the algebra a regeneration
        # computes in another basis, and a saved and reloaded copy computes
        # that regeneration
        out = spinc_to_riemannian(matrix_geometry(2, seed=seed)).output
        g = out.grading
        basis = out.cda().basis
        conj = g @ basis @ g
        even = np.linalg.norm(conj - basis, 2, axis=(-2, -1)) <= 1e-12
        odd = np.linalg.norm(conj + basis, 2, axis=(-2, -1)) <= 1e-12
        assert np.all(even | odd)
        n_even = int(np.count_nonzero(even))
        assert np.all(even[:n_even]) and np.all(odd[n_even:])
        regenerated = commutator_algebra(out)
        assert regenerated.wedderburn[1] == out.cda().wedderburn[1]
        assert spans_equal(regenerated.basis, basis, tol=1e-12)
        save_triple(tmp_path / "out.json", out)
        reloaded, _ = load_triple(tmp_path / "out.json")
        ref = regenerated.basis
        assert np.linalg.norm(reloaded.cda().basis - ref) <= 1e-12 * np.linalg.norm(ref)


class TestBackwardConversion:
    def test_round_trip_trivial(self):
        res = round_trip_check(trivial_points(3))
        assert res.report.passed, "\n".join(e.condition_id for e in res.report.failures())
        u = res.witness["intertwiner"]
        assert operator_norm(u @ adjoint(u) - np.eye(u.shape[0])) < 1e-10

    def test_round_trip_matrix_geometry(self):
        t = matrix_geometry(2, seed=7)
        res = round_trip_check(t)
        assert res.report.passed, "\n".join(
            f"{e.condition_id}: {e.residual}" for e in res.report.failures())
        assert res.report.entry("intertwine:dirac_residual").residual < 1e-8
        assert res.report.entry("intertwine:action_residual").residual < 1e-10

    def test_round_trip_matches_public_backward_calls(self):
        # the public conversion with no potential gives the round trip's
        # backward report
        t = matrix_geometry(2, seed=7)
        res = round_trip_check(t)
        forward = res.witness["forward"]
        backward = riemannian_to_spinc(forward.output, module_of(t, forward))
        assert backward.report.as_dict() == res.witness["backward"].report.as_dict()
        assert "potential" not in res.witness

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_recovers_the_source_less_its_commutant_part(self, seed):
        # u intertwines the pairs (a, [D, a]), so k = u^* D2 u - S commutes
        # with the source algebra: the backward Dirac operator is the source
        # up to a part in A', whose relative norm is the witness
        t = matrix_geometry(2, seed=seed)
        res = round_trip_check(t)
        assert res.report.passed
        u, out, s = res.witness["intertwiner"], res.output, t.dirac
        scale = operator_norm(s)
        k = adjoint(u) @ out.dirac @ u - s
        assert operator_norm(k - project_onto_span(k, commutant(t.algebra()).basis)) <= 1e-12 * scale
        for a1, a2 in zip(t.algebra_gens, out.algebra_gens):
            moved = u @ (s @ a1 - a1 @ s) @ adjoint(u)
            assert operator_norm(moved - (out.dirac @ a2 - a2 @ out.dirac)) <= 1e-12 * scale
        witness = res.witness["backward"].witness
        assert witness["commutant_part"] == pytest.approx(operator_norm(k) / scale, rel=1e-12)
        assert witness["pair_family_dim"] == 4

    def test_other_dirac_commutators_get_no_intertwiner(self, mgeom_forward):
        # the same algebra with another Dirac operator: the A-intertwiners
        # exist, but none matches the Dirac commutators
        t, forward = mgeom_forward
        other = replace(t, dirac=matrix_geometry(2, seed=5).dirac)
        backward, u, rep = backward_round_trip(forward.output, module_of(t, forward), other)
        assert u is None
        assert [(e.condition_id, e.status) for e in rep.entries] == [("intertwine:action_solutions", "fail")]
        assert backward.witness["pair_family_dim"] == 0
        assert backward.witness["commutant_part"] is None

    def test_potential_entries(self, mgeom_forward):
        # the Grassmann connection's two potential entries hold by
        # construction and say so
        t, forward = mgeom_forward
        tri, module = forward.output, module_of(t, forward)
        ids = ["convert:potential_in_one_form_span", "convert:potential_hermitian"]
        report = riemannian_to_spinc(tri, module).report
        assert [e.condition_id for e in report.entries[1:3]] == ids
        for e in report.entries[1:3]:
            assert (e.status, e.residual, e.details) == ("pass", 0.0, "Grassmann connection: no potential")

    def test_backward_algebra_dim_stable_under_rank_cut(self):
        # near-degenerate Riemannian spectrum (gap 0.015) and generators with
        # ~1e-11 relative noise: product/adjoint closure rounds put singular
        # values a few 1e-12 of the top beside the rank cut, the double
        # commutant does not
        out = round_trip_check(matrix_geometry(2, seed=2001408477)).output
        dims = [commutator_algebra(out, Tolerance(rank_cut=rc)).dim for rc in (1e-10, 1e-12)]
        assert dims[0] == dims[1], dims

    def test_backward_needs_module_alignment(self, mgeom_forward):
        t, res = mgeom_forward
        module = CliffordModuleData(
            carrier_dim=t.hilbert_dim,
            left_action=res.witness["c_basis_src"][:3],  # truncated: misaligned
            right_action_gens=t.right_action_gens,
        )
        with pytest.raises(ValueError):
            riemannian_to_spinc(res.output, module)

    def test_backward_requires_riemannian_input(self):
        t = two_point(1.0)
        module = CliffordModuleData(2, [np.eye(2)], [np.eye(2)])
        with pytest.raises(ValueError):
            riemannian_to_spinc(t, module)


BACKWARD_CASES = {
    "mg2-0": lambda: matrix_geometry(2, seed=0),
    "mg2-7": lambda: matrix_geometry(2, seed=7),
    "points3": lambda: trivial_points(3),
}


@pytest.fixture(scope="module", params=sorted(BACKWARD_CASES))
def backward_input(request):
    t = BACKWARD_CASES[request.param]()
    forward = spinc_to_riemannian(t)
    return t, forward.output, module_of(t, forward)


def module_of(t, forward):
    """The module data of a round trip of t, from its forward result."""
    return CliffordModuleData(
        carrier_dim=t.hilbert_dim,
        left_action=forward.witness["c_basis_src"],
        right_action_gens=t.right_action_gens,
        algebra_basis=forward.witness["c_basis_out"],
    )


def reduced_source(t):
    """t with the Dirac operator S - E_{A'}(S), E_{A'} the projection onto the
    commutant of its algebra: the source a round trip recovers."""
    part = project_onto_span(t.dirac, commutant(t.algebra()).basis)
    return replace(t, dirac=t.dirac - part)


def spy_norm_shapes(monkeypatch):
    """The shapes of the matrices passed to `operator_norm` from here on, in
    every ncgeo module that calls it, linalg's own helpers included."""
    shapes = []
    norm = linalg.operator_norm

    def spy(m):
        shapes.append(np.shape(m))
        return norm(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ncgeo") and getattr(mod, "operator_norm", None) is norm:
            monkeypatch.setattr(mod, "operator_norm", spy)
    return shapes


def spy_module_norms(monkeypatch, size):
    """The norms of module-size operands taken from here on: ("norm", shape,
    ord) for each `numpy.linalg.norm` call whose operand is a matrix or stack
    with a side of the given size (`operator_norm` and `max_operator_norm`
    take their 2-norms through it), ("projector_gap", shape of Q) for each
    Frobenius certificate of the conversions."""
    calls = []
    norm, gap = np.linalg.norm, convert.projector_gap

    def norm_spy(x, *args, **kwargs):
        if size in np.shape(x)[-2:] and np.ndim(x) >= 2:
            calls.append(("norm", np.shape(x), kwargs.get("ord", args[0] if args else None)))
        return norm(x, *args, **kwargs)

    def gap_spy(q, u):
        calls.append(("projector_gap", np.shape(q)))
        return gap(q, u)

    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    monkeypatch.setattr(convert, "projector_gap", gap_spy)
    return calls


def spy_svd_calls(monkeypatch):
    """(operand shape, ncgeo function) of every SVD from here on, through
    `numpy.linalg.svd` or the 2-norms of `numpy.linalg.norm`; the function is
    the innermost ncgeo frame that is not a comprehension."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and not (frame.f_globals.get("__name__", "").startswith("ncgeo")
                                         and not frame.f_code.co_name.startswith("<")):
            frame = frame.f_back
        calls.append((np.shape(a), frame.f_code.co_name if frame is not None else None))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", spy)
    return calls


def assert_frobenius_certificate(value, diff, rank):
    """A certificate |X|_F of a difference X of two rank-r projectors: it is
    the Frobenius norm (summed in another order), at least the 2-norm and at
    most sqrt(2r) times it."""
    assert abs(value - np.linalg.norm(diff)) <= 1e-13 * np.linalg.norm(diff)
    two = operator_norm(diff)
    assert two <= value <= np.sqrt(2 * rank) * two


def spy_eigh_shapes(monkeypatch):
    """The shapes of the matrices passed to `numpy.linalg.eigh` from here on."""
    shapes = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


class TestCarrierSizeBackward:
    """The backward output against the compressions V^* Q X Q V of the
    module-size operators the conversion assembled before it pulled back
    through the identification V directly."""

    def test_output_is_the_module_size_compression(self, backward_input):
        _, tri, module = backward_input
        res = riemannian_to_spinc(tri, module)
        asm = _backward_assembly(tri, module)
        q, v, nmod = asm["projector"], asm["identification"], asm["nmod"]
        dhat = q @ block_diag(tri.dirac, nmod) @ q
        c_op = represent_chain(tri, tri.orientation_cycle) if tri.orientation_cycle is not None \
            else tri.grading
        chat = q @ block_diag(c_op, nmod) @ q
        out = res.output
        assert_rel_close(out.dirac, adjoint(v) @ dhat @ v)
        assert_rel_close(out.grading, adjoint(v) @ chat @ v)
        for a, b in zip(tri.algebra_gens, out.algebra_gens):
            assert_rel_close(b, adjoint(v) @ block_diag(a, nmod) @ v)
        entry = res.report.entry("convert:orientation_anticommutes")
        ref = rel_residual(dhat @ chat + chat @ dhat, operator_norm(dhat), operator_norm(chat))
        assert abs(entry.residual - ref) <= 1e-13
        assert_frobenius_certificate(res.report.entry("convert:module_projector").residual,
                                     q - v @ adjoint(v), v.shape[1])

    def test_backward_dirac_is_the_transported_source(self, backward_input):
        # the Grassmann backward twist recovers S - E_{A'}(S), transported by
        # the certified intertwiner
        t, tri, module = backward_input
        backward, u, rep = backward_round_trip(tri, module, t)
        assert rep.passed
        expected = u @ reduced_source(t).dirac @ adjoint(u)
        assert operator_norm(backward.output.dirac - expected) <= 1e-12 * max(1.0, operator_norm(t.dirac))

    def test_projector_off_the_identification_fails(self, backward_input, monkeypatch):
        # a projector rotated off the range of V by 1e-6 is still a Hermitian
        # idempotent, but no longer V V^*
        _, tri, module = backward_input
        asm = _backward_assembly(tri, module)
        q = asm["projector"]
        vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(3), q.shape[0]))
        rot = (vecs * np.exp(1e-6j * vals / np.max(np.abs(vals)))) @ adjoint(vecs)
        moved = rot @ q @ adjoint(rot)
        assert rel_residual(moved @ moved - moved, 1.0) < 1e-12
        assert rel_residual(moved - adjoint(moved), 1.0) < 1e-12
        asm["projector"] = moved
        monkeypatch.setattr(convert, "_backward_assembly", lambda *args: asm)
        res = riemannian_to_spinc(tri, module)
        entry = res.report.entry("convert:module_projector")
        assert entry.status == "fail"
        assert 1e-7 < entry.residual < 1e-5

    def test_one_module_size_norm(self, backward_input, monkeypatch):
        # convert:module_projector, a Frobenius norm, is the one norm at
        # module size
        _, tri, module = backward_input
        size = _backward_assembly(tri, module)["projector"].shape[0]
        calls = spy_module_norms(monkeypatch, size)
        out = riemannian_to_spinc(tri, module).output
        expected = [("projector_gap", (size, size))]
        assert calls[:len(expected)] == expected
        # the rest are the output's own checks at carrier size: on points3
        # the 9 x 9 operator-space matrices of the spin^c check of a
        # non-zero D have a side of the module size 9
        rest = calls[len(expected):]
        calls.clear()
        fresh = replace(out)
        triples.validate_triple(fresh)
        triples.check_spinc(fresh)
        assert rest == calls


class TestCarrierSizeForward:
    """The forward conversion compresses through the range basis U of the
    module projector Q and certifies Q = U U^*."""

    def test_one_module_size_norm_and_no_eigh(self, monkeypatch):
        t = matrix_geometry(2, seed=7)
        size = spinc_to_riemannian(t).witness["module_projector"].shape[0]
        norms, eighs = spy_module_norms(monkeypatch, size), spy_eigh_shapes(monkeypatch)
        spinc_to_riemannian(t)
        # convert:projector_residual certifies the frame projector, which
        # skips the gate of a caller's module; it is a Frobenius norm
        assert norms == [("projector_gap", (size, size))]
        assert eighs and not [s for s in eighs if size in s]

    def test_projector_residual_is_the_range_certificate(self, mgeom_forward):
        _, res = mgeom_forward
        q, u = res.witness["module_projector"], res.witness["module_basis"]
        assert_frobenius_certificate(res.report.entry("convert:projector_residual").residual,
                                     q - u @ adjoint(u), u.shape[1])

    @pytest.mark.parametrize("make", [lambda: matrix_geometry(2, seed=7), lambda: trivial_points(3)],
                             ids=["mg2-7", "points3"])
    def test_range_basis_off_the_projector_fails(self, make, monkeypatch):
        # a range basis rotated off the range of Q by 1e-6 is still an
        # isometry, but no longer one with Q = U U^*
        def rotated(q):
            vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(3), q.shape[0]))
            rot = (vecs * np.exp(1e-6j * vals / np.max(np.abs(vals)))) @ adjoint(vecs)
            return rot @ compress_to_range(q)

        monkeypatch.setattr(convert, "compress_to_range", rotated)
        with pytest.raises(ValueError, match="convert:projector_residual"):
            spinc_to_riemannian(make())


def test_round_trip_takes_no_module_size_svd(monkeypatch):
    t = matrix_geometry(2, seed=7)
    ref = round_trip_check(t)
    n_fwd = ref.witness["forward"].witness["module_projector"].shape[0]
    n_bwd = ref.witness["backward"].witness["module_projector"].shape[0]
    h, nc = t.hilbert_dim, ref.output.hilbert_dim
    calls = spy_svd_calls(monkeypatch)
    res = round_trip_check(t)
    assert res.report.passed
    assert [e.residual for e in res.report.entries] == [e.residual for e in ref.report.entries]
    # no operator on a module carrier: the backward module size is only the
    # row count of the thin module-to-carrier identification, an SVD of
    # cost N nc^2
    assert [s for s, _ in calls if n_bwd in s[-2:]] == [(n_bwd, nc)]
    # the forward frame has H vectors, so its module is as large as the
    # operator space C^(H^2); with the Grassmann backward twist no SVD of
    # that size runs, and no one-form span is factored
    assert n_fwd == h * h
    assert not [s for s, _ in calls if s[-2] == s[-1] == n_fwd]
    assert not [f for _, f in calls if f in ("_one_form_factors", "_product_span")]


def test_round_trip_splits_three_cdas(monkeypatch):
    # the source cda, the forward output's regraded cda and the backward
    # output's cda; the Riemannian checks split none again
    calls = []
    split = triples.graded_split
    monkeypatch.setattr(triples, "graded_split", lambda *args: calls.append(1) or split(*args))
    assert round_trip_check(matrix_geometry(2, seed=7)).report.passed
    assert len(calls) == 3


def test_round_trip_does_each_piece_once(monkeypatch):
    # the backward half reuses the forward output's Tomita conjugation
    # (carried over by regraded) and its Riemannian report, and takes its
    # module over the output's own cda basis, with no membership sweep
    calls = {"conjugation": 0, "riemannian": 0, "sweep": 0, "cda": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(tomita, "_conjugation", counted("conjugation", tomita._conjugation))
    monkeypatch.setattr(triples, "_riemannian", counted("riemannian", triples._riemannian))
    monkeypatch.setattr(convert, "within_span", counted("sweep", convert.within_span))
    monkeypatch.setattr(triples, "commutator_algebra", counted("cda", triples.commutator_algebra))
    # the outputs' algebras are the source's carried through u and V, and
    # the backward output's right action is the source's: every generation
    # is of one of the source's three generator lists
    generated = []
    real = triples.generate_algebra

    def spied(gens, tol=DEFAULT_TOL):
        generated.append(np.stack(gens))
        return real(gens, tol)

    monkeypatch.setattr(triples, "generate_algebra", spied)
    t = matrix_geometry(3, seed=0)
    assert round_trip_check(t).report.passed
    assert calls == {"conjugation": 1, "riemannian": 1, "sweep": 0, "cda": 1}
    sources = [np.stack(src) for src in (t.algebra_gens, cda_gens(t), t.right_action_gens)]
    matched = [k for gens in generated for k, src in enumerate(sources)
               if gens.shape == src.shape and np.array_equal(gens, src)]
    assert len(generated) == 3 and sorted(matched) == [0, 1, 2]


def test_transport_fallback_keeps_the_reports(monkeypatch):
    # U perturbed by 1e-9 misses the transport gate, so the outputs'
    # algebras are generated as before the transport, and the round trip
    # keeps its ids, statuses and detail integers
    ref = round_trip_check(matrix_geometry(2, seed=7)).report
    real = triples.transport_algebra
    rng = np.random.default_rng(3)
    carried = []

    def perturbed(alg, u, gens, tol=DEFAULT_TOL, **kwargs):
        out = real(alg, u + 1e-9 * random_complex(rng, np.shape(u)), gens, tol, **kwargs)
        carried.append(out)
        return out

    monkeypatch.setattr(triples, "transport_algebra", perturbed)
    generated = []
    monkeypatch.setattr(triples, "generate_algebra",
                        lambda gens, tol=DEFAULT_TOL: generated.append(1) or generate_algebra(gens, tol))
    res = round_trip_check(matrix_geometry(2, seed=7)).report
    # the forward output's algebra is not carried, so the backward one is
    # generated directly, not carried from a generated one
    assert carried == [None] * 3
    # source: algebra, cda, right; forward: cda; backward: algebra, cda
    # (its right action is the source's)
    assert len(generated) == 6
    assert res.passed
    assert report_digest(res) == report_digest(ref)


def report_digest(rep):
    """Ids, statuses and detail integers (floats removed) of a report."""
    return [(e.condition_id, e.status, check.detail_ints(e.details)) for e in rep.entries]


@pytest.fixture(scope="module", params=[7, 2001408477])
def forward_and_module(request):
    t = matrix_geometry(2, seed=request.param)
    forward = spinc_to_riemannian(t)
    return t, forward, module_of(t, forward)


def expectation_pairing(alg):
    """Reference: the pairing (u|v) = E(|u><v|) as a closure, one projection
    onto the algebra per call."""
    def pair(u, v):
        return alg.expectation(np.outer(np.asarray(u).ravel(), np.asarray(v).conj().ravel()))
    return pair


def source_op_map(t, module):
    """Reference: the map of a carrier operator in the span of the left
    action to its source operator, one pseudo-inverse solve per call."""
    cda = t.cda()
    nc, nh = module.carrier_dim, t.hilbert_dim
    basis_ops = module.algebra_basis if module.algebra_basis is not None else cda.basis
    act_cols = np.asarray(module.left_action, dtype=complex).reshape(cda.dim, -1).T
    act_pinv = np.linalg.pinv(act_cols)
    basis_stack = np.asarray(basis_ops, dtype=complex).reshape(cda.dim, -1).T

    def to_source_op(carrier_op):
        c = act_pinv @ carrier_op.ravel()
        assert rel_residual((act_cols @ c).reshape(nc, nc) - carrier_op, operator_norm(carrier_op)) < 1e-6
        return (basis_stack @ c).reshape(nh, nh)
    return to_source_op


def assert_rel_close(actual, expected, rel=1e-12):
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


class TestFrameRoutine:
    """Frame projectors and the module identification against the per-block
    pairing loops the conversions used before they contracted over stacks."""

    def test_forward_projector(self, forward_and_module):
        t, forward, _ = forward_and_module
        n = t.hilbert_dim
        xs = forward.witness["frame"]
        m = len(xs)
        pair = expectation_pairing(t.right_algebra())
        q_ref = np.zeros((m * n, m * n), dtype=complex)
        for k in range(m):
            for j in range(m):
                q_ref[k * n:(k + 1) * n, j * n:(j + 1) * n] = pair(xs[k], xs[j])
        assert_rel_close(forward.witness["module_projector"], q_ref)

    def test_backward_projector_and_identification(self, forward_and_module):
        _, forward, module = forward_and_module
        tri = forward.output
        asm = _backward_assembly(tri, module)
        nc, nh, nmod = asm["nc"], asm["nh"], asm["nmod"]
        j = asm["conjugation"]
        carrier = AlgebraBasis(nc, span_basis(module.left_action))
        carrier_pair = expectation_pairing(carrier)
        to_source_op = source_op_map(tri, module)
        frame = parseval_frame(carrier)
        assert len(frame) == nmod

        q_ref = np.zeros((nmod * nh, nmod * nh), dtype=complex)
        for k in range(nmod):
            for jj in range(nmod):
                val = to_source_op(carrier_pair(frame[jj], frame[k]))
                q_ref[k * nh:(k + 1) * nh, jj * nh:(jj + 1) * nh] = opposite_action(j, val)
        assert_rel_close(asm["projector"], q_ref)

        vmap_ref = np.zeros((nmod * nh, nc), dtype=complex)
        for col in range(nc):
            e = np.zeros(nc, dtype=complex)
            e[col] = 1.0
            comps = []
            for jj in range(nmod):
                cop = to_source_op(carrier_pair(e, frame[jj]))
                comps.append(opposite_action(j, cop) @ tri.riemann_vector)
            vmap_ref[:, col] = np.concatenate(comps)
        assert_rel_close(asm["vmap"], vmap_ref)

        # the source operators of the carrier basis carry the pairings
        for k, b in enumerate(carrier.basis):
            assert_rel_close(asm["source_ops"][k], to_source_op(b))


class TestIntertwiner:
    def test_self_intertwine(self):
        t = matrix_geometry(2, seed=3)
        u, rep = intertwine_triples(t, t)
        assert rep.passed
        assert operator_norm(u @ t.dirac - t.dirac @ u) < 1e-9

    def test_dimension_mismatch_reported(self):
        # two generators each, on spaces of dimension 2 and 3
        t1 = trivial_points(2)
        u, rep = intertwine_triples(t1, SpectralTripleData(
            3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])], np.zeros((3, 3))))
        assert u is None
        assert not rep.passed


    def test_round_trip_intertwiner_phase(self, monkeypatch):
        # u is the polar factor of a seeded member of the pair family, with
        # its phase fixed by Tr(u) > 0; the member is a projection onto the
        # family, so solving with the pairs in reverse order gives the same u
        t = matrix_geometry(2, seed=7)
        res = round_trip_check(t)
        u = res.witness["intertwiner"]
        tr = np.trace(u)
        assert tr.real > 0.0 and abs(tr.imag) <= 1e-12 * abs(tr)
        assert operator_norm(adjoint(u) @ u - np.eye(len(u))) <= 1e-12
        solve = convert.intertwiners
        monkeypatch.setattr(convert, "intertwiners",
                            lambda g1, g2, tol: solve(g1[::-1], g2[::-1], tol))
        rev = round_trip_check(matrix_geometry(2, seed=7))
        assert np.allclose(rev.witness["intertwiner"], u, rtol=0, atol=1e-10)
        # the phase moves no residual: the report's are those of u
        out = res.output
        worst = max(operator_norm(u @ a1 - a2 @ u) / max(1.0, operator_norm(a1))
                    for a1, a2 in zip(t.algebra_gens, out.algebra_gens))
        assert res.report.entry("intertwine:action_residual").residual == worst
        k = adjoint(u) @ out.dirac @ u - t.dirac
        outside = k - project_onto_span(k, commutant(t.algebra()).basis)
        assert res.report.entry("intertwine:dirac_residual").residual == \
            operator_norm(outside) / operator_norm(t.dirac)
        for cid in ("intertwine:action_residual", "intertwine:dirac_residual"):
            assert res.report.entry(cid).status == "pass"
            assert rev.report.entry(cid).residual < 1e-12

    @pytest.mark.parametrize("name", [f"trivial_points{n}" for n in range(3, 8)]
                             + ["mgeom2_s0", "mgeom2_s7"])
    def test_exact_choice_is_independent_of_the_family_basis(self, name, monkeypatch):
        # the Kronecker family of the pairs (a, [D, a]) alone, in its own
        # basis, leads to the same witness: the seeded probes are projected
        # onto the family, not combined in its coordinates
        def source():
            return trivial_points(int(name[-1])) if name.startswith("trivial") else \
                matrix_geometry(2, seed=int(name[-1]))

        u = round_trip_check(source()).witness["intertwiner"]
        monkeypatch.setattr(convert, "intertwiners", lambda g1, g2, tol: kronecker_intertwiners(
            g1, g2, tol, with_adjoints=False))
        res = round_trip_check(source())
        assert res.report.passed
        assert np.max(np.abs(res.witness["intertwiner"] - u)) <= 1e-12

    def test_empty_family_names_the_wedderburn_blocks(self):
        gens1, gens2 = inequivalent_pair()
        u, rep = intertwine_triples(SpectralTripleData(4, gens1, np.zeros((4, 4))),
                                    SpectralTripleData(4, gens2, np.zeros((4, 4))))
        assert u is None
        entry = rep.entry("intertwine:action_solutions")
        assert entry.status == "fail"
        assert entry.details == ("no solutions of the action-intertwining system; "
                                 "Wedderburn blocks (n_k, m_k) [(2, 2)] vs [(1, 1), (1, 1), (1, 1), (1, 1)]")

    def test_empty_family_with_equal_blocks(self):
        # the same diagonal algebra, but the generator goes to a different
        # element: nothing intertwines and the block lists say nothing
        t1 = SpectralTripleData(3, [np.diag([1.0, 2.0, 3.0])], np.zeros((3, 3)))
        t2 = SpectralTripleData(3, [np.diag([4.0, 5.0, 6.0])], np.zeros((3, 3)))
        u, rep = intertwine_triples(t1, t2)
        assert u is None
        assert rep.entry("intertwine:action_solutions").details == \
            "no solutions of the action-intertwining system"

    def test_non_normal_generator(self):
        # N alone admits the intertwiners a W + b W N (dimension 2); the
        # *-family of the generated M_2 is C W, and it holds the unitary
        w = random_unitary(np.random.default_rng(8), 2)
        dirac = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        t1 = SpectralTripleData(2, [NILPOTENT], dirac)
        t2 = SpectralTripleData(2, [w @ NILPOTENT @ adjoint(w)], w @ dirac @ adjoint(w))
        assert len(kronecker_intertwiners([NILPOTENT], t2.algebra_gens, with_adjoints=False)) == 2
        u, rep = intertwine_triples(t1, t2)
        assert rep.passed
        assert rep.entry("intertwine:action_solutions").details == "family dimension 1"
        phase = np.vdot(w.ravel(), u.ravel()) / 2.0
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(u - phase * w)) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_triple_is_intertwined_by_the_unitary(self, seed):
        t = MGEOM2_SEED0
        w = random_unitary(np.random.default_rng(seed), t.hilbert_dim)
        moved = SpectralTripleData(t.hilbert_dim, [w @ a @ adjoint(w) for a in t.algebra_gens],
                                   w @ t.dirac @ adjoint(w))
        u, rep = intertwine_triples(t, moved)
        assert rep.passed
        phase = np.vdot(w.ravel(), u.ravel()) / t.hilbert_dim
        assert abs(abs(phase) - 1.0) <= 1e-10
        assert np.max(np.abs(u - phase * w)) <= 1e-10


MGEOM2_SEED0 = matrix_geometry(2, seed=0)


@pytest.fixture(scope="module", params=[0, 7])
def forward_output_opposite(request):
    tri = spinc_to_riemannian(matrix_geometry(2, seed=request.param)).output
    return tri, opposite_algebra(tomita_conjugation(tri), tri.cda())


class TestOppositeOneFormSpan:
    def test_opposite_action_commutes_with_dirac(self, forward_output_opposite):
        tri, opposite = forward_output_opposite
        ops = opposite.basis
        comms = tri.dirac @ ops - ops @ tri.dirac
        worst = float(np.max(np.linalg.norm(comms, 2, axis=(-2, -1))))
        assert worst < 1e-12 * max(1.0, operator_norm(tri.dirac))

    def test_span_of_roundoff_one_forms_is_empty(self, forward_output_opposite):
        tri, opposite = forward_output_opposite
        assert len(one_form_span(tri.dirac, opposite)) == 0

    def test_round_trip_span_factors_small_stacks(self, monkeypatch):
        # the membership test on the n=3 forward output factors one
        # (dim B n_k) x (n m_k) stack per component: 216 x 216 at H=36, where
        # the product stack was 1296 rows
        tri = spinc_to_riemannian(matrix_geometry(3, seed=0)).output
        opposite = opposite_algebra(tomita_conjugation(tri), tri.cda())
        xs = random_complex(np.random.default_rng(3), (4, tri.hilbert_dim, tri.hilbert_dim))
        rows = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: rows.append(np.shape(a)[-2])
                            or svd(a, *args, **kwargs))
        worst = one_form_residual(tri.dirac, opposite, xs)
        assert rows and max(rows) == 216
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert abs(worst - max_span_residual(xs, one_form_span(tri.dirac, opposite))) <= 1e-12

    def test_round_trip_intertwiner_factors_small_systems(self, monkeypatch):
        # the round trip's one intertwiner solve, on the pairs (a, [D, a]),
        # runs on the 6 x 9 pairs of eigenvectors of the merged clusters of
        # the cda: 54 unknowns at H=18, where the Kronecker system has 324
        unknowns, inside = [], []
        real = {name: getattr(np.linalg, name) for name in ("svd", "qr")}

        def spy(name):
            def factor(a, *args, **kwargs):
                if inside:
                    unknowns.append(np.shape(a)[-1])
                return real[name](a, *args, **kwargs)
            return factor

        def intertwiners_spy(*args, **kwargs):
            inside.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()

        solve = convert.intertwiners
        for name in real:
            monkeypatch.setattr(np.linalg, name, spy(name))
        monkeypatch.setattr(convert, "intertwiners", intertwiners_spy)
        res = round_trip_check(matrix_geometry(3, seed=0))
        assert res.report.entry("intertwine:action_solutions").details == \
            "dimension 36 of the A-intertwiner family"
        assert res.witness["backward"].witness["pair_family_dim"] == 9
        assert unknowns and max(unknowns) == 54


class TestDoubling:
    def test_diagonal_dirac(self):
        t = SpectralTripleData(2, [np.eye(2)], np.diag([1.0, -1.0]).astype(complex))
        out, rep = double_odd_triple(t)
        assert rep.passed
        assert np.allclose(np.diag(out.dirac), [1.0, -1.0, -1.0, 1.0])

    def test_block_action_even(self):
        t = two_point(1.0)
        ungraded = SpectralTripleData(2, t.algebra_gens, t.dirac)
        out, rep = double_odd_triple(ungraded)
        assert rep.passed
        for a in out.algebra_gens[:-1]:
            assert operator_norm(out.grading @ a - a @ out.grading) < 1e-12

    def test_random_identities(self):
        rng = np.random.default_rng(15)
        d = random_hermitian(rng, 5)
        t = SpectralTripleData(5, [np.eye(5)], d)
        out, rep = double_odd_triple(t)
        for e in rep.entries:
            assert e.residual < 1e-12

    def test_compression_returns_original(self):
        rng = np.random.default_rng(2)
        d = random_hermitian(rng, 4)
        t = SpectralTripleData(4, [np.eye(4)], d)
        out, _ = double_odd_triple(t)
        assert np.array_equal(out.dirac[:4, :4], t.dirac)
        assert np.array_equal(out.algebra_gens[0][:4, :4], t.algebra_gens[0])

    def test_rejects_graded_input(self):
        with pytest.raises(ValueError):
            double_odd_triple(two_point(1.0))

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the double keeps the odd declared_p, has no orientation cycle and "
                              "appends the odd twist generator, so validate:grading_commutes_algebra "
                              "fails and the forward conversion refuses the output of the tool its "
                              "odd-dimension error points to (ROADMAP M)")
    def test_forward_conversion_takes_the_double(self):
        t = two_point(1.0)
        doubled, _ = double_odd_triple(SpectralTripleData(2, t.algebra_gens, t.dirac, declared_p=1))
        try:
            spinc_to_riemannian(doubled)
        except ValueError as err:
            assert str(err).startswith("input triple invalid")
            raise


class TestAppendix:
    def test_scalar(self):
        t = SpectralTripleData(1, [np.eye(1)], np.array([[1.0]], dtype=complex))
        rep = appendix_equivalence_check(t)
        assert rep.passed, rep.as_text()
        assert rep.entry("appendix:conjugation_exact").residual == 0.0
        assert rep.entry("appendix:endpoints_exact").residual == 0.0

    def test_random_samples(self):
        rng = np.random.default_rng(44)
        d = random_hermitian(rng, 6)
        t = SpectralTripleData(6, [np.eye(6)], d)
        rep = appendix_equivalence_check(t, samples=10)
        assert rep.entry("appendix:homotopy_identities").residual < 1e-12

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        t = SpectralTripleData(1, [np.eye(1)], np.array([[1.0]], dtype=complex))
        with pytest.raises(ValueError, match="at least one sample"):
            appendix_equivalence_check(t, samples=samples)


class TestPoincarePairing:
    def test_trivial_points_permutation(self):
        t = trivial_points(3)
        res = spinc_to_riemannian(t)
        tri = res.output
        projs = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
        for i in range(3):
            projs[i][i, i] = 1.0
        mat, unimodular, rep = poincare_pairing_matrix(tri, projs, projs)
        assert unimodular
        assert np.array_equal(np.abs(mat), np.eye(3, dtype=int))

    def test_balanced_total_projector(self):
        t = SpectralTripleData(4, [np.eye(4)], np.zeros((4, 4)),
                               np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        mat, _, _ = poincare_pairing_matrix(t, [np.eye(4, dtype=complex)],
                                            [np.eye(4, dtype=complex)])
        assert mat[0, 0] == 0

    def test_matrix_geometry_deterministic(self, mgeom_forward):
        t, res = mgeom_forward
        tri = res.output
        from ncgeo.tomita import AntiunitaryMap, opposite_action, tomita_conjugation
        j = AntiunitaryMap(res.witness["conjugation_kernel"])
        cda = tri.cda()
        # even projectors on both sides
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        p_left = None
        for w in res.witness["c_basis_src"]:
            pass
        # left generator: transported rank-one projector of the base algebra
        u = res.witness["module_basis"]
        m = len(res.witness["frame"])
        p_left = adjoint(u) @ np.kron(np.eye(m), np.kron(np.kron(e11, np.eye(2)), np.eye(2))) @ u
        # right generator: opposite action of an even spectral projector
        eps = res.witness["epsilon"]
        rng0 = np.random.default_rng(7)
        x = sum(rng0.standard_normal() * b for b in cda.basis)
        x = (x + adjoint(x) + eps @ (x + adjoint(x)) @ eps) / 4.0
        vals, vecs = np.linalg.eigh(x)
        keep = vecs[:, vals > np.median(vals)]
        w = keep @ adjoint(keep)
        q_right = opposite_action(j, w)
        mats = []
        rng = np.random.default_rng(1)
        for trial in range(3):
            noise = 1e-12 * random_hermitian(rng, tri.hilbert_dim)
            noisy = SpectralTripleData(tri.hilbert_dim, tri.algebra_gens,
                                       tri.dirac + noise, tri.grading, 0)
            mat, _, _ = poincare_pairing_matrix(noisy, [p_left], [q_right])
            mats.append(mat.copy())
        assert np.array_equal(mats[0], mats[1]) and np.array_equal(mats[1], mats[2])

    @pytest.mark.parametrize("left, right", [([], [np.eye(2)]), ([np.eye(2)], []), ([], [])])
    def test_empty_side_rejected(self, left, right):
        # the 0 x 0 matrix has determinant 1, so an empty side must not reach it
        t = SpectralTripleData(2, [np.eye(2)], np.zeros((2, 2)),
                               np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(ValueError, match="at least one projector on each side"):
            poincare_pairing_matrix(t, left, right)

    @pytest.mark.parametrize("bad", [np.eye(3), np.eye(2)[:1], np.ones(2)])
    def test_wrong_shape_rejected(self, bad):
        t = SpectralTripleData(2, [np.eye(2)], np.zeros((2, 2)),
                               np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(ValueError, match="2 x 2|expected a matrix"):
            poincare_pairing_matrix(t, [np.eye(2)], [bad])

    def test_noncommuting_rejected(self):
        t = SpectralTripleData(2, [np.eye(2)], np.zeros((2, 2)),
                               np.diag([1.0, -1.0]).astype(complex))
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        q = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            poincare_pairing_matrix(t, [p], [q])
