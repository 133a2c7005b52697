import functools
import inspect
import pathlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    barrett_triple,
    block_diag,
    dense_module_projector,
    opposite_algebra,
    projector_gap,
    random_unitary,
    spans_equal,
)
from ncgeo import convert, kasparov, linalg, modules, tomita, triples
from ncgeo.algebra import AlgebraBasis, commutant, generate_algebra, intertwiners
from ncgeo.convert import (
    CliffordModuleData,
    ConversionResult,
    _backward_assembly,
    appendix_equivalence_check,
    backward_round_trip,
    poincare_pairing_matrix,
    riemannian_to_spinc,
    round_trip_check,
    spinc_to_riemannian,
)
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.io import load_triple, save_triple
from ncgeo.kasparov import compress_to_range, one_form_span
from ncgeo.linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    max_span_residual,
    operator_norm,
    project_onto_span,
    pull_back,
    random_complex,
    random_hermitian,
    rel_residual,
    span_basis,
)
from ncgeo.modules import ProjectiveModule, frame_idempotency_bound, parseval_frame
from ncgeo.report import CheckReport
from ncgeo.tomita import AntiunitaryMap, grading_from_cycle, opposite_action, tomita_conjugation
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

    @pytest.mark.parametrize("field", ["grading", "riemann_vector"])
    def test_backward_refuses_unchecked_riemannian_prerequisites(self, mgeom_forward, field):
        # without a grading or a distinguished vector check_riemannian is all
        # skipped; the conversion refuses with the skip's details
        t, forward = mgeom_forward
        with pytest.raises(ValueError) as err:
            riemannian_to_spinc(replace(forward.output, **{field: None}), module_of(t, forward))
        assert str(err.value) == ("Riemannian prerequisites cannot be checked: "
                                  "needs both a distinguished vector and a grading")

    def test_backward_needs_an_orientation_cycle(self, mgeom_forward):
        # the orientation operator comes from the cycle alone: a forward
        # output without its cycle is refused, its grading slot unread
        t, forward = mgeom_forward
        module = CliffordModuleData(carrier_dim=t.hilbert_dim,
                                    left_action=forward.witness["c_basis_src"],
                                    right_action_gens=t.right_action_gens)
        with pytest.raises(ValueError) as err:
            riemannian_to_spinc(replace(forward.output, orientation_cycle=None), module)
        assert str(err.value) == "backward conversion needs an orientation cycle"

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
        with pytest.raises(ValueError) as err:
            spinc_to_riemannian(odd)
        assert str(err.value) == "forward conversion needs even declared dimension, got p = 1"
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
    take their 2-norms through it)."""
    calls = []
    norm = np.linalg.norm

    def norm_spy(x, *args, **kwargs):
        if size in np.shape(x)[-2:] and np.ndim(x) >= 2:
            calls.append(("norm", np.shape(x), kwargs.get("ord", args[0] if args else None)))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm_spy)
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


def assert_range_certificate(value, q, v, idempotency, module):
    """A carrier-size certificate of |Q - V V^*|_F: at least the dense
    Frobenius norm, hence the 2-norm, and `linalg.projector_gap_bound` of the
    dense |Q V - V|_F, the isometry and trace defects and the frame's bound
    on |Q^2 - Q|_F, to the rounding of |Q V - V|_F (at most 1.2e-16 on these
    inputs).  For a module with a factor Q = T S^* the residual is the
    dense |T S^* V - V|_F plus the factor's bound b, which is the dense
    |Q - T S^*|_F or more up to the rounding of forming Q's operators and
    the dense products (at most 2.6e-16 apart on these inputs), and the
    trace defect that of T S^* plus sqrt(N) b.
    The frame's bound is |Q^2 - Q|_F up to rounding: both are of rounding
    size here, at most 5.3e-15 apart."""
    frob = projector_gap(q, v)
    assert operator_norm(q - v @ adjoint(v)) <= frob <= value
    assert abs(idempotency - np.linalg.norm(q @ q - q)) <= 1e-14
    n, r = v.shape
    resid, trace = np.linalg.norm(q @ v - v), abs(np.trace(q).real - r)
    factor = module.factor
    if factor is not None:
        tq = factor.left @ adjoint(factor.right)
        assert np.linalg.norm(q - tq) <= factor.bound + 1e-15
        resid = np.linalg.norm(tq @ v - v) + factor.bound
        trace = abs(np.trace(tq).real - r) + np.sqrt(n) * factor.bound
    bound = linalg.projector_gap_bound(
        resid, np.linalg.norm(adjoint(v) @ v - np.eye(r)), trace, idempotency, n)
    assert abs(value - bound) <= 1e-13 * value + 1e-15


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
        q, v, nmod = dense_module_projector(asm["module"]), asm["identification"], asm["nmod"]
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
        assert_range_certificate(res.report.entry("convert:module_projector").residual, q, v,
                                 asm["idempotency"], asm["module"])

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
        # idempotent, but no longer V V^*; the rotation 1 (x) r acts on the
        # factors, r O_k r^*, and the moved coordinates carry no rank-size factor
        _, tri, module = backward_input
        asm = _backward_assembly(tri, module)
        factored = asm["module"]
        vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(3), factored.block_dim))
        rot = (vecs * np.exp(1e-6j * vals / np.max(np.abs(vals)))) @ adjoint(vecs)
        moved = replace(factored, ops=rot @ factored.ops @ adjoint(rot), factor=None)
        q = dense_module_projector(moved)
        assert rel_residual(q @ q - q, 1.0) < 1e-12
        assert rel_residual(q - adjoint(q), 1.0) < 1e-12
        assert projector_gap(q, asm["identification"]) > 1e-7
        asm["module"] = moved
        monkeypatch.setattr(convert, "_backward_assembly", lambda *args: asm)
        res = riemannian_to_spinc(tri, module)
        entry = res.report.entry("convert:module_projector")
        assert entry.status == "fail"
        assert 1e-7 < entry.residual < 1e-5

    @pytest.mark.parametrize("swap", [(1, 2), (0, 3)])
    def test_module_off_the_cda_fails_the_exact_gate(self, swap, monkeypatch):
        # an algebra basis with two elements swapped leaves the left action
        # no representation of the cda, so the right action of the source
        # operators is no antihomomorphism: the frame's bound on |Q^2 - Q|_F
        # is inf (its rounding-size Parseval defect says nothing here, where
        # |Q^2 - Q|_F is 1.4) and the certificate is the exact |Q - V V^*|_F
        t = matrix_geometry(2, seed=7)
        forward = spinc_to_riemannian(t)
        basis = list(forward.witness["c_basis_out"])
        basis[swap[0]], basis[swap[1]] = basis[swap[1]], basis[swap[0]]
        module = replace(module_of(t, forward), algebra_basis=basis)
        asm = _backward_assembly(forward.output, module)
        assert asm["idempotency"] == np.inf
        # the right action fails the probe, so the module has no rank-size
        # factor and the certificate reads the coordinates
        assert asm["module"].factor is None
        entries = []
        add = convert.CheckReport.add
        monkeypatch.setattr(convert.CheckReport, "add",
                            lambda self, *args: entries.append(add(self, *args)) or entries[-1])
        with pytest.raises(ValueError):
            riemannian_to_spinc(forward.output, module)
        entry = next(e for e in entries if e.condition_id == "convert:module_projector")
        assert entry.status == "fail"
        exact = projector_gap(dense_module_projector(asm["module"]), asm["identification"])
        assert exact > 1.0
        assert abs(entry.residual - exact) <= 1e-12 * exact

    def test_one_module_size_norm(self, backward_input, monkeypatch):
        # convert:module_projector takes the one norm at module size, the
        # Frobenius norm of Q V - V
        _, tri, module = backward_input
        asm = _backward_assembly(tri, module)
        size = asm["module"].size * asm["nh"]
        calls = spy_module_norms(monkeypatch, size)
        out = riemannian_to_spinc(tri, module).output
        expected = [("norm", (size, asm["nc"]), None)]
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


def images_map(images):
    """The linear map `alg.basis[k]` -> `images[k]` as the function of an
    element's coordinates that `_antihomomorphism_defect` probes."""
    return lambda c: np.tensordot(c, images, 1)


FACTOR_CASES = {
    "points2": lambda: trivial_points(2),
    "points3": lambda: trivial_points(3),
    "points4": lambda: trivial_points(4),
    "mg2-0": lambda: matrix_geometry(2, seed=0),
    "mg2-7": lambda: matrix_geometry(2, seed=7),
    "mg3-0": lambda: matrix_geometry(3, seed=0),
    "barrett11": lambda: barrett_triple(2, "11"),
    "barrett20": lambda: barrett_triple(2, "20"),
}


@functools.lru_cache(maxsize=None)
def factor_case(name):
    """(source, forward result, backward assembly of the round trip's module)."""
    t = FACTOR_CASES[name]()
    forward = spinc_to_riemannian(t)
    module = CliffordModuleData(t.hilbert_dim, forward.witness["c_basis_src"], t.right_action_gens)
    return t, forward, _backward_assembly(forward.output, module)


def assert_factored_reads(module):
    """`apply`, `trace` and `diagonal_blocks` through the factor match those
    of the coordinates to 1e-13 relative, and the factor's bound is the
    dense |Q - T S^*|_F or more, up to the rounding of the dense products."""
    factor = module.factor
    assert factor is not None
    exact = replace(module, factor=None)
    x = random_complex(np.random.default_rng(5), (module.size * module.block_dim, 4))
    assert_rel_close(module.apply(x), exact.apply(x), rel=1e-13)
    assert abs(module.trace() - exact.trace()) <= 1e-13 * max(1.0, abs(exact.trace()))
    assert_rel_close(module.diagonal_blocks(), exact.diagonal_blocks(), rel=1e-13)
    q = dense_module_projector(module)
    assert np.linalg.norm(q - factor.left @ adjoint(factor.right)) <= factor.bound + 1e-15
    assert factor.bound <= 1e-12


class TestRankSizeFactor:
    """The modules of both conversions carry Q = T S^* at rank size, read
    the same as their coordinates, and keep the coordinates as Q."""

    @pytest.mark.parametrize("name", sorted(FACTOR_CASES))
    def test_forward_factor_is_an_isometry(self, name):
        _, forward, _ = factor_case(name)
        module = forward.witness["module"]
        assert_factored_reads(module)
        t = module.factor.left
        assert module.factor.right is t
        assert t.shape == forward.witness["module_basis"].shape
        assert np.linalg.norm(adjoint(t) @ t - np.eye(t.shape[1])) <= 1e-12

    @pytest.mark.parametrize("name", sorted(FACTOR_CASES))
    def test_forward_pull_backs_match(self, name):
        t, forward, _ = factor_case(name)
        module, u = forward.witness["module"], forward.witness["module_basis"]
        pull = module.range_pull_back(u)
        cda = t.cda()
        for ops in (t.dirac, represent_chain(t, t.orientation_cycle), np.asarray(t.algebra_gens),
                    cda.basis[:6]):
            assert_rel_close(pull(ops), pull_back(u, ops), rel=1e-13)

    @pytest.mark.parametrize("name", sorted(FACTOR_CASES))
    def test_backward_factor_and_lazy_operators(self, name):
        t, forward, _ = factor_case(name)
        asm = _backward_assembly(forward.output, CliffordModuleData(
            t.hilbert_dim, forward.witness["c_basis_src"], t.right_action_gens))
        module = asm["module"]
        assert module.factor is not None and module.factor.right is not module.factor.left
        # the certificate reads the factor: the K-stack of right actions is
        # not built until something reads the coordinates' operators
        value = convert._range_certificate(module, asm["identification"], asm["idempotency"], 1e-8)
        assert value <= 1e-12 and "ops" not in vars(module)
        assert_factored_reads(module)
        assert "ops" in vars(module)
        assert_rel_close(module.ops, opposite_action(asm["conjugation"], asm["source_ops"]), rel=1e-15)

    def test_a_caller_projector_carries_no_factor(self):
        t = matrix_geometry(2, seed=7)
        q = dense_module_projector(factor_case("mg2-7")[1].witness["module"])
        module = ProjectiveModule.from_projector(t.right_algebra(), t.hilbert_dim, q)
        assert module.factor is None
        _, u, _ = kasparov.product_triple(t, kasparov.grassmann_connection(module))
        assert u.shape == (len(q), round(np.trace(q).real))

    def test_a_bound_above_the_gate_drops_the_factor(self):
        # coefficients that miss the pairing coordinates give a bound above
        # the gate, and the module reads its coordinates
        _, forward, _ = factor_case("mg2-7")
        module, xs = forward.witness["module"], forward.witness["frame"]
        right = module.base
        comps = convert._components(*right.wedderburn)
        units, off = convert._unit_coords(convert._algebra_pattern(*right.wedderburn), right.basis)
        coeffs = [(xs @ w_k.conj().reshape(len(w_k), -1)).reshape((len(xs),) + w_k.shape[1:])
                  for w_k in comps]
        kept = ProjectiveModule.of_frame(right, module.coords, right.basis, units, coeffs, comps,
                                         comps, off, 1e-9)
        assert kept.factor is not None and kept.factor.bound == module.factor.bound
        moved = [1.001 * c for c in coeffs]
        dropped = ProjectiveModule.of_frame(right, module.coords, right.basis, units, moved, comps,
                                            comps, off, 1e-9)
        assert dropped.factor is None


class TestAntihomomorphismProbe:
    """`_antihomomorphism_defect` on maps of M_2 and of a span that is no
    algebra."""

    M2 = AlgebraBasis(2, span_basis(np.eye(4, dtype=complex).reshape(4, 2, 2)))

    def test_transpose_reads_rounding(self):
        transpose = images_map(np.swapaxes(self.M2.basis, 1, 2))
        assert convert._antihomomorphism_defect(self.M2, transpose) < 1e-15

    def test_each_law_is_probed(self):
        s = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
        maps = {
            # an antihomomorphism, but no *-map
            "star": s @ np.swapaxes(self.M2.basis, 1, 2) @ np.linalg.inv(s),
            # a *-homomorphism of a noncommutative algebra
            "order": self.M2.basis,
        }
        for images in maps.values():
            assert convert._antihomomorphism_defect(self.M2, images_map(images)) > 1e-2
        # the diagonal matrices with one off-diagonal unit span no algebra
        span = AlgebraBasis(2, span_basis(np.eye(4, dtype=complex)[[0, 1, 3]].reshape(3, 2, 2)))
        assert convert._antihomomorphism_defect(span, images_map(np.swapaxes(span.basis, 1, 2))) > 1e-2


class TestCarrierSizeForward:
    """The forward conversion compresses through the range basis U of the
    module projector Q and certifies Q = U U^*."""

    def test_one_module_size_norm_and_no_eigh(self, monkeypatch):
        t = matrix_geometry(2, seed=7)
        witness = spinc_to_riemannian(t).witness
        size, rank = witness["module_basis"].shape
        norms, eighs = spy_module_norms(monkeypatch, size), spy_eigh_shapes(monkeypatch)
        spinc_to_riemannian(t)
        # convert:projector_residual certifies the frame projector, which
        # skips the gate of a caller's module; its one module-size norm is
        # the Frobenius norm of Q U - U
        assert norms == [("norm", (size, rank), None)]
        assert eighs and not [s for s in eighs if size in s]

    def test_projector_residual_is_the_range_certificate(self, mgeom_forward):
        _, res = mgeom_forward
        module, u = res.witness["module"], res.witness["module_basis"]
        assert_range_certificate(res.report.entry("convert:projector_residual").residual,
                                 dense_module_projector(module), u,
                                 frame_idempotency_bound(module.base, res.witness["frame"]), module)

    @pytest.mark.parametrize("make", [lambda: matrix_geometry(2, seed=7), lambda: trivial_points(3)],
                             ids=["mg2-7", "points3"])
    def test_range_basis_off_the_projector_fails(self, make, monkeypatch):
        # a range basis rotated off the range of Q by 1e-6 is still an
        # isometry, but no longer one with Q = U U^*
        def rotated(module):
            size = module.size * module.block_dim
            vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(3), size))
            rot = (vecs * np.exp(1e-6j * vals / np.max(np.abs(vals)))) @ adjoint(vecs)
            return rot @ compress_to_range(module)

        monkeypatch.setattr(convert, "compress_to_range", rotated)
        with pytest.raises(ValueError, match="convert:projector_residual") as info:
            spinc_to_riemannian(make())
        residual = float(str(info.value).rsplit(" ", 1)[1].rstrip(")"))
        assert 1e-7 < residual < 1e-5


def test_round_trip_takes_no_module_size_svd(monkeypatch):
    t = matrix_geometry(2, seed=7)
    ref = round_trip_check(t)
    n_fwd, n_bwd = (len(ref.witness[half].witness[key])
                    for half, key in (("forward", "module_basis"), ("backward", "identification")))
    h, nc = t.hilbert_dim, ref.output.hilbert_dim
    calls = spy_svd_calls(monkeypatch)
    spans = []
    monkeypatch.setattr(kasparov, "one_form_span", lambda *a, **k: spans.append(1))
    res = round_trip_check(t)
    assert res.report.passed
    assert [e.residual for e in res.report.entries] == [e.residual for e in ref.report.entries]
    # no operator on a module carrier: the backward module size is only the
    # row count of the thin module-to-carrier identification, an SVD of
    # cost N nc^2
    assert [s for s, _ in calls if n_bwd in s[-2:]] == [(n_bwd, nc)]
    # the forward frame has H vectors, so its module is as large as the
    # operator space C^(H^2); with the Grassmann backward twist no SVD of
    # that size runs, and no one-form span is built, nor by the suite
    assert n_fwd == h * h
    assert not [s for s, _ in calls if s[-2] == s[-1] == n_fwd]
    triples.run_condition_suite(t)
    assert spans == []


def test_round_trip_forms_no_module_size_block_matrix(monkeypatch):
    # both module projectors are read through their factors: no block matrix
    # of a module's size is assembled (from_blocks) or split (to_blocks)
    t = matrix_geometry(2, seed=7)
    ref = round_trip_check(t)
    sizes = {len(ref.witness[half].witness[key])
             for half, key in (("forward", "module_basis"), ("backward", "identification"))}
    sides = []
    for name, side in (("from_blocks", lambda table: table.shape[0] * table.shape[-1]),
                       ("to_blocks", lambda big, m: len(big))):
        original = getattr(linalg, name)

        def spy(*args, _original=original, _side=side):
            sides.append(_side(*map(np.asarray, args[:1]), *args[1:]))
            return _original(*args)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ncgeo") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    assert round_trip_check(t).report.passed
    assert not sizes & set(sides)


def test_round_trip_h32_holds_less_than_one_dense_backward_projector():
    # the backward module of matrix_geometry(4, 0) has side 32 * 64 = 2048,
    # so its dense projector alone would take 2048^2 complex, 64 MB
    t = matrix_geometry(4, 0)
    tracemalloc.start()
    try:
        res = round_trip_check(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.report.passed
    side = len(res.witness["backward"].witness["identification"])
    assert side == 2048
    assert peak < side ** 2 * 16


def test_right_algebra_travels_with_the_forward_output():
    # the source's right algebra goes with the forward output to a backward
    # output whose right action generators are its matrices, and to no other
    t = matrix_geometry(2, seed=7)
    forward = spinc_to_riemannian(t)
    module = module_of(t, forward)
    assert riemannian_to_spinc(forward.output, module).output.right_algebra() is t.right_algebra()
    copies = replace(module, right_action_gens=[g.copy() for g in t.right_action_gens])
    assert riemannian_to_spinc(forward.output, copies).output.right_algebra() is t.right_algebra()
    other = replace(module, right_action_gens=[g.T for g in t.right_action_gens])
    right = riemannian_to_spinc(forward.output, other).output.right_algebra()
    assert right is not t.right_algebra()
    assert np.array_equal(right.generators, np.asarray(other.right_action_gens))


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
    monkeypatch.setattr(convert, "max_span_residual", counted("sweep", convert.max_span_residual))
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


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("make", [
    pytest.param(lambda: matrix_geometry(2, seed=0), id="matrix_geometry_n2_seed0"),
    pytest.param(lambda: matrix_geometry(2, seed=7), id="matrix_geometry_n2_seed7"),
    pytest.param(lambda: matrix_geometry(3, seed=0), id="matrix_geometry_n3_seed0"),
    pytest.param(lambda: trivial_points(3), id="trivial_points_3"),
])
def test_even_declared_dimension_round_trips(make, p):
    # both halves write the degree-0 cycle at every even p, so the backward
    # half reads the orientation image, not the grading slot C.JCJ; the
    # sign rules read only the parity of p, so the report is that of p = 0
    t = make()
    res = round_trip_check(replace(t, declared_p=p))
    assert all(e.status == "pass" for e in res.report.entries)
    assert res.report.as_dict() == round_trip_check(t).report.as_dict()
    forward = res.witness["forward"]
    assert forward.output.orientation_cycle.terms == [(forward.witness["orientation_image"],)]
    for out in (forward.output, res.output):
        assert out.declared_p == p and out.orientation_cycle.degree == 0


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
        assert_rel_close(dense_module_projector(forward.witness["module"]), q_ref)

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
        assert_rel_close(dense_module_projector(asm["module"]), q_ref)

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


def intertwine(source, out):
    """`backward_round_trip` of `source` against a backward conversion that
    returns `out`: (intertwiner or None, intertwiner report)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convert, "riemannian_to_spinc",
                      lambda *args, **kwargs: ConversionResult(out, {}, CheckReport()))
        _, u, rep = backward_round_trip(None, CliffordModuleData(out.hilbert_dim, [], []), source)
    return u, rep


class TestIntertwiner:
    def test_self_intertwine(self):
        t = matrix_geometry(2, seed=3)
        u, rep = intertwine(t, t)
        assert rep.passed
        assert operator_norm(adjoint(u) @ u - np.eye(len(u))) <= 1e-12
        assert rep.entry("intertwine:dirac_residual").residual < 1e-9

    def test_dimension_mismatch_reported(self):
        # two generators each, on spaces of dimension 2 and 3
        t1 = trivial_points(2)
        u, rep = intertwine(t1, SpectralTripleData(
            3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])], np.zeros((3, 3))))
        assert u is None
        assert not rep.passed
        assert rep.entry("intertwine:dimensions").details == "2 vs 3"

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
        u, rep = intertwine(SpectralTripleData(4, gens1, np.zeros((4, 4))),
                            SpectralTripleData(4, gens2, np.zeros((4, 4))))
        assert u is None
        entry = rep.entry("intertwine:action_solutions")
        assert entry.status == "fail"
        assert entry.details == ("no unitary intertwiner of the algebras and their Dirac commutators; "
                                 "Wedderburn blocks (n_k, m_k) [(2, 2)] vs [(1, 1), (1, 1), (1, 1), (1, 1)]")

    def test_empty_family_with_equal_blocks(self):
        # the same diagonal algebra, but the generator goes to a different
        # element: nothing intertwines and the block lists say nothing
        t1 = SpectralTripleData(3, [np.diag([1.0, 2.0, 3.0])], np.zeros((3, 3)))
        t2 = SpectralTripleData(3, [np.diag([4.0, 5.0, 6.0])], np.zeros((3, 3)))
        u, rep = intertwine(t1, t2)
        assert u is None
        assert rep.entry("intertwine:action_solutions").details == \
            "no unitary intertwiner of the algebras and their Dirac commutators"

    def test_non_normal_generator(self):
        # N alone admits the intertwiners a W + b W N (dimension 2); the
        # *-family of N with [D, N] is C W, and it holds the unitary
        w = random_unitary(np.random.default_rng(8), 2)
        dirac = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        t1 = SpectralTripleData(2, [NILPOTENT], dirac)
        t2 = SpectralTripleData(2, [w @ NILPOTENT @ adjoint(w)], w @ dirac @ adjoint(w))
        assert len(kronecker_intertwiners([NILPOTENT], t2.algebra_gens, with_adjoints=False)) == 2
        pairs1, pairs2 = ([t.algebra_gens[0], t.dirac @ t.algebra_gens[0] - t.algebra_gens[0] @ t.dirac]
                          for t in (t1, t2))
        assert len(intertwiners(pairs1, pairs2, DEFAULT_TOL)) == 1
        u, rep = intertwine(t1, t2)
        assert rep.passed
        assert rep.entry("intertwine:action_solutions").details == \
            "dimension 1 of the A-intertwiner family"
        phase = np.vdot(w.ravel(), u.ravel()) / 2.0
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(u - phase * w)) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_triple_is_intertwined_by_the_unitary(self, seed):
        # the round trip's intertwiner of a triple and its conjugate by W is
        # W times a member of the self-intertwiners of the pairs (a, [D, a]),
        # a family of dimension 4 here
        t = MGEOM2_SEED0
        w = random_unitary(np.random.default_rng(seed), t.hilbert_dim)
        moved = SpectralTripleData(t.hilbert_dim, [w @ a @ adjoint(w) for a in t.algebra_gens],
                                   w @ t.dirac @ adjoint(w))
        u, rep = intertwine(t, moved)
        assert rep.passed
        gens = np.asarray(t.algebra_gens)
        pairs = np.concatenate([gens, t.dirac @ gens - gens @ t.dirac])
        family = intertwiners(pairs, pairs, DEFAULT_TOL)
        assert len(family) == 4
        assert max_span_residual((adjoint(w) @ u)[None], family) <= 1e-10


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

    def test_opposite_span_factors_small_stacks(self, monkeypatch):
        # the span of the opposite algebra of the n=3 forward output factors
        # one (dim B n_k) x (n m_k) stack per component: 216 x 216 at H=36,
        # where the product stack has 1296 rows
        tri = spinc_to_riemannian(matrix_geometry(3, seed=0)).output
        opposite = opposite_algebra(tomita_conjugation(tri), tri.cda())
        rows = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: rows.append(np.shape(a)[-2])
                            or svd(a, *args, **kwargs))
        one_form_span(tri.dirac, opposite)
        assert rows and max(rows) == 216

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


class TestRoundTripKernels:
    """The round trip's contractions are BLAS products, not naive einsums,
    and the forward output's grading residuals are taken once."""

    # the cheap contractions the per-call path may run through np.einsum
    EINSUM_ALLOWED = {"ij,ij->i", "ija,jba->ijb", "krl,ksl->rs", "kab,ba->k"}

    def test_identification_matches_the_einsum(self, forward_and_module):
        _, forward, module = forward_and_module
        tri = forward.output
        asm = _backward_assembly(tri, module)
        carrier, frame = asm["carrier"], parseval_frame(asm["carrier"])
        opposite = asm["module"].ops
        ref = np.einsum("eik,ka->iae", carrier.pair_coords(np.eye(asm["nc"]), frame),
                        opposite @ tri.riemann_vector).reshape(asm["nmod"] * asm["nh"], asm["nc"])
        assert_rel_close(asm["vmap"], ref, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_apply_matches_the_dense_product(self, n, monkeypatch):
        t = matrix_geometry(n, 0)
        forward = spinc_to_riemannian(t)
        asm = _backward_assembly(forward.output, module_of(t, forward))
        halves = ((forward.witness["module"], forward.witness["module_basis"]),
                  (asm["module"], asm["identification"]))
        for module, x in halves:
            x = np.ascontiguousarray(x)
            ref = dense_module_projector(module) @ x
            tracemalloc.start()
            try:
                got = module.apply(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert_rel_close(got, ref, rel=1e-13)
            # a few chunk temporaries plus copies of the input and output
            assert peak <= 2 * modules._APPLY_BLOCK * 16 + 3 * got.nbytes
            # one k per chunk
            with monkeypatch.context() as patch:
                patch.setattr(modules, "_APPLY_BLOCK", 1)
                assert_rel_close(module.apply(x), ref, rel=1e-13)

    def test_round_trip_einsums_are_allow_listed(self, monkeypatch):
        seen = []
        real = np.einsum

        def spy(subscripts, *operands, **kwargs):
            seen.append(subscripts)
            return real(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        assert round_trip_check(matrix_geometry(3, 0)).report.passed
        assert seen and set(seen) <= self.EINSUM_ALLOWED

    def test_only_triples_touches_the_cache(self):
        # a triple's derived data have one owner: no module of the package
        # but triples reads or writes SpectralTripleData._cache
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncgeo"
        files = sorted(src.glob("*.py"))
        assert len(files) > 1
        assert [f.name for f in files if "_cache" in f.read_text()] == ["triples.py"]

    def test_forward_output_shares_grading_residuals(self, monkeypatch):
        # the Riemannian check of the forward output reads the values that
        # grading_from_cycle took and takes no commutator with the grading
        firsts = []
        real = triples.commutator_residual
        monkeypatch.setattr(triples, "commutator_residual",
                            lambda xs, *args, **kwargs: firsts.append(xs[0]) or real(xs, *args, **kwargs))
        forward = spinc_to_riemannian(matrix_geometry(2, seed=7))
        out = forward.output
        assert not any(x is out.grading for x in firsts)
        shared, _ = check_riemannian(out)
        fresh, _ = triples._riemannian(replace(out), DEFAULT_TOL)
        assert any(x is out.grading for x in firsts)
        for cid in ("riemann:grading_anticommutes_dirac", "riemann:grading_commutes_algebra"):
            assert shared.entry(cid).residual == fresh.entry(cid).residual
            assert forward.report.entry(cid).residual == fresh.entry(cid).residual
        # a triple with a grading of its own takes its own residuals, even
        # when grading_from_cycle has run on it
        t = replace(out)
        grading_from_cycle(t, forward.witness["orientation_image"], tomita_conjugation(t))
        firsts.clear()
        check_riemannian(t)
        assert any(x is t.grading for x in firsts)
        # the forward entry is the larger of its two halves: the residual
        # against the generators and against their opposite actions
        gens = np.asarray(out.algebra_gens)
        both = np.concatenate([gens, opposite_action(tomita_conjugation(out), gens)])
        assert forward.report.entry("convert:grading:commutes_both_actions").residual == \
            linalg.commutator_residual([out.grading], both)
