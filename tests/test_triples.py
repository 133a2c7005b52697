import dataclasses
import functools

import numpy as np
import pytest

from ncgeo import triples
from ncgeo.algebra import center, generate_algebra
from ncgeo.convert import spinc_to_riemannian
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.linalg import Tolerance, adjoint, operator_norm, random_complex, random_hermitian
from ncgeo.modules import parseval_frame
from ncgeo.triples import (
    HochschildChain,
    SpectralTripleData,
    chain_mul,
    chain_coefficient_norm,
    check_extras,
    check_finiteness,
    check_first_order,
    check_orientability,
    check_riemannian,
    check_spinc,
    commutator_algebra,
    connectivity_projectors,
    fit_orientation_cycle,
    hochschild_boundary,
    represent_chain,
    run_condition_suite,
    validate_triple,
    zeta_diagnostic,
)

from test_convert import expectation_pairing

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestValidate:
    def test_trivial(self):
        rep = validate_triple(trivial_points(4))
        assert rep.passed

    def test_two_point_commutator_norm(self):
        t = two_point(1.0)
        rep = validate_triple(t)
        assert rep.passed
        # |[D, diag(1,0)]| = 1 by direct 2x2 computation
        a = t.algebra_gens[0]
        assert operator_norm(t.dirac @ a - a @ t.dirac) == pytest.approx(1.0)

    def test_non_hermitian_dirac_rejected(self):
        with pytest.raises(ValueError):
            validate_triple(SpectralTripleData(2, [np.eye(2)], np.array([[0, 1], [0, 0]])))


class TestCommutatorAlgebra:
    def test_zero_dirac(self):
        t = trivial_points(3)
        assert t.cda().dim == t.algebra().dim == 3

    def test_two_point_full(self):
        assert two_point(1.0).cda().dim == 4

    def test_matrix_geometry_dim(self):
        t = matrix_geometry(2, seed=1)
        assert t.cda().dim == 16

    def test_cache_keyed_on_whole_tolerance(self, monkeypatch):
        # the cda depends on rel through graded_split, so a new rel is a new build
        builds = []

        def counted(t, tol):
            builds.append(tol)
            return commutator_algebra(t, tol)

        monkeypatch.setattr(triples, "commutator_algebra", counted)
        t = matrix_geometry(2, seed=7)
        first = t.cda(Tolerance(rel=1e-9))
        assert t.cda() is first
        second = t.cda(Tolerance(rel=1e-6))
        assert second is not first and t.cda(Tolerance(rel=1e-6)) is second
        assert builds == [Tolerance(rel=1e-9), Tolerance(rel=1e-6)]
        monkeypatch.undo()
        # a default-tolerance report reads the default-tolerance entry
        assert run_condition_suite(t).as_dict() == run_condition_suite(matrix_geometry(2, seed=7)).as_dict()

    def test_replace_starts_with_empty_cache(self):
        t = matrix_geometry(2, seed=0)
        assert t.cda().dim == 16
        flat = dataclasses.replace(t, dirac=np.zeros_like(t.dirac))
        fresh = SpectralTripleData(t.hilbert_dim, t.algebra_gens, np.zeros_like(t.dirac),
                                   t.grading, t.declared_p, t.right_action_gens)
        assert flat.cda().dim == fresh.cda().dim == 4
        assert t.cda().dim == 16
        with pytest.raises(TypeError):
            SpectralTripleData(1, [np.eye(1)], np.zeros((1, 1)), _cache={})

    def test_regraded_copy_respans_without_generating(self, monkeypatch):
        t = matrix_geometry(2, seed=0)
        plain = dataclasses.replace(t, grading=None)
        plain.cda()
        builds = []

        def counted(t, tol):
            builds.append(tol)
            return commutator_algebra(t, tol)

        monkeypatch.setattr(triples, "commutator_algebra", counted)
        graded = plain.regraded(t.grading)
        assert graded.grading is t.grading and plain.grading is None
        assert np.array_equal(graded.cda().basis, commutator_algebra(t).basis)
        assert builds == []


class TestRepresentChain:
    def test_degree_zero(self):
        t = two_point(1.0)
        c = HochschildChain(0, [(np.diag([1.0, -1.0]),)])
        assert np.allclose(represent_chain(t, c), np.diag([1.0, -1.0]))

    def test_hand_computed_commutator(self):
        t = two_point(1.0)
        a0 = np.diag([1.0, 0.0]).astype(complex)
        a1 = np.diag([0.0, 1.0]).astype(complex)
        c = HochschildChain(1, [(a0, a1)])
        expected = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(represent_chain(t, c), expected)

    def test_empty_chain(self):
        t = two_point(1.0)
        assert np.allclose(represent_chain(t, HochschildChain(1, [])), np.zeros((2, 2)))

    def test_multiplicative_on_products(self):
        rng = np.random.default_rng(10)
        t = matrix_geometry(2, seed=3)
        alg = t.algebra()
        for _ in range(5):
            def rand_elem():
                return sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                           for b in alg.basis)
            c1 = HochschildChain(1, [(rand_elem(), rand_elem())])
            c2 = HochschildChain(1, [(rand_elem(), rand_elem())])
            prod = chain_mul(c1, c2)
            lhs = represent_chain(t, prod)
            rhs = represent_chain(t, c1) @ represent_chain(t, c2)
            assert operator_norm(lhs - rhs) / max(1.0, operator_norm(rhs)) < 1e-10


class TestBoundary:
    def test_square_commutator(self):
        a = SIGMA1
        c = HochschildChain(1, [(a, a)])
        b = hochschild_boundary(c)
        alg = generate_algebra([SIGMA1, SIGMA3])
        assert chain_coefficient_norm(b, alg) < 1e-12

    def test_commutator_formula(self):
        a = SIGMA1
        bmat = SIGMA3
        c = HochschildChain(1, [(a, bmat)])
        bd = hochschild_boundary(c)
        total = sum(t[0] for t in bd.terms)
        assert np.allclose(total, a @ bmat - bmat @ a)

    def test_boundary_squared_vanishes(self):
        rng = np.random.default_rng(77)
        alg = generate_algebra([SIGMA1, SIGMA3])
        for _ in range(10):
            def rand_elem():
                return sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                           for b in alg.basis)
            c = HochschildChain(2, [(rand_elem(), rand_elem(), rand_elem()) for _ in range(2)])
            bb = hochschild_boundary(hochschild_boundary(c))
            assert chain_coefficient_norm(bb, alg) < 1e-12

    def test_degree_zero_degenerate(self):
        c = HochschildChain(0, [(np.eye(2),)])
        assert hochschild_boundary(c).terms == []


class TestOrientability:
    def test_two_point_passes(self):
        rep = check_orientability(two_point(1.0), strict=True)
        assert rep.passed, rep.as_text()
        for e in rep.entries:
            if e.condition_id.startswith("orient:volume"):
                assert e.residual < 1e-12

    def test_trivial_passes(self):
        assert check_orientability(trivial_points(2), strict=True).passed

    def test_matrix_geometry_strict_fails_generalized_passes(self):
        t = matrix_geometry(2, seed=5)
        strict = check_orientability(t, strict=True)
        assert not strict.passed
        gen = check_orientability(t, strict=False)
        assert gen.passed, gen.as_text()
        for e in gen.entries:
            assert e.status != "fail"


class TestFitOrientation:
    def test_two_point_recovers_cycle(self):
        t = two_point(1.0)
        chain, resid = fit_orientation_cycle(t, 0)
        assert resid < 1e-12
        rec = represent_chain(t, chain)
        sign = np.sign(np.real(rec[0, 0]))
        assert operator_norm(sign * rec - np.diag([1.0, -1.0])) < 1e-10

    def test_zero_dirac_identity_target(self):
        t = trivial_points(3)
        chain, resid = fit_orientation_cycle(t, 0, target=np.eye(3))
        assert resid < 1e-12

    def test_matrix_geometry_strict_infeasible(self):
        t = matrix_geometry(2, seed=5)
        chain, resid = fit_orientation_cycle(t, 0)
        assert resid > 0.9  # orthogonal target: fit residual is the full norm

    def test_matrix_geometry_generalized_recovers(self):
        t = matrix_geometry(2, seed=5)
        chain, resid = fit_orientation_cycle(t, 0, generalized=True)
        assert resid < 1e-10
        assert operator_norm(represent_chain(t, chain) - t.grading) < 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_positive_degree_rejected(self, p):
        # only degree-0 cycles are fitted, strict or generalized
        for generalized in (False, True):
            with pytest.raises(ValueError, match="only supports degree 0"):
                fit_orientation_cycle(two_point(1.0), p, target=np.zeros((2, 2)),
                                      generalized=generalized)


def two_qubit_triple(right_gens):
    """H = C^2 (x) C^2, grading s3 (x) 1, D = s1 (x) s1, left generator
    1 (x) diag(1, 0), right generators b (x) 1 for the named b."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.diag([1.0, -1.0]).astype(complex)
    one = np.eye(2, dtype=complex)
    paulis = {"1": one, "s1": s1, "s2": s2, "1+s2": one + s2}
    return SpectralTripleData(
        4, [np.kron(one, np.diag([1.0, 0.0]))], np.kron(s1, s1), np.kron(s3, one), 0,
        right_action_gens=[np.kron(paulis[b], one) for b in right_gens],
    )


class TestFirstOrder:
    def test_matrix_geometry_exact(self):
        rep = check_first_order(matrix_geometry(2, seed=2))
        assert rep.passed
        assert rep.entry("first_order:dirac_commutators").residual < 1e-12

    def test_commutative_right_equals_left(self):
        rep = check_first_order(trivial_points(3))
        assert rep.entry("first_order:dirac_commutators").residual == pytest.approx(0.0)

    def test_noncommuting_right_action_detected(self):
        t = matrix_geometry(2, seed=2)
        broken = SpectralTripleData(
            t.hilbert_dim, t.algebra_gens, t.dirac, t.grading, 0,
            right_action_gens=[t.algebra_gens[1]],  # left generator posing as right action
        )
        rep = check_first_order(broken)
        assert not rep.passed
        assert rep.entry("first_order:actions_commute").residual > 0.1

    @pytest.mark.parametrize("right_gens", [["1+s2"], ["1", "s2"]], ids=["mixed", "homogeneous"])
    def test_verdict_independent_of_generator_parity(self, right_gens):
        # both lists generate the same right algebra span{1, s2} (x) 1
        rep = check_first_order(two_qubit_triple(right_gens))
        assert rep.passed, rep.as_text()
        assert rep.entry("first_order:actions_commute").residual < 1e-12
        assert rep.entry("first_order:dirac_commutators").residual < 1e-12

    def test_odd_generator_violating_graded_first_order_fails(self):
        rep = check_first_order(two_qubit_triple(["s1"]))
        assert not rep.passed
        assert rep.entry("first_order:dirac_commutators").residual > 0.1


class TestFiniteness:
    def test_trivial(self):
        rep, ctx = check_finiteness(trivial_points(3))
        assert rep.passed, rep.as_text()

    def test_matrix_geometry_trace_identity(self):
        rep, ctx = check_finiteness(matrix_geometry(2, seed=4))
        assert rep.passed, rep.as_text()
        assert rep.entry("finite:state_reproduces_scalar_product").residual < 1e-10

    def test_scaled_state_fails(self):
        t = matrix_geometry(2, seed=4)
        scaled = SpectralTripleData(
            t.hilbert_dim, t.algebra_gens, t.dirac, t.grading, 0,
            right_action_gens=t.right_action_gens,
            state=2.0 * np.eye(t.hilbert_dim),
        )
        rep, _ = check_finiteness(scaled)
        entry = rep.entry("finite:state_reproduces_scalar_product")
        assert entry.status == "fail"
        assert entry.residual == pytest.approx(1.0, rel=0.2)


    @pytest.mark.parametrize("n, seed", [
        pytest.param(2, 7, id="7"),
        pytest.param(2, 2001408477, id="2001408477"),
        pytest.param(2, 0, id="n2-seed0"),
        pytest.param(3, 0, id="n3-seed0"),
    ])
    def test_frame_residual_matches_probe_loop(self, n, seed):
        t = matrix_geometry(n, seed=seed)
        worst = looped_frame_residual(t, parseval_frame(t.cda()))
        rep, _ = check_finiteness(t)
        # both sit at roundoff and the contraction sums in another order than
        # the loop, so they agree to a few parts in a thousand, not bitwise
        assert rep.entry("finite:frame_reproduces").residual == pytest.approx(worst, rel=1e-2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_frame_residual_matches_probe_loop_off_roundoff(self, n, monkeypatch):
        # a perturbed frame reconstructs badly, so the residual is far from
        # roundoff and the contraction must match the loop to 1e-12
        t = matrix_geometry(n, seed=0)
        rng = np.random.default_rng(n)
        frame = [x + 0.1 * random_complex(rng, x.shape) for x in parseval_frame(t.cda())]
        monkeypatch.setattr(triples, "parseval_frame", lambda cda, tol: frame)
        worst = looped_frame_residual(t, frame)
        rep, _ = check_finiteness(t)
        assert worst > 0.05
        assert abs(rep.entry("finite:frame_reproduces").residual - worst) <= 1e-12


def looped_frame_residual(t, frame):
    """Reference: the per-probe reconstruction loop of check_finiteness
    before it contracted over the stacked basis."""
    pair = expectation_pairing(t.cda())
    worst = 0.0
    for g in np.eye(t.hilbert_dim, dtype=complex):
        recon = np.zeros(t.hilbert_dim, dtype=complex)
        for x in frame:
            recon = recon + pair(g, x) @ x
        worst = max(worst, float(np.linalg.norm(recon - g)))
    return worst


def with_state(t, rng):
    """The triple with a generic complex state matrix: not Hermitian, so no
    symmetry of the state hides a transposed contraction."""
    g = rng.standard_normal((t.hilbert_dim,) * 2) + 1j * rng.standard_normal((t.hilbert_dim,) * 2)
    return dataclasses.replace(t, state=g / t.hilbert_dim)


def looped_finiteness(t):
    """Reference: the state loops of check_finiteness before it contracted
    over the stacked basis; (state residual, Gram)."""
    cda = t.cda()
    pair = expectation_pairing(cda)
    n = t.hilbert_dim
    basis = np.eye(n, dtype=complex)
    state_worst = 0.0
    for i in range(n):
        for j in range(n):
            lhs = complex(np.vdot(basis[j], basis[i]))
            state_worst = max(state_worst, abs(lhs - t.psi(pair(basis[i], basis[j]))))
    gram = np.zeros((cda.dim, cda.dim), dtype=complex)
    for i, u in enumerate(cda.basis):
        for j, w in enumerate(cda.basis):
            gram[i, j] = t.psi(adjoint(u) @ w)
    return state_worst, gram


def looped_riemannian(t):
    """Reference: the metric solve and tracial entry of check_riemannian as
    per-element loops; (solve residual, metric, tracial residual)."""
    phi = t.riemann_vector
    cda = t.cda()
    zc = center(cda)
    rows, rhs = [], []
    for w in cda.basis:
        for v in cda.basis:
            rows.append([t.psi(w @ zk @ adjoint(v)) for zk in zc])
            rhs.append(complex(np.vdot(v @ phi, w @ phi)))
    amat = np.array(rows, dtype=complex)
    bvec = np.array(rhs, dtype=complex)
    coeff, _, _, _ = np.linalg.lstsq(amat, bvec, rcond=None)
    resid = float(np.linalg.norm(amat @ coeff - bvec)) / max(1.0, float(np.linalg.norm(bvec)))
    z = sum(c * zk for c, zk in zip(coeff, zc))
    tracial = 0.0
    for u in cda.basis:
        for w in cda.basis:
            lhs = complex(np.vdot(phi, u @ w @ phi))
            rhs_uw = complex(np.vdot(phi, w @ u @ phi))
            tracial = max(tracial, abs(lhs - rhs_uw) / max(1.0, float(np.vdot(phi, phi).real)))
    return resid, z, tracial


@functools.lru_cache(maxsize=None)
def riemannian_output(n, seed):
    return spinc_to_riemannian(matrix_geometry(n, seed=seed)).output


RIEMANNIAN_CASES = {
    "mgeom2_s7": lambda: riemannian_output(2, 7),
    "riemannian_h36": lambda: riemannian_output(3, 0),
    "trivial_points_4": lambda: trivial_points(4),
}


class TestContractionsMatchLoops:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("state", [False, True])
    def test_finiteness(self, n, state):
        t = matrix_geometry(n, seed=0)
        if state:
            t = with_state(t, np.random.default_rng(n))
        state_worst, gram = looped_finiteness(t)
        rep, _ = check_finiteness(t)
        assert abs(rep.entry("finite:state_reproduces_scalar_product").residual
                   - state_worst) <= 1e-12
        vals = np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0)
        assert rep.entry("finite:state_faithful").details == f"min Gram eigenvalue {vals[0]:.3e}"
        if state:
            assert state_worst > 0.1

    @pytest.mark.parametrize("case", sorted(RIEMANNIAN_CASES))
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_riemannian(self, case, perturbed):
        t = RIEMANNIAN_CASES[case]()
        if perturbed:
            # a generic state and vector: the vector state is not tracial, so
            # the solve and the tracial entry have nonzero residuals
            rng = np.random.default_rng(5)
            t = with_state(t, rng)
            t = dataclasses.replace(t, riemann_vector=random_complex(rng, t.hilbert_dim))
        resid, z, tracial = looped_riemannian(t)
        rep, ctx = check_riemannian(t)
        assert abs(rep.entry("riemann:metric_solves_state").residual - resid) <= 1e-12
        assert operator_norm(ctx["metric"] - z) <= 1e-12 * max(1.0, operator_norm(z))
        assert abs(rep.entry("riemann:vector_state_tracial").residual - tracial) <= 1e-12
        if not perturbed:
            assert rep.passed, rep.as_text()
        elif case != "trivial_points_4":  # commutative: every vector state is tracial
            assert min(resid, tracial) > 1e-3




class TestSpinc:
    def test_matrix_geometry_passes(self):
        rep, ctx = check_spinc(matrix_geometry(2, seed=6))
        assert rep.passed, rep.as_text()

    def test_trivial_self_equivalence(self):
        rep, _ = check_spinc(trivial_points(3))
        assert rep.passed, rep.as_text()

    def test_two_point_fails_on_commutant(self):
        rep, _ = check_spinc(two_point(1.0))
        assert not rep.passed
        entry = rep.entry("spinc:commutant_matches_right_action")
        assert entry.status == "fail"
        assert "commutant dim 1" in entry.details and "right action dim 2" in entry.details


class TestRiemannian:
    def test_trivial_metric_scale(self):
        n = 4
        t = trivial_points(n)
        rep, ctx = check_riemannian(t)
        assert rep.passed, rep.as_text()
        z = ctx["metric"]
        assert operator_norm(z - np.eye(n) / n) < 1e-10

    def test_basis_vector_not_cyclic(self):
        t = matrix_geometry(2, seed=6)
        phi = np.zeros(t.hilbert_dim, dtype=complex)
        phi[0] = 1.0
        probe = SpectralTripleData(
            t.hilbert_dim, t.algebra_gens, t.dirac, t.grading, 0,
            right_action_gens=t.right_action_gens, riemann_vector=phi,
        )
        rep, _ = check_riemannian(probe)
        assert rep.entry("riemann:cyclic").status == "fail"

    def test_skipped_without_vector(self):
        rep, _ = check_riemannian(two_point(1.0))
        assert rep.entries[0].status == "skipped"


class TestExtras:
    def test_trivial_connectivity(self):
        rep = check_extras(trivial_points(4))
        entry = rep.entry("extras:connectivity")
        assert entry.status == "pass"
        assert "4 projectors" in entry.details

    def test_matrix_geometry_connected(self):
        rep = check_extras(matrix_geometry(2, seed=8))
        entry = rep.entry("extras:connectivity")
        assert entry.status == "pass"
        assert "1 projectors" in entry.details

    @pytest.mark.parametrize("make, ranks", [
        pytest.param(functools.partial(matrix_geometry, 2, seed=0), [8], id="mgeom2"),
        pytest.param(functools.partial(matrix_geometry, 3, seed=0), [18], id="mgeom3"),
        pytest.param(functools.partial(two_point, 1.0), [2], id="two_point"),
    ] + [pytest.param(functools.partial(trivial_points, k), [1] * k, id=f"trivial_points_{k}")
         for k in range(2, 8)])
    def test_connectivity_projector_ranks(self, make, ranks):
        projs, why = connectivity_projectors(make())
        assert why == ""
        assert [round(float(np.trace(p).real), 9) for p in projs] == ranks

    def test_reality_on_trivial(self):
        t = trivial_points(3)
        rep = check_extras(t, conjugation=np.eye(3, dtype=complex))
        entry = rep.entry("extras:reality_signs")
        assert entry.status == "pass"
        assert "+1" in entry.details

    def test_matrix_geometry_reality(self):
        n = 2
        t = matrix_geometry(n, seed=9)
        # adjoint-of-matrix conjugation: kernel is the transposition permutation
        perm = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                perm[i * n + j, j * n + i] = 1.0
        kernel = np.kron(perm, np.eye(2, dtype=complex))
        rep = check_extras(t, conjugation=kernel)
        assert rep.entry("extras:reality_exchanges_actions").status == "pass"


class TestZeta:
    def test_zero_dirac(self):
        t = trivial_points(5)
        table = zeta_diagnostic(t, [0.0, 1.0, 7.5])
        assert all(v == pytest.approx(5.0) for _, v in table)

    def test_two_eigenvalues(self):
        t = SpectralTripleData(2, [np.eye(2)], np.diag([1.0, -1.0]))
        table = zeta_diagnostic(t, [2.0])
        assert table[0][1] == pytest.approx(1.0)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(12)
        d = random_hermitian(rng, 6)
        t = SpectralTripleData(6, [np.eye(6)], d)
        vals = np.linalg.eigvalsh(d)
        for s in (0.5, 2.0, 3.0):
            expected = float(np.sum((1 + vals ** 2) ** (-s / 2)))
            assert zeta_diagnostic(t, [s])[0][1] == pytest.approx(expected, abs=1e-12)


def test_report_determinism():
    t = matrix_geometry(2, seed=13)
    r1, _ = check_spinc(t)
    t2 = matrix_geometry(2, seed=13)
    r2, _ = check_spinc(t2)
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.residual == e2.residual


class TestOrientationGradingSlot:
    def test_volume_operator_is_valid_grading(self):
        # even declared dimension: a passing orientation operator fills the
        # grading slot of a valid triple
        t = two_point(1.0)
        assert check_orientability(t, strict=True).passed
        gamma = represent_chain(t, t.orientation_cycle)
        probe = SpectralTripleData(2, t.algebra_gens, t.dirac, gamma, 0)
        assert validate_triple(probe).passed


class TestExtrasClosedness:
    def test_runs_for_positive_declared_dimension(self):
        t0 = two_point(1.0)
        t = SpectralTripleData(2, t0.algebra_gens, t0.dirac, t0.grading, 1,
                               right_action_gens=t0.right_action_gens)
        rep = check_extras(t)
        entry = rep.entry("extras:closedness")
        assert entry.status in ("pass", "fail")

    def test_skipped_for_degree_zero(self):
        rep = check_extras(two_point(1.0))
        assert rep.entry("extras:closedness").status == "skipped"


class TestExampleEdges:
    def test_single_point(self):
        t = trivial_points(1)
        assert validate_triple(t).passed
        rep, ctx = check_riemannian(t)
        assert rep.passed
        assert abs(ctx["metric"][0, 0] - 1.0) < 1e-12

    def test_complex_coupling_two_point(self):
        t = two_point(0.3 - 0.7j)
        assert validate_triple(t).passed
        assert check_orientability(t, strict=True).passed

    def test_invalid_parameters(self):
        import pytest as _pytest
        from ncgeo.examples import build_example
        with _pytest.raises(ValueError):
            build_example("trivial_points", n=0)
        with _pytest.raises(ValueError):
            build_example("two_point", coupling=0.0)
        with _pytest.raises(ValueError):
            build_example("matrix_geometry", n=1, seed=0)
