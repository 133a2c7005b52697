import numpy as np
import pytest

from ncgeo import triples
from ncgeo.algebra import generate_algebra
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.linalg import Tolerance, adjoint, operator_norm, random_hermitian
from ncgeo.modules import expectation_pairing, parseval_frame
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
    fit_orientation_cycle,
    hochschild_boundary,
    represent_chain,
    run_condition_suite,
    validate_triple,
    zeta_diagnostic,
)

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
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
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
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
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

    def test_degree_one_cycle_constraint(self):
        # fitted degree-1 chains satisfy the cycle condition by construction
        t = two_point(1.0)
        chain, resid = fit_orientation_cycle(t, 1, target=np.zeros((2, 2)))
        if chain is not None and chain.terms:
            b = hochschild_boundary(chain)
            assert chain_coefficient_norm(b, t.algebra()) < 1e-8


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


    @pytest.mark.parametrize("seed", [7, 2001408477])
    def test_frame_residual_matches_probe_loop(self, seed):
        # reference: the per-probe reconstruction loop check_finiteness used
        # before it called the shared frame residual
        t = matrix_geometry(2, seed=seed)
        cda = t.cda()
        pair = expectation_pairing(cda)
        frame = parseval_frame(cda)
        worst = 0.0
        for g in np.eye(t.hilbert_dim, dtype=complex):
            recon = np.zeros(t.hilbert_dim, dtype=complex)
            for x in frame:
                recon = recon + pair(g, x) @ x
            worst = max(worst, float(np.linalg.norm(recon - g)))
        rep, _ = check_finiteness(t)
        assert rep.entry("finite:frame_reproduces").residual == worst


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
