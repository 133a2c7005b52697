from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeo.algebra import AlgebraBasis, commutant, generate_algebra
from ncgeo.convert import spinc_to_riemannian
from ncgeo.examples import matrix_geometry, trivial_points
from ncgeo.linalg import DEFAULT_TOL, adjoint, max_span_residual, operator_norm, random_complex
from ncgeo.tomita import (
    AntiunitaryMap,
    check_fundamental_class,
    grading_from_cycle,
    mirror_dirac,
    opposite_action,
    opposite_algebra,
    tomita_conjugation,
)
from ncgeo.triples import SpectralTripleData, check_riemannian

from helpers import spans_equal
from test_linalg import loop_span_residuals


@pytest.fixture(scope="module")
def riemann_pair():
    t = matrix_geometry(2, seed=7)
    res = spinc_to_riemannian(t)
    tri = res.output
    j = AntiunitaryMap(res.witness["conjugation_kernel"])
    return tri, j, res


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_regraded_carries_the_conjugation(seed):
    # J depends on phi and the span of the cda, not on the grading: the map
    # that regraded carries is the one a fresh copy computes, and a
    # dataclasses.replace copy starts with no cached map or report
    t = spinc_to_riemannian(matrix_geometry(2, seed=seed)).output
    # the forward output is a regraded copy: its J came with it
    assert ("conjugation", DEFAULT_TOL) in t._cache
    j = tomita_conjugation(t)
    assert t.regraded(-t.grading)._cache[("conjugation", DEFAULT_TOL)] is j
    rep, _ = check_riemannian(t)
    assert check_riemannian(t)[0] is rep
    fresh = replace(t)
    assert ("conjugation", DEFAULT_TOL) not in fresh._cache
    assert ("riemannian", DEFAULT_TOL) not in fresh._cache
    assert np.max(np.abs(tomita_conjugation(fresh).kernel - j.kernel)) <= 1e-12


class TestTomitaConjugation:
    def test_trivial_is_entrywise_conjugation(self):
        t = trivial_points(4)
        j = tomita_conjugation(t)
        assert operator_norm(j.kernel - np.eye(4)) < 1e-10

    def test_swap_on_simple_tensors(self, riemann_pair):
        # on the twisted module the conjugation swaps the two tensor legs
        tri, j, res = riemann_pair
        xs = res.witness["frame"]
        u = res.witness["module_basis"]
        right = res.witness["source"].right_algebra()

        def pair_op(xi, eta):
            return right.expectation(np.outer(eta, np.conj(xi)))

        rng = np.random.default_rng(4)
        n = res.witness["source"].hilbert_dim
        m = len(xs)
        for _ in range(3):
            xi = random_complex(rng, n)
            eta = random_complex(rng, n)
            left = np.concatenate([pair_op(eta, xs[k]) @ xi for k in range(m)])
            rightv = np.concatenate([pair_op(xi, xs[k]) @ eta for k in range(m)])
            lhs = j(adjoint(u) @ left)
            rhs = adjoint(u) @ rightv
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_landing_check_matches_element_loop(self, riemann_pair):
        tri, j, _ = riemann_pair
        cda = tri.cda()
        comm = commutant(cda)
        loop = [comm.membership_residual(j.conjugate(adjoint(w))) for w in cda.basis]
        landed = j.kernel @ np.swapaxes(cda.basis, -1, -2) @ np.conj(j.kernel)
        worst = max_span_residual(landed, comm.basis)
        assert worst == max(loop_span_residuals(landed, comm.basis))
        assert abs(worst - max(loop)) <= 1e-12
        assert max(loop) < 1e-6

    def test_non_tracial_state_rejected(self):
        # skewed vector: cyclic and separating but the vector state is not a trace
        t = trivial_points(2)
        tri = SpectralTripleData(
            2, t.algebra_gens, np.zeros((2, 2)), np.eye(2), 0,
            riemann_vector=np.array([1.0, 2.0]) / np.sqrt(5.0),
        )
        j = tomita_conjugation(tri)  # diagonal algebra: still tracial, fine
        assert j is not None
        full = SpectralTripleData(
            2, [np.array([[0, 1], [1, 0]], dtype=complex)],
            np.diag([1.0, -1.0]).astype(complex), None, 0,
            riemann_vector=np.array([1.0, 0.5]) / np.sqrt(1.25),
        )
        with pytest.raises(ValueError):
            tomita_conjugation(full)

    def test_commutant_characterizes_center(self, riemann_pair):
        tri, j, _ = riemann_pair
        cda = tri.cda()
        # central elements are exactly the conjugation-fixed ones
        from ncgeo.algebra import center
        zc = center(cda)
        for z in zc:
            assert operator_norm(z - j.conjugate(adjoint(z))) < 1e-9
        # a noncentral element moves
        w = cda.basis[3]
        from ncgeo.linalg import span_residual
        if span_residual(w, zc if len(zc) else [np.zeros_like(w)]) > 1e-6:
            moved = operator_norm(w - j.conjugate(adjoint(w)))
            assert moved > 1e-6

    def test_vector_state_trace_on_bicommutant(self, riemann_pair):
        tri, j, _ = riemann_pair
        cda = tri.cda()
        double = commutant(commutant(cda))
        phi = tri.riemann_vector
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = sum(rng.standard_normal() * b for b in double.basis)
            y = sum(rng.standard_normal() * b for b in double.basis)
            lhs = np.vdot(phi, x @ y @ phi)
            rhs = np.vdot(phi, y @ x @ phi)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


class TestOppositeAction:
    def test_identity(self):
        j = AntiunitaryMap(np.eye(3))
        assert np.allclose(opposite_action(j, np.eye(3)), np.eye(3))

    def test_trivial_example_transposes(self):
        # with the entrywise conjugation J, the opposite action is the
        # transpose J a* J = a^T; on the diagonal algebra this is the same
        # multiplication action
        t = trivial_points(3)
        j = tomita_conjugation(t)
        a = np.diag([1.0 + 1.0j, 2.0, 0.0])
        assert operator_norm(opposite_action(j, a) - a.T) < 1e-10

    def test_antimultiplicative(self, riemann_pair):
        tri, j, _ = riemann_pair
        rng = np.random.default_rng(3)
        cda = tri.cda()
        for _ in range(5):
            a = sum(rng.standard_normal() * b for b in cda.basis)
            b = sum(rng.standard_normal() * w for w in cda.basis)
            lhs = opposite_action(j, a @ b)
            rhs = opposite_action(j, b) @ opposite_action(j, a)
            assert operator_norm(lhs - rhs) < 1e-10 * max(1.0, operator_norm(rhs))

    def test_commutes_with_original(self, riemann_pair):
        tri, j, _ = riemann_pair
        cda = tri.cda()
        worst = 0.0
        for a in cda.basis[:6]:
            aop = opposite_action(j, a)
            for b in cda.basis[:6]:
                worst = max(worst, operator_norm(aop @ b - b @ aop))
        assert worst < 1e-9


def wedderburn_pattern(blocks):
    """Orthonormal basis of +_k M_{n_k} (x) 1_{m_k} in the standard basis."""
    hdim = sum(n_k * m_k for n_k, m_k in blocks)
    out, lo = [], 0
    for n_k, m_k in blocks:
        for a in range(n_k):
            for b in range(n_k):
                x = np.zeros((hdim, hdim), dtype=complex)
                e = np.zeros((n_k, n_k))
                e[a, b] = 1.0
                x[lo:lo + n_k * m_k, lo:lo + n_k * m_k] = np.kron(e, np.eye(m_k)) / np.sqrt(m_k)
                out.append(x)
        lo += n_k * m_k
    return np.array(out)


@pytest.fixture(scope="module", params=[0, 7])
def forward_cda_conjugation(request):
    tri = spinc_to_riemannian(matrix_geometry(2, seed=request.param)).output
    return tri.cda(), tomita_conjugation(tri)


class TestOppositeAlgebra:
    def test_wedderburn_unitary_and_block_diagonalizing(self, forward_cda_conjugation):
        cda, j = forward_cda_conjugation
        opp = opposite_algebra(j, cda)
        w, blocks = opp.wedderburn
        assert blocks == cda.wedderburn[1]
        n = cda.hilbert_dim
        assert operator_norm(adjoint(w) @ w - np.eye(n)) < 1e-12
        coords = adjoint(w) @ opp.basis @ w
        assert max_span_residual(coords, wedderburn_pattern(blocks)) < 1e-12

    def test_carries_basis_generators_and_commutant(self, forward_cda_conjugation):
        cda, j = forward_cda_conjugation
        # the forward output's cda is carried, a generated one is not, and
        # both give the opposite's commutant from the carried Wedderburn data
        for alg in (cda, generate_algebra(list(cda.generators))):
            opp = opposite_algebra(j, alg)
            assert np.array_equal(opp.basis, opposite_action(j, alg.basis))
            assert np.array_equal(opp.generators, opposite_action(j, alg.generators))
            assert spans_equal(commutant(opp).basis, opposite_action(j, commutant(alg).basis), tol=1e-12)
            # still orthonormal in the trace inner product
            flat = opp.basis.reshape(opp.dim, -1)
            assert operator_norm(flat.conj() @ flat.T - np.eye(opp.dim)) < 1e-12

    def test_hand_built_algebra_has_no_wedderburn_data(self, riemann_pair):
        tri, j, _ = riemann_pair
        opp = opposite_algebra(j, AlgebraBasis(tri.hilbert_dim, tri.cda().basis))
        assert opp.wedderburn is None


class TestGradingFromCycle:
    def test_trivial_identity(self):
        t = trivial_points(3)
        j = tomita_conjugation(t)
        eps, rep = grading_from_cycle(t, np.eye(3, dtype=complex), j)
        assert rep.passed
        assert operator_norm(eps - np.eye(3)) < 1e-10

    def test_matrix_geometry_output(self, riemann_pair):
        tri, j, res = riemann_pair
        c_op = res.witness["orientation_image"]
        eps, rep = grading_from_cycle(tri, c_op, j)
        assert rep.passed, rep.as_text()
        assert operator_norm(eps @ tri.dirac + tri.dirac @ eps) < 1e-9 * max(
            1.0, operator_norm(tri.dirac))

    def test_odd_declared_dimension_rejected(self):
        n = 3
        t = trivial_points(n)
        c_op = np.diag([1.0, 1.0, -1.0]).astype(complex)
        tri = SpectralTripleData(
            n, t.algebra_gens, np.zeros((n, n)), None, 1,
            riemann_vector=t.riemann_vector,
        )
        with pytest.raises(ValueError, match="even declared dimension, got p = 1"):
            grading_from_cycle(tri, c_op, tomita_conjugation(tri))


class TestMirrorAndFundamentalClass:
    def test_zero_dirac(self):
        t = trivial_points(3)
        j = tomita_conjugation(t)
        d_conj, d_mirror, rep = mirror_dirac(t, j, np.eye(3, dtype=complex))
        assert operator_norm(d_conj) == 0.0 and operator_norm(d_mirror) == 0.0
        frep = check_fundamental_class(t, j, np.eye(3, dtype=complex))
        assert frep.passed, frep.as_text()
        for e in frep.entries:
            if e.condition_id != "fundamental:phase_commutators":
                assert e.residual < 1e-12

    def test_commutative_real_dirac(self):
        # diagonal algebra, real diagonal Dirac: the conjugation is entrywise,
        # so the conjugated operator equals the original and the mirror is i D eps
        gens = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        d = np.diag([1.0, -1.0, 2.0]).astype(complex)
        phi = np.ones(3, dtype=complex) / np.sqrt(3.0)
        tri = SpectralTripleData(3, gens, d, None, 0, riemann_vector=phi)
        j = tomita_conjugation(tri)
        eps = np.eye(3, dtype=complex)
        d_conj, d_mirror, _ = mirror_dirac(tri, j, eps)
        assert operator_norm(d_conj - d) < 1e-9
        assert operator_norm(d_mirror - 1j * d @ eps) < 1e-9

    def test_matrix_geometry_fundamental_class(self, riemann_pair):
        tri, j, res = riemann_pair
        eps = res.witness["epsilon"]
        rep = check_fundamental_class(tri, j, eps)
        assert rep.passed, rep.as_text()
        assert rep.entry("fundamental:anticommutation").residual < 1e-10
        assert rep.entry("fundamental:bounded_part_left_linear").residual < 1e-10
        assert rep.entry("fundamental:twist_star_preserving").residual < 1e-10
        assert rep.entry("fundamental:phase_mirror_identity").residual < 1e-10

    def test_broken_grading_detected(self, riemann_pair):
        tri, j, res = riemann_pair
        eps = res.witness["epsilon"].copy()
        # flip the sign of the grading on one eigenvector
        vals, vecs = np.linalg.eigh(eps)
        flip = vecs[:, :1]
        eps_bad = eps - 2.0 * vals[0] * (flip @ adjoint(flip))
        rep = check_fundamental_class(tri, j, eps_bad)
        assert not rep.passed
        assert max(e.residual for e in rep.failures()) > 0.1
