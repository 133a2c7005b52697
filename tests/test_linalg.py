import numpy as np
import pytest

from ncgeo.linalg import (
    Tolerance,
    adjoint,
    herm_eig,
    operator_norm,
    project_onto_span,
    random_complex,
    random_hermitian,
    span_basis,
    span_coords,
    span_residual,
    span_residuals,
    trace_inner,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def power_iteration_norm(m, iters=2000, seed=11):
    rng = np.random.default_rng(seed)
    g = adjoint(m) @ m
    v = random_complex(rng, g.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = g @ v
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(adjoint(vecs) @ vecs, np.eye(3))

    def test_diagonal(self):
        vals, _ = herm_eig(np.diag([2.0, -1.0]))
        assert np.allclose(vals, [-1.0, 2.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 12)
        vals, vecs = herm_eig(h)
        recon = vecs @ np.diag(vals) @ adjoint(vecs)
        assert operator_norm(recon - h) / operator_norm(h) < 1e-12

    def test_positive_matrix_eigenvalues(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, (9, 9))
        p = adjoint(g) @ g
        vals, _ = herm_eig(p)
        assert vals[0] >= -1e-10 * operator_norm(p)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSpanBasis:
    def test_multiples_collapse(self):
        basis = span_basis([np.eye(2), 2 * np.eye(2)])
        assert len(basis) == 1

    def test_pauli_words_gram_rank(self):
        mats = [SIGMA1, SIGMA3, SIGMA1 @ SIGMA3]
        basis = span_basis(mats)
        gram = np.array([[trace_inner(a, b) for b in mats] for a in mats])
        assert len(basis) == np.linalg.matrix_rank(gram)
        assert len(basis) == 3

    def test_empty(self):
        assert span_basis([]) == []

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        mats = [random_complex(rng, (3, 3)) for _ in range(5)]
        basis = span_basis(mats)
        again = span_basis(basis)
        assert len(again) == len(basis)

    def test_inputs_in_span(self):
        rng = np.random.default_rng(9)
        mats = [random_complex(rng, (4, 4)) for _ in range(3)]
        mats.append(mats[0] + 0.5 * mats[1])
        basis = span_basis(mats)
        assert len(basis) == 3
        for m in mats:
            assert span_residual(m, basis) < 1e-9

    def test_list_and_stacked_basis_agree(self):
        rng = np.random.default_rng(13)
        basis = span_basis([random_complex(rng, (3, 3)) for _ in range(4)])
        x = random_complex(rng, (3, 3))
        for b in (basis, []):
            stacked = np.asarray(b, dtype=complex).reshape(-1, 3, 3)
            coords = [trace_inner(m, x) for m in b]
            assert np.allclose(span_coords(x, b), coords, rtol=0, atol=1e-12)
            assert np.allclose(span_coords(x, stacked), coords, rtol=0, atol=1e-12)
            proj = sum((c * m for c, m in zip(coords, b)), np.zeros((3, 3), dtype=complex))
            assert np.allclose(project_onto_span(x, b), proj, rtol=0, atol=1e-12)
            assert np.allclose(project_onto_span(x, stacked), proj, rtol=0, atol=1e-12)
            assert abs(span_residual(x, b) - span_residual(x, stacked)) < 1e-12
        assert span_coords(x, []).shape == (0,)
        assert np.array_equal(project_onto_span(x, []), np.zeros((3, 3)))
        assert span_residual(x, []) == pytest.approx(1.0)

    def test_batched_residuals_match_loop(self):
        rng = np.random.default_rng(17)
        basis = span_basis([random_complex(rng, (4, 4)) for _ in range(6)])
        inside = [sum(rng.standard_normal() * b for b in basis) for _ in range(3)]
        xs = np.stack(inside + [random_complex(rng, (4, 4)) for _ in range(5)])
        loop = [span_residual(x, basis) for x in xs]
        assert max(loop[:3]) < 1e-12 and min(loop[3:]) > 0.1
        for b in (basis, np.asarray(basis), []):
            loop = [span_residual(x, b) for x in xs]
            assert np.allclose(span_residuals(xs, b), loop, rtol=0, atol=1e-12)


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(21)
        m = random_complex(rng, (8, 8))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), rel=1e-8)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(2)
        for k in range(5):
            m = random_complex(rng, (6, 6))
            assert abs(operator_norm(m) - operator_norm(adjoint(m))) <= 1e-12 * operator_norm(m)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_cut=-1.0)
