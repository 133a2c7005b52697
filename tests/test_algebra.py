import itertools

import numpy as np
import pytest

from ncgeo import algebra
from ncgeo.algebra import AlgebraBasis, commutant, center, generate_algebra, graded_split
from ncgeo.convert import spinc_to_riemannian
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.linalg import DEFAULT_TOL, adjoint, null_space, operator_norm, span_basis, span_residual

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def brute_force_word_closure(gens, max_len=4):
    """Span of all words in the generators and adjoints up to a length."""
    letters = list(gens) + [adjoint(g) for g in gens]
    words = [np.eye(gens[0].shape[0], dtype=complex)]
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            w = combo[0]
            for m in combo[1:]:
                w = w @ m
            words.append(w)
    return span_basis(words)


class TestGenerateAlgebra:
    def test_unit_only(self):
        alg = generate_algebra([np.zeros((3, 3))], with_unit=True)
        assert alg.dim == 1

    def test_diagonal_two_dim(self):
        alg = generate_algebra([np.diag([1.0, -1.0])], with_unit=True)
        assert alg.dim == 2

    def test_pauli_closure_matches_brute_force(self):
        gens = [SIGMA1, SIGMA3]
        alg = generate_algebra(gens, with_unit=True)
        oracle = brute_force_word_closure(gens)
        assert alg.dim == len(oracle) == 4

    def test_monotone_in_generators(self):
        a1 = generate_algebra([SIGMA3], with_unit=True)
        a2 = generate_algebra([SIGMA3, SIGMA1], with_unit=True)
        assert a2.dim >= a1.dim

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generate_algebra([np.eye(2), np.eye(3)])

    def test_stacked_basis_and_generators(self):
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
        assert alg.basis.shape == (4, 2, 2)
        assert np.array_equal(alg.generators, np.stack([SIGMA1, SIGMA3]))
        x = 0.5 * SIGMA1 - 2j * SIGMA3
        assert np.allclose(alg.combine(alg.coords(x)), x, rtol=0, atol=1e-12)
        assert np.allclose(alg.expectation(x), x, rtol=0, atol=1e-12)
        assert alg.membership_residual(x) < 1e-12

    def test_closure_properties(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = generate_algebra([g], with_unit=True)
        for b1 in alg.basis:
            assert alg.membership_residual(adjoint(b1)) < 1e-9
            for b2 in alg.basis:
                assert alg.membership_residual(b1 @ b2) < 1e-9
        assert alg.membership_residual(np.eye(3)) < 1e-9


class TestCommutant:
    def test_full_matrix_algebra(self):
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
        comm = commutant(alg)
        assert comm.dim == 1

    def test_diagonals(self):
        alg = generate_algebra([np.diag([1.0, -1.0])], with_unit=True)
        comm = commutant(alg)
        assert comm.dim == 2

    def test_scalars(self):
        alg = generate_algebra([np.zeros((4, 4))], with_unit=True)
        comm = commutant(alg)
        assert comm.dim == 16

    def test_bicommutant_is_generated_algebra(self):
        blocks = np.zeros((5, 5), dtype=complex)
        blocks[:2, :2] = SIGMA1
        alg = generate_algebra([blocks], with_unit=True)
        double = commutant(commutant(alg))
        assert double.dim == alg.dim
        for b in alg.basis:
            assert span_residual(b, double.basis) < 1e-9

    def test_multiplicity_inequality_on_blocks(self):
        # dim(alg) dim(comm) >= hilbert_dim^2 on block fixtures
        m2 = np.zeros((5, 5), dtype=complex)
        m2[:2, :2] = SIGMA1
        m3 = np.zeros((5, 5), dtype=complex)
        m3[2:, 2:] = np.diag([1.0, 2.0, 3.0])
        alg = generate_algebra([m2, m3], with_unit=True)
        comm = commutant(alg)
        assert alg.dim * comm.dim >= 25


def kronecker_commutant(alg, tol=DEFAULT_TOL):
    """Reference: null space of the stacked Kronecker commutator map of every
    generator and its adjoint over all of M_n."""
    n = alg.hilbert_dim
    eye = np.eye(n, dtype=complex)
    maps = []
    for g in alg.generators:
        maps.append(np.kron(g, eye) - np.kron(eye, g.T))
        ga = adjoint(g)
        maps.append(np.kron(ga, eye) - np.kron(eye, ga.T))
    stacked = np.vstack(maps) if maps else np.zeros((0, n * n), dtype=complex)
    scale = max([1.0] + [operator_norm(g) for g in alg.generators])
    return np.array([v.reshape(n, n) for v in null_space(stacked, tol, scale=scale)])


def subspace_overlap(a, b):
    """Smallest singular value of the overlap of two orthonormal bases (1 when equal)."""
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    return float(np.linalg.svd(a.conj() @ b.T, compute_uv=False).min())


def sweep_commutant_residual(gens, basis):
    """Reference for the verification in commutant: every commutator's 2-norm
    relative to max(1, |g| |b|), then the maximum."""
    res = gens[:, None] @ basis[None] - basis[None] @ gens[:, None]
    ref = (np.linalg.norm(gens, 2, axis=(-2, -1))[:, None]
           * np.linalg.norm(basis, 2, axis=(-2, -1))[None])
    return float(np.max(np.linalg.norm(res, 2, axis=(-2, -1)) / np.maximum(1.0, ref)))


NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)

COMMUTANT_CASES = {
    "trivial_points_5": lambda: trivial_points(5).algebra(),
    "two_point_algebra": lambda: two_point(1.0).algebra(),
    "two_point_cda": lambda: two_point(1.0).cda(),
    "mgeom2_s7_algebra": lambda: matrix_geometry(2, seed=7).algebra(),
    "mgeom2_s7_cda": lambda: matrix_geometry(2, seed=7).cda(),
    "mgeom2_s2001408477_algebra": lambda: matrix_geometry(2, seed=2001408477).algebra(),
    "mgeom2_s2001408477_cda": lambda: matrix_geometry(2, seed=2001408477).cda(),
    "mgeom3_algebra": lambda: matrix_geometry(3, seed=0).algebra(),
    "mgeom3_cda": lambda: matrix_geometry(3, seed=0).cda(),
    "riemannian_h16_cda": lambda: spinc_to_riemannian(matrix_geometry(2, seed=7)).output.cda(),
    "scalars_only": lambda: AlgebraBasis(4, [np.eye(4) / 2.0], [2.0 * np.eye(4), -np.eye(4)]),
    "non_normal_generator": lambda: AlgebraBasis(2, [NILPOTENT], [NILPOTENT]),
}


class TestCommutantAgainstKronecker:
    @pytest.mark.parametrize("name", sorted(COMMUTANT_CASES))
    def test_same_subspace(self, name, monkeypatch):
        alg = COMMUTANT_CASES[name]()
        calls = []
        real = algebra.null_space

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(algebra, "null_space", counted)
        comm = commutant(alg)
        ref = kronecker_commutant(alg)
        assert len(calls) == 1  # the probe solve is kept
        assert comm.dim == len(ref)
        assert subspace_overlap(comm.basis, ref) >= 1.0 - 1e-12
        gram = np.einsum("aij,bij->ab", comm.basis.conj(), comm.basis)
        assert np.allclose(gram, np.eye(comm.dim), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", [
        "mgeom2_s7_algebra", "mgeom2_s7_cda", "mgeom2_s2001408477_algebra",
        "mgeom2_s2001408477_cda", "mgeom3_algebra", "mgeom3_cda"])
    def test_verification_residual_matches_sweep(self, name, monkeypatch):
        alg = COMMUTANT_CASES[name]()
        seen = []
        real = algebra.max_operator_norm

        def recorded(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(algebra, "max_operator_norm", recorded)
        comm = commutant(alg)
        # the probe solve is kept, so the verified candidates are the result
        assert seen == [sweep_commutant_residual(alg.generators, comm.basis)]

    def test_reproducible(self):
        alg = COMMUTANT_CASES["mgeom2_s7_cda"]()
        assert np.array_equal(commutant(alg).basis, commutant(alg).basis)

    def test_fallback_solves_with_all_generators(self, monkeypatch):
        # the first null space (the probe solve) is replaced by the whole
        # block search space, which fails verification
        alg = matrix_geometry(2, seed=7).cda()
        calls = []
        real = algebra.null_space

        def broken_probe(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a[:0] if len(calls) == 1 else a, *args, **kwargs)

        monkeypatch.setattr(algebra, "null_space", broken_probe)
        comm = commutant(alg)
        ref = kronecker_commutant(alg)
        assert len(calls) == 2
        assert comm.dim == len(ref) == 4
        assert subspace_overlap(comm.basis, ref) >= 1.0 - 1e-12


class TestCenter:
    def test_full_matrix(self):
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
        assert len(center(alg)) == 1

    def test_diagonals(self):
        alg = generate_algebra([np.diag([1.0, -1.0])], with_unit=True)
        assert len(center(alg)) == 2

    def test_block_sum_against_nullspace_oracle(self):
        # M_2 (+) M_3 block algebra has a two-dimensional center
        rng = np.random.default_rng(8)
        g1 = np.zeros((5, 5), dtype=complex)
        g1[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g2 = np.zeros((5, 5), dtype=complex)
        g2[2:, 2:] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = generate_algebra([g1, adjoint(g1), g2, adjoint(g2)], with_unit=True)
        assert alg.dim == 13
        zc = center(alg)
        # oracle: solve the commutation system directly over the full matrix space
        comm = commutant(alg)
        oracle = [m for m in comm.basis if alg.membership_residual(m) < 1e-9]
        assert len(zc) == 2
        assert len(span_basis(oracle)) == 2


class TestGradedSplit:
    def test_full_matrix_by_sigma3(self):
        alg = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
        even, odd = graded_split(alg, SIGMA3)
        assert len(even) == 2 and len(odd) == 2
        for b in even:
            assert operator_norm(SIGMA3 @ b @ SIGMA3 - b) < 1e-10

    def test_identity_grading_all_even(self):
        alg = generate_algebra([SIGMA1], with_unit=True)
        even, odd = graded_split(alg, np.eye(2))
        assert len(odd) == 0 and len(even) == alg.dim

    def test_two_point_commutator_algebra_split(self):
        # closure of the two-point data then split by its grading
        d = SIGMA1
        a = np.diag([1.0, 0.0])
        alg = generate_algebra([a, d @ a - a @ d], with_unit=True)
        assert alg.dim == 4
        even, odd = graded_split(alg, SIGMA3)
        assert (len(even), len(odd)) == (2, 2)

    def test_rejects_non_involution(self):
        alg = generate_algebra([SIGMA1], with_unit=True)
        with pytest.raises(ValueError):
            graded_split(alg, 2.0 * np.eye(2))

    def test_rejects_non_invariant_algebra(self):
        alg = generate_algebra([np.diag([1.0, -1.0, 0.0])], with_unit=True)
        g = np.zeros((3, 3), dtype=complex)
        g[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        g[2, 2] = 1.0
        with pytest.raises(ValueError):
            graded_split(alg, g)
