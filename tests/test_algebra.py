import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import barrett_triple, random_unitary, spans_equal
from ncgeo import algebra
from ncgeo.algebra import (AlgebraBasis, commutant, commutant_pattern, center, generate_algebra, graded_split,
                           intertwiners, transport_algebra)
from ncgeo.convert import round_trip_check, spinc_to_riemannian
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.linalg import (DEFAULT_TOL, Tolerance, adjoint, commutator_residual, from_blocks, max_operator_norm,
                          max_span_residual, null_space, operator_norm, pull_back, random_complex, random_hermitian,
                          span_basis, span_residual, unit_floor_norms)
from ncgeo.modules import parseval_frame

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
        alg = generate_algebra([np.zeros((3, 3))])
        assert alg.dim == 1

    def test_diagonal_two_dim(self):
        alg = generate_algebra([np.diag([1.0, -1.0])])
        assert alg.dim == 2

    def test_pauli_closure_matches_brute_force(self):
        gens = [SIGMA1, SIGMA3]
        alg = generate_algebra(gens)
        oracle = brute_force_word_closure(gens)
        assert alg.dim == len(oracle) == 4

    def test_monotone_in_generators(self):
        a1 = generate_algebra([SIGMA3])
        a2 = generate_algebra([SIGMA3, SIGMA1])
        assert a2.dim >= a1.dim

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generate_algebra([np.eye(2), np.eye(3)])

    def test_stacked_basis_and_generators(self):
        alg = generate_algebra([SIGMA1, SIGMA3])
        assert alg.basis.shape == (4, 2, 2)
        assert np.array_equal(alg.generators, np.stack([SIGMA1, SIGMA3]))
        x = 0.5 * SIGMA1 - 2j * SIGMA3
        assert np.allclose(alg.combine(alg.coords(x)), x, rtol=0, atol=1e-12)
        assert np.allclose(alg.expectation(x), x, rtol=0, atol=1e-12)
        assert span_residual(x, alg.basis) < 1e-12

    def test_closure_properties(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = generate_algebra([g])
        for b1 in alg.basis:
            assert span_residual(adjoint(b1), alg.basis) < 1e-9
            for b2 in alg.basis:
                assert span_residual(b1 @ b2, alg.basis) < 1e-9
        assert span_residual(np.eye(3), alg.basis) < 1e-9


class TestCommutant:
    def test_full_matrix_algebra(self):
        alg = generate_algebra([SIGMA1, SIGMA3])
        comm = commutant(alg)
        assert comm.dim == 1

    def test_diagonals(self):
        alg = generate_algebra([np.diag([1.0, -1.0])])
        comm = commutant(alg)
        assert comm.dim == 2

    def test_scalars(self):
        alg = generate_algebra([np.zeros((4, 4))])
        comm = commutant(alg)
        assert comm.dim == 16

    def test_bicommutant_is_generated_algebra(self):
        blocks = np.zeros((5, 5), dtype=complex)
        blocks[:2, :2] = SIGMA1
        alg = generate_algebra([blocks])
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
        alg = generate_algebra([m2, m3])
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
    """Reference for the verification in `intertwiners`, on the diagonal:
    every commutator of a basis element with a generator or adjoint, its
    2-norm relative to max(1, |b| |g|), then the maximum."""
    both = np.concatenate([gens, gens.conj().swapaxes(-1, -2)])
    res = basis[:, None] @ both[None] - both[None] @ basis[:, None]
    ref = (np.linalg.norm(basis, 2, axis=(-2, -1))[:, None]
           * np.linalg.norm(both, 2, axis=(-2, -1))[None])
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


def hand_built(alg):
    """The same algebra without the Wedderburn data that `generate_algebra`
    stores, so that `commutant` and `center` solve."""
    return AlgebraBasis(alg.hilbert_dim, alg.basis, alg.generators)


# the verification threshold of commutant and of the Wedderburn reconstruction
VERIFY_THRESHOLD = max(DEFAULT_TOL.rel, 1e-8)


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
        comm = commutant(hand_built(alg))
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
        real = algebra.commutator_residual

        def recorded(xs, ys, **kwargs):
            # the decision and the gate it was taken against, the floor
            value = real(xs, ys, **kwargs)
            seen.append((value <= kwargs["floor"], kwargs["floor"]))
            return value

        monkeypatch.setattr(algebra, "commutator_residual", recorded)
        comm = commutant(hand_built(alg))
        # the probe solve is kept, so the verified candidates are the result,
        # swept against the generators and their adjoints
        sweep = sweep_commutant_residual(alg.generators, comm.basis)
        assert seen == [(sweep <= VERIFY_THRESHOLD, VERIFY_THRESHOLD)]

    @pytest.mark.parametrize("name", sorted(set(COMMUTANT_CASES) - {"scalars_only", "non_normal_generator"}))
    def test_stored_commutant(self, name, monkeypatch):
        # a generated algebra's commutant is the closed form of its
        # Wedderburn data, with no solve
        alg = COMMUTANT_CASES[name]()
        monkeypatch.setattr(algebra, "null_space", None)
        comm = commutant(alg)
        ref = kronecker_commutant(alg)
        assert comm.dim == len(ref)
        assert subspace_overlap(comm.basis, ref) >= 1.0 - 1e-12

    @pytest.mark.parametrize("name", sorted(COMMUTANT_CASES))
    def test_is_the_diagonal_intertwiner_solve(self, name):
        alg = hand_built(COMMUTANT_CASES[name]())
        assert np.array_equal(commutant(alg).basis, intertwiners(alg.generators, alg.generators))

    def test_reproducible(self):
        alg = COMMUTANT_CASES["mgeom2_s7_cda"]()
        assert np.array_equal(commutant(alg).basis, commutant(alg).basis)

    def test_fallback_solves_with_all_generators(self, monkeypatch):
        # the first null space (the probe solve) is replaced by the whole
        # block search space, which fails verification
        alg = hand_built(matrix_geometry(2, seed=7).cda())
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
        alg = generate_algebra([SIGMA1, SIGMA3])
        assert len(center(alg)) == 1

    def test_diagonals(self):
        alg = generate_algebra([np.diag([1.0, -1.0])])
        assert len(center(alg)) == 2

    def test_block_sum_against_nullspace_oracle(self):
        # M_2 (+) M_3 block algebra has a two-dimensional center
        rng = np.random.default_rng(8)
        g1 = np.zeros((5, 5), dtype=complex)
        g1[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g2 = np.zeros((5, 5), dtype=complex)
        g2[2:, 2:] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = generate_algebra([g1, adjoint(g1), g2, adjoint(g2)])
        assert alg.dim == 13
        zc = center(alg)
        # oracle: solve the commutation system directly over the full matrix space
        comm = commutant(alg)
        oracle = [m for m in comm.basis if span_residual(m, alg.basis) < 1e-9]
        assert len(zc) == 2
        assert len(span_basis(oracle)) == 2

    def test_stacked_shape(self):
        zc = center(generate_algebra([np.diag([1.0, -1.0])]))
        assert isinstance(zc, np.ndarray) and zc.shape == (2, 2, 2)
        assert center(AlgebraBasis(3, np.zeros((0, 3, 3)))).shape == (0, 3, 3)


class TestGradedSplit:
    def test_full_matrix_by_sigma3(self):
        alg = generate_algebra([SIGMA1, SIGMA3])
        even, odd = graded_split(alg, SIGMA3)
        assert len(even) == 2 and len(odd) == 2
        for b in even:
            assert operator_norm(SIGMA3 @ b @ SIGMA3 - b) < 1e-10

    def test_identity_grading_all_even(self):
        alg = generate_algebra([SIGMA1])
        even, odd = graded_split(alg, np.eye(2))
        assert len(odd) == 0 and len(even) == alg.dim

    def test_two_point_commutator_algebra_split(self):
        # closure of the two-point data then split by its grading
        d = SIGMA1
        a = np.diag([1.0, 0.0])
        alg = generate_algebra([a, d @ a - a @ d])
        assert alg.dim == 4
        even, odd = graded_split(alg, SIGMA3)
        assert (len(even), len(odd)) == (2, 2)

    def test_returns_stacks(self):
        alg = generate_algebra([SIGMA1])
        even, odd = graded_split(alg, np.eye(2))
        assert isinstance(odd, np.ndarray) and odd.shape == (0, 2, 2)
        assert even.shape == (alg.dim, 2, 2)
        t = matrix_geometry(2, seed=7)
        cda = generate_algebra(cda_gens(t))
        even, odd = graded_split(cda, t.grading)
        assert (even.shape, odd.shape) == ((8, 8, 8), (8, 8, 8))
        # the span of the per-element even parts, each part homogeneous
        parts = [(b + t.grading @ b @ t.grading) / 2.0 for b in cda.basis]
        ref = floored_span(parts)
        assert max(max_span_residual(even, ref), max_span_residual(ref, even)) < 1e-12
        assert max_operator_norm(t.grading @ even @ t.grading - even) < 1e-12
        assert max_operator_norm(t.grading @ odd @ t.grading + odd) < 1e-12

    def test_rejects_non_involution(self):
        alg = generate_algebra([SIGMA1])
        with pytest.raises(ValueError):
            graded_split(alg, 2.0 * np.eye(2))

    def test_rejects_non_invariant_algebra(self):
        alg = generate_algebra([np.diag([1.0, -1.0, 0.0])])
        g = np.zeros((3, 3), dtype=complex)
        g[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        g[2, 2] = 1.0
        with pytest.raises(ValueError):
            graded_split(alg, g)


def closure_rounds_algebra(gens, tol=DEFAULT_TOL):
    """Reference: the span of the generators and the unit, closed under
    adjoints and products round by round until its dimension stabilises."""
    n = gens[0].shape[0]
    basis = span_basis(list(gens) + [np.eye(n, dtype=complex)], tol)
    for _ in range(n * n + 2):
        nxt = span_basis(list(basis) + [adjoint(b) for b in basis]
                         + [b1 @ b2 for b1 in basis for b2 in basis], tol)
        if len(nxt) == len(basis):
            return np.array(nxt)
        basis = nxt
    raise RuntimeError("closure rounds did not stabilise")


def cda_gens(t):
    return list(t.algebra_gens) + t.commutators()


@functools.lru_cache(maxsize=None)
def riemannian_h36():
    return spinc_to_riemannian(matrix_geometry(3, seed=0)).output


GENERATION_CASES = {
    "trivial_points_5": lambda: trivial_points(5).algebra_gens,
    "two_point_algebra": lambda: two_point(1.0).algebra_gens,
    "two_point_cda": lambda: cda_gens(two_point(1.0)),
    "mgeom2_s7_algebra": lambda: matrix_geometry(2, seed=7).algebra_gens,
    "mgeom2_s7_cda": lambda: cda_gens(matrix_geometry(2, seed=7)),
    "mgeom2_s2001408477_algebra": lambda: matrix_geometry(2, seed=2001408477).algebra_gens,
    "mgeom2_s2001408477_cda": lambda: cda_gens(matrix_geometry(2, seed=2001408477)),
    "mgeom3_algebra": lambda: matrix_geometry(3, seed=0).algebra_gens,
    "mgeom3_cda": lambda: cda_gens(matrix_geometry(3, seed=0)),
    "riemannian_h36_cda": lambda: cda_gens(riemannian_h36()),
    "zero_generator": lambda: [np.zeros((3, 3))],
    "non_normal_generator": lambda: [np.kron(NILPOTENT, np.eye(2))],
}


class TestDoubleCommutantGeneration:
    @pytest.mark.parametrize("name", sorted(GENERATION_CASES))
    def test_matches_closure_rounds(self, name):
        gens = GENERATION_CASES[name]()
        alg = generate_algebra(gens)
        ref = closure_rounds_algebra([np.asarray(g, dtype=complex) for g in gens])
        assert alg.dim == len(ref)
        assert subspace_overlap(alg.basis, ref) >= 1.0 - 1e-12
        gram = np.einsum("aij,bij->ab", alg.basis.conj(), alg.basis)
        assert np.allclose(gram, np.eye(alg.dim), rtol=0, atol=1e-12)
        assert np.array_equal(alg.generators, np.stack(gens).astype(complex))

    def test_empty_generator_list(self):
        with pytest.raises(ValueError):
            generate_algebra([])


@st.composite
def wedderburn_fixtures(draw):
    """Blocks (n_k, m_k) with sum n_k m_k <= 12, and a seed for W and the generators."""
    room, blocks = 12, []
    while room and (not blocks or draw(st.booleans())):
        n_k = draw(st.integers(1, min(3, room)))
        m_k = draw(st.integers(1, room // n_k))
        blocks.append((n_k, m_k))
        room -= n_k * m_k
    return blocks, draw(st.integers(0, 2**32 - 1))


def block_algebra_generators(blocks, rng):
    """Two generic elements of W (+_k M_{n_k} (x) 1_{m_k}) W* for a random unitary W."""
    hdim = sum(n_k * m_k for n_k, m_k in blocks)
    w = random_unitary(rng, hdim)
    gens = []
    for _ in range(2):
        x = np.zeros((hdim, hdim), dtype=complex)
        lo = 0
        for n_k, m_k in blocks:
            a = rng.standard_normal((n_k, n_k)) + 1j * rng.standard_normal((n_k, n_k))
            x[lo:lo + n_k * m_k, lo:lo + n_k * m_k] = np.kron(a, np.eye(m_k))
            lo += n_k * m_k
        gens.append(w @ x @ adjoint(w))
    return gens


def graded_block_algebra(blocks, rng):
    """W (+_k M_{n_k} (x) 1_{m_k}) W*, with its basis rotated by a random
    unitary, and the grading W (+_k s_k (x) t_k) W* for random diagonal
    signs s_k and t_k, which normalizes it."""
    gens = block_algebra_generators(blocks, rng)
    alg = generate_algebra(gens)
    w = alg.wedderburn[0]
    signs = np.concatenate([np.kron(rng.choice([-1.0, 1.0], n_k), rng.choice([-1.0, 1.0], m_k))
                            for n_k, m_k in alg.wedderburn[1]])
    basis = alg.combine(random_unitary(rng, alg.dim))
    return AlgebraBasis(alg.hilbert_dim, basis, gens), (w * signs) @ adjoint(w)


def floored_span(mats):
    """Orthonormal basis of the span of a stack from one SVD, with rank
    s > rank_cut max(s_0, 1): a stack of pure roundoff spans nothing."""
    mats = np.asarray(mats, dtype=complex)
    u, s, _ = np.linalg.svd(mats.reshape(len(mats), -1).T, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_TOL.rank_cut * max(float(s[0]), 1.0)))
    return u[:, :rank].T.reshape((rank,) + mats.shape[1:])


def svd_graded_split(alg, g):
    """Reference: the spans of the even and odd parts (b +- g b g) / 2 of the
    basis elements, each from one SVD."""
    conj = g @ alg.basis @ g
    return floored_span((alg.basis + conj) / 2.0), floored_span((alg.basis - conj) / 2.0)


def rotated_grading(g, scale):
    """u g u^* for u = exp(i scale K), K a seeded Hermitian matrix of norm 1."""
    vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(0), len(g)))
    u = (vecs * np.exp(1j * scale * vals / np.max(np.abs(vals)))) @ adjoint(vecs)
    return u @ g @ adjoint(u)


class TestGradedSplitAgainstSVD:
    @settings(max_examples=40, deadline=None)
    @given(wedderburn_fixtures())
    def test_random_graded_block_algebras(self, fixture):
        blocks, seed = fixture
        alg, g = graded_block_algebra(blocks, np.random.default_rng(seed))
        even, odd = graded_split(alg, g)
        ref_even, ref_odd = svd_graded_split(alg, g)
        assert (len(even), len(odd)) == (len(ref_even), len(ref_odd))
        assert len(even) + len(odd) == alg.dim
        for part, ref in ((even, ref_even), (odd, ref_odd)):
            assert max(max_span_residual(part, ref), max_span_residual(ref, part)) <= 1e-12
        both = np.concatenate([even, odd]).reshape(alg.dim, -1)
        assert np.allclose(both.conj() @ both.T, np.eye(alg.dim), rtol=0, atol=1e-12)
        assert max_operator_norm(g @ even @ g - even) <= 1e-12
        assert max_operator_norm(g @ odd @ g + odd) <= 1e-12

    @pytest.fixture(scope="class")
    def cda_and_rate(self):
        # the 2-norm membership residual of the SVD split grows linearly in
        # the rotation of the grading off the algebra
        t = matrix_geometry(2, seed=7)
        cda = generate_algebra(cda_gens(t))
        g = rotated_grading(t.grading, 1e-6)
        return cda, t.grading, max_span_residual(g @ cda.basis @ g, cda.basis) / 1e-6

    @pytest.mark.parametrize("over, message", [
        (1.1, "does not preserve"),
        # below the membership gate, the SVD split found more even and odd
        # elements than the algebra has, and the reassembly gate still does
        (0.5, "does not reassemble"),
        (1e-2, "does not reassemble"),
    ])
    def test_broken_algebra_raises(self, cda_and_rate, over, message):
        cda, g, rate = cda_and_rate
        gate = max(DEFAULT_TOL.rel, 1e3 * DEFAULT_TOL.rank_cut)
        bent = rotated_grading(g, over * gate / rate)
        assert max_span_residual(bent @ cda.basis @ bent, cda.basis) == pytest.approx(over * gate, rel=1e-3)
        with pytest.raises(ValueError, match=message):
            graded_split(cda, bent)
        ref_even, ref_odd = svd_graded_split(cda, bent)
        assert len(ref_even) + len(ref_odd) > cda.dim

    def test_roundoff_break_passes(self, cda_and_rate):
        cda, g, rate = cda_and_rate
        bent = rotated_grading(g, 1e-12 / rate)
        even, odd = graded_split(cda, bent)
        assert (len(even), len(odd)) == (8, 8)

    def test_gate_is_the_2_norm_of_the_residual(self, cda_and_rate):
        # a residual R whose Frobenius norm sums above 2 rank_cut over the
        # basis while its 2-norm stays below: the SVD split finds d
        # elements, and the gate, which does not grow with d, passes too
        cda, g, _ = cda_and_rate
        bent = rotated_grading(g, 1e-10)
        flat = cda.basis.reshape(cda.dim, -1)
        conj = (bent @ cda.basis @ bent).reshape(cda.dim, -1)
        resid = conj - (flat.conj() @ conj.T).T @ flat
        assert np.linalg.norm(resid, 2) < 2 * DEFAULT_TOL.rank_cut < np.linalg.norm(resid)
        ref_even, ref_odd = svd_graded_split(cda, bent)
        even, odd = graded_split(cda, bent)
        assert (len(even), len(odd)) == (len(ref_even), len(ref_odd)) == (8, 8)


def counted_block_solves(monkeypatch):
    calls = []
    real = algebra._block_intertwiners

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra, "_block_intertwiners", counted)
    return calls


class TestWedderburnReconstruction:
    @settings(max_examples=60, deadline=None)
    @given(wedderburn_fixtures())
    def test_random_block_algebras(self, fixture):
        # two generic elements of W (+_k M_{n_k} (x) 1_{m_k}) W* generate it
        blocks, seed = fixture
        hdim = sum(n_k * m_k for n_k, m_k in blocks)
        gens = block_algebra_generators(blocks, np.random.default_rng(seed))
        alg = generate_algebra(gens)
        assert alg.dim == sum(n_k * n_k for n_k, _ in blocks)
        assert sorted(alg.wedderburn[1]) == sorted(blocks)
        comm = commutant(alg)
        assert comm.dim == sum(m_k * m_k for _, m_k in blocks)
        zc = center(alg)
        assert len(zc) == len(blocks)
        # reference: the double solve of the generators and the unit
        seeds = AlgebraBasis(hdim, np.zeros((0, hdim, hdim)), gens + [np.eye(hdim)])
        ref_comm = commutant(seeds)
        assert spans_equal(alg.basis, commutant(ref_comm).basis)
        assert spans_equal(comm.basis, ref_comm.basis)
        assert spans_equal(zc, center(hand_built(alg)))
        w_alg = alg.wedderburn[0]
        assert np.allclose(adjoint(w_alg) @ w_alg, np.eye(hdim), rtol=0, atol=1e-12)
        gram = np.einsum("aij,bij->ab", zc.conj(), zc)
        assert np.allclose(gram, np.eye(len(zc)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(GENERATION_CASES))
    def test_one_block_solve_per_generation(self, name, monkeypatch):
        # the Wedderburn data come from the generators, so neither the
        # generation nor the closed-form commutant and center take a block solve
        gens = GENERATION_CASES[name]()
        calls = counted_block_solves(monkeypatch)
        alg = generate_algebra(gens)
        assert alg.wedderburn is not None
        commutant(alg)
        center(alg)
        assert calls == []

    def test_gate_rejects_the_small_gap_cda(self, monkeypatch):
        # the forward cda of matrix_geometry(2, 2001408477) has a probe
        # relative gap of about 0.013: its generators fit the pattern read
        # off them only to ~4e-13, above the gate of 1e-3 rank_cut, so the
        # algebra comes from the commutant solve
        gens = np.stack(cda_gens(spinc_to_riemannian(matrix_geometry(2, seed=2001408477)).output))
        _, _, resid = algebra._aligned_frame(gens, DEFAULT_TOL, in_commutant=False)
        assert max_operator_norm(resid, unit_floor_norms(gens)) > 1e-3 * DEFAULT_TOL.rank_cut
        calls = counted_block_solves(monkeypatch)
        alg = generate_algebra(gens)
        assert len(calls) == 1
        assert alg.wedderburn is not None
        ref = closure_rounds_algebra(list(gens))
        assert alg.dim == len(ref) == 16
        assert commutant(alg).dim == len(kronecker_commutant(alg)) == 16
        assert sorted(alg.wedderburn[1]) == [(4, 4)]

    def test_solve_route_commutant(self, monkeypatch):
        # g (+) g^T for a generic g on C^3, scrambled by a unitary, misses the
        # generator route by construction: the Hermitian parts of c g and of
        # c g^T = (c g)^T share their spectrum, so every probe cluster has
        # size 2 and reads M_3 (x) 1_2, which the generator does not fit.
        # A' = C (+) C is solved only to read the Wedderburn data of
        # A = M_3 (+) M_3, and `commutant` writes A' down from them
        rng = np.random.default_rng(5)
        g, zero = random_complex(rng, (3, 3)), np.zeros((3, 3))
        v = random_unitary(rng, 6)
        gen = v @ np.block([[g, zero], [zero, g.T]]) @ adjoint(v)
        solved = []
        real = algebra._wedderburn

        def recorded(comm, tol):
            solved.append(comm)
            return real(comm, tol)

        monkeypatch.setattr(algebra, "_wedderburn", recorded)
        alg = generate_algebra([gen], Tolerance(rank_cut=1e-10))
        assert len(solved) == 1 and alg.wedderburn is not None
        assert sorted(alg.wedderburn[1]) == [(3, 1), (3, 1)]
        comm = commutant(alg).basis
        assert commutator_residual(comm, alg.basis) <= 1e-14
        assert spans_equal(comm, solved[0], tol=1e-14)

    def test_scalars_with_one_large_cluster(self, monkeypatch):
        # the unit alone on C^36: one probe cluster of size 36, so the
        # commutant M_36 is written down rather than solved for
        calls = counted_block_solves(monkeypatch)
        alg = generate_algebra([np.zeros((36, 36))])
        assert calls == []
        comm = commutant(alg).basis
        assert alg.dim == 1 and len(comm) == 36 * 36
        assert alg.wedderburn[1] == ((1, 36),)
        assert spans_equal(alg.basis, np.eye(36, dtype=complex)[None] / 6.0)
        gram = np.einsum("aij,bij->ab", comm.conj(), comm)
        assert np.allclose(gram, np.eye(36 * 36), rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(wedderburn_fixtures())
    def test_generator_route_matches_the_solve(self, fixture):
        # forcing the commutant solve gives the same A, A' and blocks
        blocks, seed = fixture
        gens = block_algebra_generators(blocks, np.random.default_rng(seed))
        alg = generate_algebra(gens)
        membership = max_span_residual(np.stack(gens), alg.basis)
        assert membership <= 1e-3 * DEFAULT_TOL.rank_cut
        with mock.patch.object(algebra, "_generated_wedderburn", return_value=None):
            solved = generate_algebra(gens)
        assert sorted(alg.wedderburn[1]) == sorted(blocks)
        # on rare fixtures the reconstruction from A' does not verify, and
        # the solve route takes its second solve, which keeps no blocks
        if solved.wedderburn is not None:
            assert sorted(solved.wedderburn[1]) == sorted(blocks)
        assert spans_equal(alg.basis, solved.basis)
        assert spans_equal(commutant(alg).basis, commutant(solved).basis)

    @settings(max_examples=40, deadline=None)
    @given(wedderburn_fixtures())
    def test_unitary_conjugation(self, fixture):
        # the generators conjugated by a random unitary W generate W A W*,
        # with commutant W A' W* and the same blocks, up to their order
        blocks, seed = fixture
        rng = np.random.default_rng(seed)
        gens = block_algebra_generators(blocks, rng)
        w = random_unitary(rng, gens[0].shape[0])
        alg = generate_algebra(gens)
        moved = generate_algebra([w @ g @ adjoint(w) for g in gens])
        assert sorted(moved.wedderburn[1]) == sorted(alg.wedderburn[1]) == sorted(blocks)
        assert spans_equal(moved.basis, w @ alg.basis @ adjoint(w))
        assert spans_equal(commutant(moved).basis, w @ commutant(alg).basis @ adjoint(w))

    def test_graded_respan_keeps_the_data(self, monkeypatch):
        t = matrix_geometry(2, seed=7)
        cda = t.cda()
        generated = generate_algebra(cda_gens(t))
        assert cda.wedderburn is not None
        assert np.array_equal(commutant(cda).basis, commutant(generated).basis)
        calls = counted_block_solves(monkeypatch)
        commutant(cda)
        assert len(calls) == 0

    @pytest.mark.parametrize("name", ["trivial_points_5", "mgeom2_s7_cda", "mgeom3_algebra"])
    def test_fallback_when_reconstruction_fails(self, name, monkeypatch):
        # merging the first two eigenvalue clusters only enlarges the
        # commutant's search space, but it defeats the reconstruction, so
        # the algebra comes from a second commutant solve
        gens = GENERATION_CASES[name]()
        real = algebra._clusters

        def merged(vals, tol):
            clusters = real(vals, tol)
            return [np.concatenate(clusters[:2])] + clusters[2:]

        monkeypatch.setattr(algebra, "_clusters", merged)
        calls = counted_block_solves(monkeypatch)
        alg = generate_algebra(gens)
        assert len(calls) == 2
        assert alg.wedderburn is None
        monkeypatch.undo()
        ref = generate_algebra(gens)
        assert alg.dim == ref.dim and spans_equal(alg.basis, ref.basis)
        assert spans_equal(commutant(alg).basis, commutant(ref).basis)
        assert spans_equal(center(alg), center(ref))


TRANSPORT_CASES = {
    "mgeom2_s0": lambda: matrix_geometry(2, seed=0),
    "mgeom2_s7": lambda: matrix_geometry(2, seed=7),
    "mgeom2_s2001408477": lambda: matrix_geometry(2, seed=2001408477),
    "mgeom3_s0": lambda: matrix_geometry(3, seed=0),
    "points3": lambda: trivial_points(3),
    "barrett11_2": lambda: barrett_triple(2, "11"),
    "barrett20_2": lambda: barrett_triple(2, "20"),
}


@functools.lru_cache(maxsize=None)
def transport_steps(name):
    """(source, isometry, output) of the forward step (through u) and the
    backward step (through V) of a round trip."""
    t = TRANSPORT_CASES[name]()
    res = round_trip_check(t)
    forward, backward = res.witness["forward"], res.witness["backward"]
    return [(t, forward.witness["module_basis"], forward.output),
            (forward.output, backward.witness["identification"], backward.output)]


class TestTransport:
    """`transport_algebra` against `generate_algebra` of the outputs'
    generators, on both steps of a round trip."""

    @pytest.mark.parametrize("name", sorted(TRANSPORT_CASES))
    def test_spans_the_generated_algebra(self, name):
        for src, u, out in transport_steps(name):
            for alg, gens in ((src.algebra(), out.algebra_gens), (src.cda(), cda_gens(out))):
                moved = transport_algebra(alg, u, gens)
                ref = generate_algebra(gens)
                assert moved is not None
                assert sorted(moved.wedderburn[1]) == sorted(ref.wedderburn[1])
                assert moved.dim == ref.dim
                assert spans_equal(moved.basis, ref.basis, tol=1e-12)
                assert spans_equal(commutant(moved).basis, commutant(ref).basis, tol=1e-12)
                w = moved.wedderburn[0]
                assert np.linalg.norm(adjoint(w) @ w - np.eye(len(w))) <= 1e-13
                assert np.array_equal(moved.generators, np.stack(gens))

    @pytest.mark.parametrize("name", ["mgeom2_s7", "points3"])
    def test_preimages_map_onto_the_basis(self, name):
        # u^* (1 (x) x_j) u is basis element j of the image, and the images
        # evaluated from the Wedderburn frame are those pull-backs
        src, u, out = transport_steps(name)[0]
        moved = transport_algebra(src.cda(), u, cda_gens(out))
        pre, images = algebra._transport_preimage(src.cda(), moved, u)
        assert np.max(np.linalg.norm(pull_back(u, pre) - moved.basis, axis=(-2, -1))) <= 1e-13
        assert np.max(np.linalg.norm(images - pull_back(u, pre), axis=(-2, -1))) <= 1e-13

    def test_gate(self):
        src, u, out = transport_steps("mgeom2_s7")[0]
        gens = cda_gens(out)
        assert transport_algebra(src.cda(), u, gens) is not None
        # an isometry perturbed by 1e-9 breaks the homomorphism
        noisy = u + 1e-9 * random_complex(np.random.default_rng(1), u.shape)
        assert transport_algebra(src.cda(), noisy, gens) is None
        # a generator outside the image misses the pattern
        extra = random_hermitian(np.random.default_rng(2), out.hilbert_dim)
        assert transport_algebra(src.cda(), u, gens + [extra]) is None
        # a hand-built algebra has no Wedderburn data to carry
        assert transport_algebra(AlgebraBasis(src.hilbert_dim, src.cda().basis), u, gens) is None

    @settings(max_examples=30, deadline=None)
    @given(wedderburn_fixtures())
    def test_closed_forms_match_einsum(self, fixture):
        # the batched products give the einsum contractions' arrays
        blocks, seed = fixture
        alg = generate_algebra(block_algebra_generators(blocks, np.random.default_rng(seed)))
        n = alg.hilbert_dim
        comps = algebra._components(*alg.wedderburn)
        ref_basis = np.concatenate([np.einsum("iap,jbp->abij", w, w.conj()).reshape(-1, n, n)
                                    / np.sqrt(w.shape[2]) for w in comps])
        ref_comm = np.concatenate([np.einsum("iap,jaq->pqij", w, w.conj()).reshape(-1, n, n)
                                   / np.sqrt(w.shape[1]) for w in comps])
        assert np.allclose(alg.basis, ref_basis, rtol=0, atol=1e-14)
        assert np.allclose(commutant_pattern(*alg.wedderburn), ref_comm, rtol=0, atol=1e-14)


class TestPairCoords:
    @settings(max_examples=40, deadline=None)
    @given(wedderburn_fixtures(), st.integers(1, 4), st.integers(1, 4))
    def test_pairings_and_frame_projector(self, fixture, k, l):
        blocks, seed = fixture
        rng = np.random.default_rng(seed)
        alg = generate_algebra(block_algebra_generators(blocks, rng))
        n = alg.hilbert_dim
        us = random_complex(rng, (k, n))
        vs = random_complex(rng, (l, n))
        table = alg.combine(alg.pair_coords(us, vs))
        assert table.shape == (k, l, n, n)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                ref = alg.expectation(np.outer(u, v.conj()))
                assert np.max(np.abs(table[i, j] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        # the projector of the Parseval frame: range of the commutant's dimension
        frame = parseval_frame(alg)
        q = from_blocks(alg.combine(alg.pair_coords(frame, frame)))
        assert operator_norm(q @ q - q) < 1e-12
        assert operator_norm(q - adjoint(q)) < 1e-12
        assert np.trace(q).real == pytest.approx(sum(m_k * m_k for _, m_k in blocks), rel=1e-12)


def kronecker_intertwiners(gens1, gens2, tol=DEFAULT_TOL, with_adjoints=True):
    """Reference: null space of the stacked Kronecker system X a - b X over
    all n2 x n1 matrices X, for every generator pair and, by default, its
    adjoints; the rows of the kernel are X flattened row by row."""
    gens1, gens2 = np.asarray(gens1, dtype=complex), np.asarray(gens2, dtype=complex)
    if with_adjoints:
        gens1 = np.concatenate([gens1, gens1.conj().swapaxes(-1, -2)])
        gens2 = np.concatenate([gens2, gens2.conj().swapaxes(-1, -2)])
    n1, n2 = gens1.shape[-1], gens2.shape[-1]
    maps = [np.kron(np.eye(n2), a.T) - np.kron(b, np.eye(n1)) for a, b in zip(gens1, gens2)]
    return null_space(np.vstack(maps), tol).reshape(-1, n2, n1)


def assert_same_family(basis, ref, tol=1e-12):
    """Equal dimension and |P - P_ref|_2 <= tol for the projectors onto the
    two spans; the basis is orthonormal."""
    assert len(basis) == len(ref)
    if len(ref) == 0:
        return
    flat = basis.reshape(len(basis), -1)
    ref_flat = ref.reshape(len(ref), -1)
    assert operator_norm(flat.conj() @ flat.T - np.eye(len(flat))) <= tol
    p = flat.T @ flat.conj()
    p_ref = ref_flat.T @ ref_flat.conj()
    assert operator_norm(p - p_ref) <= tol


def round_trip_pair(t):
    """The generators of a triple and of its round-trip output, which the
    round trip's intertwiner matches."""
    return t.algebra_gens, round_trip_check(t).output.algebra_gens


def conjugated_pair(gens, seed):
    """The generators and their conjugates by a seeded random unitary."""
    w = random_unitary(np.random.default_rng(seed), gens[0].shape[0])
    return gens, [w @ g @ adjoint(w) for g in gens]


def inequivalent_pair():
    """M_2 with multiplicity 2 against the diagonal C + C with multiplicity 2
    on C^4: the two generated *-algebras differ, so nothing intertwines."""
    return ([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))],
            [np.diag([1.0, 0, 1.0, 0]).astype(complex), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)])


INTERTWINER_CASES = {
    "mgeom2_s0_round_trip": lambda: round_trip_pair(matrix_geometry(2, seed=0)),
    "mgeom2_s7_round_trip": lambda: round_trip_pair(matrix_geometry(2, seed=7)),
    "mgeom3_round_trip": lambda: round_trip_pair(matrix_geometry(3, seed=0)),
    "trivial_points_3_round_trip": lambda: round_trip_pair(trivial_points(3)),
    "two_point_conjugated": lambda: conjugated_pair(two_point(1.0).algebra_gens, 4),
    "inequivalent": inequivalent_pair,
}


class TestIntertwinersAgainstKronecker:
    @pytest.mark.parametrize("name", sorted(INTERTWINER_CASES))
    def test_same_family(self, name):
        gens1, gens2 = INTERTWINER_CASES[name]()
        basis = intertwiners(gens1, gens2)
        assert basis.shape[1:] == (gens2[0].shape[0], gens1[0].shape[0])
        assert_same_family(basis, kronecker_intertwiners(gens1, gens2))
        if name == "inequivalent":
            assert len(basis) == 0
        else:
            assert len(basis) > 0

    def test_commutant_is_the_diagonal_case(self):
        gens = matrix_geometry(2, seed=7).algebra_gens
        assert_same_family(intertwiners(gens, gens), commutant(hand_built(generate_algebra(gens))).basis)

    def test_fallback_solves_with_all_generators(self, monkeypatch):
        # the probe solve is replaced by the whole search space, which
        # fails verification, so all generators are solved for
        gens1, gens2 = conjugated_pair(matrix_geometry(2, seed=7).algebra_gens, 3)
        calls = []
        real = algebra.null_space

        def broken_probe(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a[:0] if len(calls) == 1 else a, *args, **kwargs)

        monkeypatch.setattr(algebra, "null_space", broken_probe)
        basis = intertwiners(gens1, gens2)
        assert len(calls) == 2
        assert_same_family(basis, kronecker_intertwiners(gens1, gens2))

    def test_star_family_of_a_non_normal_generator(self):
        # X N = N X alone admits a 1 + b N (dimension 2); with X N* = N* X
        # only the scalars remain, the intertwiners of the generated M_2
        assert len(kronecker_intertwiners([NILPOTENT], [NILPOTENT], with_adjoints=False)) == 2
        basis = intertwiners([NILPOTENT], [NILPOTENT])
        assert_same_family(basis, np.eye(2, dtype=complex)[None] / np.sqrt(2))

    @settings(max_examples=30, deadline=None)
    @given(wedderburn_fixtures())
    def test_random_block_algebras(self, fixture):
        # a representation and its conjugate by a random unitary: the
        # family is W' times the commutant, of dimension sum_k m_k^2
        blocks, seed = fixture
        rng = np.random.default_rng(seed)
        gens1, gens2 = conjugated_pair(block_algebra_generators(blocks, rng), seed)
        basis = intertwiners(gens1, gens2)
        assert len(basis) == sum(m_k * m_k for _, m_k in blocks)
        assert_same_family(basis, kronecker_intertwiners(gens1, gens2), tol=1e-10)

    @pytest.mark.parametrize("name", ["mgeom2_s7_cda", "mgeom3_algebra", "trivial_points_5"])
    def test_commutant_solve_unchanged(self, name):
        # the commutant, and so every generated algebra, is bit for bit the
        # solve of the block-diagonal pattern of the probe's clusters
        alg = hand_built(COMMUTANT_CASES[name]())
        assert np.array_equal(commutant(alg).basis, block_diagonal_commutant(alg.generators))


def block_diagonal_commutant(gens, tol=DEFAULT_TOL):
    """The probe solve of `commutant` written for one algebra: the
    commutator equations of two combinations and their adjoints over the
    eigenvalue-cluster blocks of the first combination's Hermitian part."""
    rng = np.random.default_rng(1285)
    coeffs = rng.standard_normal((3, len(gens))) + 1j * rng.standard_normal((3, len(gens)))
    combos = np.tensordot(coeffs, gens, axes=1)
    vals, vecs = np.linalg.eigh((combos[0] + adjoint(combos[0])) / 2.0)
    clusters = algebra._clusters(vals, tol)
    rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
    cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
    n, size = len(vals), len(rows)
    slot = np.arange(size)
    eqs = []
    for m in combos[1:]:
        g = adjoint(vecs) @ m @ vecs
        for op in (g, adjoint(g)):
            eq = np.zeros((size, n, n), dtype=complex)
            eq[slot, :, cols] = op[:, rows].T
            eq[slot, rows, :] -= op[cols, :]
            eqs.append(eq.reshape(size, n * n))
    scale = max([1.0] + [operator_norm(m) for m in combos[1:]])
    kernel = null_space(np.linalg.qr(np.hstack(eqs).T, mode="r"), tol, scale=scale)
    blocks = np.zeros((len(kernel), n, n), dtype=complex)
    blocks[:, rows, cols] = kernel
    return vecs @ blocks @ adjoint(vecs)
