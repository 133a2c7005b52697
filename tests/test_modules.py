import functools
import re

import numpy as np
import pytest

from helpers import barrett_triple, dense_module_projector, record_table_builds
from ncgeo.algebra import AlgebraBasis, generate_algebra
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.kasparov import grassmann_connection, twisted_operator
from ncgeo.linalg import (
    DEFAULT_TOL,
    adjoint,
    commutator_residual,
    from_blocks,
    operator_norm,
    random_complex,
    rel_residual,
    span_basis,
    span_residual,
)
from ncgeo import modules
from ncgeo.modules import (
    EquivBimodule,
    ProjectiveModule,
    _action_gap,
    _compatibility_residual,
    bimodule_from_actions,
    equivalence_check,
    frame_idempotency_bound,
    linear_operator_bound,
    morita_check,
    parseval_frame,
    validate_module,
)


SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def scalar_base(d=1):
    return generate_algebra([np.zeros((d, d))])


def free_module(base, m, metric=None):
    d = base.hilbert_dim
    q = np.eye(m * d, dtype=complex)
    r = np.eye(m * d, dtype=complex) if metric is None else metric
    return ProjectiveModule.from_projector(base, m, q, r)


def random_projective_module(rng, base, m):
    """Seeded module with a generic projector and metric over the base algebra."""
    d = base.hilbert_dim
    h = np.zeros((m * d, m * d), dtype=complex)
    for i in range(m):
        for j in range(m):
            blk = sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                      for b in base.basis)
            h[i * d:(i + 1) * d, j * d:(j + 1) * d] = blk
    h = (h + adjoint(h)) / 2.0
    vals, vecs = np.linalg.eigh(h)
    cut = np.median(vals)
    q = vecs[:, vals > cut] @ adjoint(vecs[:, vals > cut])
    g = np.zeros_like(h)
    for i in range(m):
        for j in range(m):
            blk = sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                      for b in base.basis)
            g[i * d:(i + 1) * d, j * d:(j + 1) * d] = blk
    r = q @ (g @ adjoint(g) + 0.2 * np.eye(m * d)) @ q
    return ProjectiveModule.from_projector(base, m, q, r)


def frame_projector(alg):
    """Projector of the Parseval frame of an algebra: block (i, j) is E(|x_i><x_j|)."""
    frame = parseval_frame(alg)
    return from_blocks(alg.combine(alg.pair_coords(frame, frame)))


class TestFrameProjector:
    # the range of the frame projector has the dimension of the commutant:
    # n^2 for the scalars on C^n, 1 for all of M_n, n for the diagonals
    @pytest.mark.parametrize("gens, rank", [
        ([np.eye(2)], 4),
        ([SIGMA1, SIGMA3], 1),
        ([SIGMA3], 2),
    ], ids=["scalars", "full_matrices", "diagonals"])
    def test_hermitian_idempotent_of_commutant_rank(self, gens, rank):
        q = frame_projector(generate_algebra(gens))
        assert operator_norm(q @ q - q) < 1e-12
        assert operator_norm(q - adjoint(q)) < 1e-12
        assert np.trace(q).real == pytest.approx(rank, abs=1e-12)
        assert np.linalg.matrix_rank(q, tol=1e-8) == rank

    def test_frame_reproduces_vectors(self):
        # g = sum_i E(|g><x_i|) x_i for every g
        rng = np.random.default_rng(3)
        alg = generate_algebra([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))])
        frame = parseval_frame(alg)
        gs = random_complex(rng, (3, 4))
        table = alg.combine(alg.pair_coords(gs, frame))
        assert np.allclose(np.einsum("gxab,xb->ga", table, frame), gs, rtol=0, atol=1e-12)

    def test_degenerate_action_rejected(self):
        # the span of a single rank-one projector is no unital algebra: its
        # frame operator is singular
        e11 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            parseval_frame(AlgebraBasis(2, e11[None]))


def frame_module(alg, frame=None):
    """The factored module of a frame (the Parseval frame by default):
    C_k the pairing coordinates, O_k the algebra's basis."""
    frame = parseval_frame(alg) if frame is None else frame
    return ProjectiveModule(alg, alg.pair_coords(frame, frame), alg.basis)


FACTORED_CASES = {
    "scalars": lambda: generate_algebra([np.eye(2)]),
    "full_matrices": lambda: generate_algebra([SIGMA1, SIGMA3]),
    "diagonals": lambda: generate_algebra([SIGMA3]),
    "mg2_right": lambda: matrix_geometry(2, seed=7).right_algebra(),
}


class TestFactoredModule:
    """Q = sum_k C_k (x) O_k read through apply, its diagonal blocks and its
    trace, against the dense block matrix of the frame pairings."""

    @pytest.mark.parametrize("case", sorted(FACTORED_CASES))
    def test_apply_blocks_and_trace(self, case, monkeypatch):
        alg = FACTORED_CASES[case]()
        mod = frame_module(alg)
        q = frame_projector(alg)
        assert np.allclose(dense_module_projector(mod), q, rtol=0, atol=1e-14)
        rng = np.random.default_rng(7)
        for cols in (0, 1, 5):
            x = random_complex(rng, (len(q), cols))
            ref = q @ x
            assert np.linalg.norm(mod.apply(x) - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))
            # one k per step of the chunked loop
            monkeypatch.setattr(modules, "_APPLY_BLOCK", 1)
            assert np.linalg.norm(mod.apply(x) - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))
            monkeypatch.undo()
        m, d = mod.size, mod.block_dim
        table = q.reshape(m, d, m, d)
        assert np.allclose(mod.diagonal_blocks(), [table[i, :, i] for i in range(m)], rtol=0, atol=1e-14)
        assert mod.trace() == pytest.approx(np.trace(q).real, abs=1e-12)

    def test_a_dense_projector_is_kept_exactly(self):
        rng = np.random.default_rng(31)
        mod = random_projective_module(rng, generate_algebra([SIGMA3]), 3)
        q = dense_module_projector(mod)
        assert mod.coords.shape == (3, 3, 9) and mod.ops.shape == (9, 2, 2)
        assert np.array_equal(mod.dense(), q)
        x = random_complex(rng, (6, 4))
        assert np.linalg.norm(mod.apply(x) - q @ x) <= 1e-14 * np.linalg.norm(q @ x)
        with pytest.raises(ValueError, match="shape mismatch"):
            ProjectiveModule.from_projector(mod.base, 2, q)


class TestFrameIdempotencyBound:
    """The Parseval defect of a frame against |Q^2 - Q|_F of its projector."""

    @pytest.mark.parametrize("case", sorted(FACTORED_CASES))
    def test_is_the_idempotency_defect(self, case):
        alg = FACTORED_CASES[case]()
        frame = parseval_frame(alg)
        rng = np.random.default_rng(3)
        for moved in (frame, frame @ (np.eye(len(frame)) + 1e-3 * random_complex(rng, frame.shape))):
            q = dense_module_projector(frame_module(alg, moved))
            defect = np.linalg.norm(q @ q - q)
            bound = frame_idempotency_bound(alg, moved)
            if moved is frame:
                assert bound < 1e-13 and defect < 1e-13
            else:
                assert defect > 1e-5
                assert bound == pytest.approx(defect, rel=1e-9)

    def test_the_image_under_a_homomorphism_takes_its_gain(self):
        # c -> 1_2 (x) c has Frobenius gain sqrt(2); the blocks of the image
        # are those of Q doubled, and so is the bound
        alg = FACTORED_CASES["mg2_right"]()
        frame = parseval_frame(alg)
        moved = frame @ (np.eye(len(frame)) + 1e-3 * random_complex(np.random.default_rng(4), frame.shape))
        mod = frame_module(alg, moved)
        image = ProjectiveModule(None, mod.coords, np.kron(np.eye(2), mod.ops))
        q = dense_module_projector(image)
        defect = np.linalg.norm(q @ q - q)
        bound = frame_idempotency_bound(alg, moved, np.kron(np.eye(2), alg.basis))
        assert bound == pytest.approx(defect, rel=1e-9)
        assert bound == pytest.approx(np.sqrt(2.0) * frame_idempotency_bound(alg, moved), rel=1e-12)


class TestKasparovModule:
    def test_trivial_module_twists_exactly(self):
        t = matrix_geometry(2, seed=11)
        right = t.right_algebra()
        mod = ProjectiveModule.from_projector(right, 1, np.eye(t.hilbert_dim, dtype=complex))
        assert mod.metric is None
        assert validate_module(mod).passed
        dhat, ahat = twisted_operator(t, grassmann_connection(mod))
        assert np.array_equal(dhat, t.dirac)
        assert not ahat.any()


def standard_column_bimodule():
    """C^2 between the full matrix algebra and the scalars."""
    left = generate_algebra([SIGMA1, SIGMA3])
    right = generate_algebra([np.zeros((2, 2))])
    basis = np.eye(2, dtype=complex)
    lp = [[np.outer(basis[i], basis[j].conj()) for j in range(2)] for i in range(2)]
    rp = [[np.vdot(basis[i], basis[j]) * np.eye(2, dtype=complex) for j in range(2)]
          for i in range(2)]
    return EquivBimodule(left, right, 2, lp, rp)


def looped_morita_residuals(bi):
    """Residuals of the four pairing checks, one carrier index at a time."""
    d = bi.carrier_dim
    basis = np.eye(d, dtype=complex)

    def left_pairing(u, v):
        return sum(u[i] * np.conj(v[j]) * bi.left_pair[i][j] for i in range(d) for j in range(d))

    def right_pairing(u, v):
        return sum(np.conj(u[i]) * v[j] * bi.right_pair[i][j] for i in range(d) for j in range(d))

    out = {"actions_commute": 0.0, "left_pairing_right_action": 0.0,
           "right_pairing_left_action": 0.0, "compatibility": 0.0}
    for b in bi.left_alg.basis:
        for a in bi.right_alg.basis:
            out["actions_commute"] = max(out["actions_commute"], rel_residual(
                b @ a - a @ b, operator_norm(a), operator_norm(b)))
    for key, alg, pairing in (("left_pairing_right_action", bi.right_alg, left_pairing),
                              ("right_pairing_left_action", bi.left_alg, right_pairing)):
        for a in alg.basis:
            for i in range(d):
                for j in range(d):
                    lhs = pairing(a @ basis[i], basis[j])
                    rhs = pairing(basis[i], adjoint(a) @ basis[j])
                    out[key] = max(out[key], rel_residual(lhs - rhs, operator_norm(a)))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                gap = bi.left_pair[i][j] @ basis[k] - bi.right_pair[j][k] @ basis[i]
                out["compatibility"] = max(out["compatibility"], rel_residual(gap, 1.0))
    return out


def sweep_norms(stack):
    return np.linalg.norm(stack, 2, axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def sweep_case(name):
    """Bimodule of a matrix geometry, named mgeom<n>_s<seed>; the perturbed_
    prefix adds noise to both tables, which gives O(1) residuals so every
    index placement is exercised."""
    if name.startswith("perturbed_"):
        bi = sweep_case(name[len("perturbed_"):])
        rng = np.random.default_rng(3)
        return EquivBimodule(bi.left_alg, bi.right_alg, bi.carrier_dim,
                             bi.left_pair + 0.1 * random_complex(rng, bi.left_pair.shape),
                             bi.right_pair + 0.1 * random_complex(rng, bi.right_pair.shape))
    n, seed = name[len("mgeom"):].split("_s")
    t = matrix_geometry(int(n), int(seed))
    return bimodule_from_actions(t.cda(), t.right_algebra())[0]


SWEEP_CASES = ["mgeom2_s7", "mgeom2_s2001408477", "mgeom3_s0"]


def sweep_morita_residuals(bi):
    """The 2-norm residuals of morita_check as full sweeps over every block."""
    left, right = bi.left_alg.basis, bi.right_alg.basis
    left_norms, right_norms = sweep_norms(left), sweep_norms(right)
    commute = 0.0
    for b, nb in zip(left, left_norms):
        res = sweep_norms(b @ right - right @ b) / np.maximum(1.0, right_norms * nb)
        commute = max(commute, float(np.max(res, initial=0.0)))

    def action_gap(coeffs, norms, table):
        worst = 0.0
        for c, nc in zip(coeffs, norms):
            gap = np.tensordot(c, table, (0, 0)) - np.tensordot(c, table, (1, 1)).transpose(1, 0, 2, 3)
            worst = max(worst, float(np.max(sweep_norms(gap))) / max(1.0, nc))
        return worst

    return {"actions_commute": commute,
            "left_pairing_right_action": action_gap(right, right_norms, bi.left_pair),
            "right_pairing_left_action": action_gap(left.conj(), left_norms, bi.right_pair)}


class TestPrunedMaximaMatchSweeps:
    @pytest.mark.parametrize("name", SWEEP_CASES + ["perturbed_mgeom2_s0"])
    def test_morita_check(self, name):
        bi = sweep_case(name)
        rep = morita_check(bi)
        for key, value in sweep_morita_residuals(bi).items():
            assert rep.entry(f"morita:{key}").residual == value, key

class TestMoritaCheck:
    def test_standard_equivalence(self):
        rep = morita_check(standard_column_bimodule())
        assert rep.passed, rep.as_text()

    def test_matrix_self_bimodule(self):
        # M_n as a bimodule over itself through left/right multiplication
        n = 2
        left = generate_algebra([np.kron(SIGMA1, np.eye(n)), np.kron(SIGMA3, np.eye(n))])
        right = generate_algebra([np.kron(np.eye(n), SIGMA1.T), np.kron(np.eye(n), SIGMA3.T)])
        bi, lam = bimodule_from_actions(left, right)
        rep = morita_check(bi)
        assert rep.passed, rep.as_text()

    def test_sign_flip_breaks_compatibility(self):
        bi = standard_column_bimodule()
        flipped = EquivBimodule(bi.left_alg, bi.right_alg, bi.carrier_dim, bi.left_pair,
                                [[-p for p in row] for row in bi.right_pair])
        rep = morita_check(flipped)
        entry = rep.entry("morita:compatibility")
        assert entry.status == "fail" and entry.residual >= 1.0

    def test_pairing_tables_are_stacked(self):
        bi = standard_column_bimodule()
        assert bi.left_pair.shape == (2, 2, 2, 2)
        assert bi.right_pair.shape == (2, 2, 2, 2)
        u, v = np.array([1.0, 2.0j]), np.array([0.5, -1.0])
        looped = sum(u[i] * np.conj(v[j]) * bi.left_pair[i][j] for i in range(2) for j in range(2))
        assert np.allclose(bi.left_pairing(u, v), looped, rtol=0, atol=1e-14)

    def test_matches_looped_residuals_on_matrix_geometry(self):
        bi = sweep_case("mgeom2_s0")
        noisy = sweep_case("perturbed_mgeom2_s0")
        for case in (bi, noisy):
            rep = morita_check(case)
            for key, value in looped_morita_residuals(case).items():
                assert abs(rep.entry(f"morita:{key}").residual - value) < 1e-12, key
        assert morita_check(bi).passed
        assert morita_check(noisy).entry("morita:compatibility").residual > 0.1

    def test_ambi_norm_agreement(self):
        bi, lam = bimodule_from_actions(
            generate_algebra([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))]),
            generate_algebra([np.kron(np.eye(2), SIGMA1.T), np.kron(np.eye(2), SIGMA3.T)]))
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = random_complex(rng, 4)
            nl = operator_norm(bi.left_pairing(v, v))
            nr = operator_norm(bi.right_pairing(v, v))
            assert abs(nl - nr) < 1e-9 * max(1.0, nl)


def report_digest(rep):
    """Ids, statuses and the integers in the details of a report."""
    return [(e.condition_id, e.status, re.findall(r"\d+", e.details)) for e in rep.entries]


CANONICAL_CASES = {
    "trivial_points_3": lambda: trivial_points(3),
    "trivial_points_6": lambda: trivial_points(6),
    "two_point": lambda: two_point(1.0),
    "mgeom2_s7": lambda: matrix_geometry(2, seed=7),
    "mgeom2_s2001408477": lambda: matrix_geometry(2, seed=2001408477),
    "mgeom3_s0": lambda: matrix_geometry(3, seed=0),
    **{f"barrett{kind}_{n}": functools.partial(barrett_triple, n, kind)
       for kind in ("11", "20") for n in (2, 3)},
}

GAP_KEYS = ("left_pairing_right_action", "right_pairing_left_action")
BOUND_KEYS = ("actions_commute",) + GAP_KEYS + ("compatibility",)


def perturbed_right_action(t, eps):
    """The algebra generated by the right generators of t conjugated by
    exp(i eps h) for a seeded Hermitian h: a generated algebra with
    Wedderburn data, commuting with the left action only up to about eps."""
    gens = np.asarray(t.right_action_gens)
    h = random_complex(np.random.default_rng(11), (t.hilbert_dim,) * 2)
    vals, vecs = np.linalg.eigh(h + adjoint(h))
    u = (vecs * np.exp(1j * eps * vals)) @ adjoint(vecs)
    return generate_algebra(list(u @ gens @ adjoint(u)))


def table_values(left, right):
    """The values the (d, d, d, d) tables give for the four entries of
    `morita_check` that the closed form bounds, the bimodule and its scale."""
    bi, lam = bimodule_from_actions(left, right)
    values = {
        "actions_commute": commutator_residual(left.basis, right.basis),
        "left_pairing_right_action": _action_gap(right.basis, bi.left_pair),
        "right_pairing_left_action": _action_gap(left.basis.conj(), bi.right_pair),
        "compatibility": _compatibility_residual(bi.left_pair, bi.right_pair),
    }
    return values, bi, lam


@pytest.fixture
def built(monkeypatch):
    """The bimodules the library's `bimodule_from_actions` builds."""
    return record_table_builds(monkeypatch)


def equivalence_with_tables(left, right, built):
    """(report, bimodule or None, lam) of `equivalence_check`: the pairing
    tables it built, None when it built none; it builds them at most once."""
    built.clear()
    rep, lam, _, _ = equivalence_check(left, right)
    assert len(built) <= 1
    return rep, (built[0] if built else None), lam


def assert_bounds_dominate(left, right, built):
    """`equivalence_check` has the digest of `morita_check` of the tables,
    and every bound it reports is at least the table value (for
    compatibility, also at the closed form's scale lam = n_k / m_k)."""
    rep, bi, lam = equivalence_with_tables(left, right, built)
    values, ref_bi, ref_lam = table_values(left, right)
    assert report_digest(rep) == report_digest(morita_check(ref_bi))
    assert lam == pytest.approx(ref_lam, rel=1e-12)
    at_lam = _compatibility_residual(ref_bi.left_pair, lam / ref_lam * ref_bi.right_pair)
    for key in BOUND_KEYS:
        entry = rep.entry(f"morita:{key}")
        if entry.details:
            # a bound is only reported while it is within tolerance
            assert values[key] <= entry.residual <= DEFAULT_TOL.rel, key
            if key == "compatibility":
                assert at_lam <= entry.residual
        else:
            assert entry.residual == values[key], key
    return rep, bi, ref_bi


class TestCanonicalMoritaCheck:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_same_digest_as_morita_check(self, name, built):
        t = CANONICAL_CASES[name]()
        _, bi, ref_bi = assert_bounds_dominate(t.cda(), t.right_algebra(), built)
        if bi is not None:
            assert np.array_equal(bi.left_pair, ref_bi.left_pair)
            assert np.array_equal(bi.right_pair, ref_bi.right_pair)

    @pytest.mark.parametrize("name", ["mgeom2_s7", "mgeom2_s2001408477", "mgeom3_s0"])
    def test_matrix_geometry_takes_the_canonical_path(self, name, built):
        t = CANONICAL_CASES[name]()
        rep, bi, lam = equivalence_with_tables(t.cda(), t.right_algebra(), built)
        assert rep.passed, rep.as_text()
        assert bi is None and lam == 2.0
        assert rep.entry("morita:actions_commute").details == "bound from commutant membership"
        for key in GAP_KEYS:
            assert rep.entry(f"morita:{key}").details == "bound from actions_commute"

    def test_self_bimodule_of_a_matrix_algebra(self, built):
        left = generate_algebra([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))])
        right = generate_algebra([np.kron(np.eye(2), SIGMA1.T), np.kron(np.eye(2), SIGMA3.T)])
        rep, bi, _ = assert_bounds_dominate(left, right, built)
        assert rep.passed, rep.as_text()
        assert bi is None

    def test_two_point_falls_back_to_morita_check(self, built):
        t = two_point(1.0)
        rep, bi, _ = equivalence_with_tables(t.cda(), t.right_algebra(), built)
        assert not rep.passed
        assert rep.as_dict() == morita_check(bi).as_dict()

    @pytest.mark.parametrize("seed", [7, 2001408477])
    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 5e-11, 1e-10])
    def test_gap_bound_dominates_exact_gap(self, seed, eps, built):
        t = matrix_geometry(2, seed=seed)
        right = perturbed_right_action(t, eps)
        assert right.wedderburn is not None
        rep, _, _ = assert_bounds_dominate(t.cda(), right, built)
        assert 1e-12 < rep.entry("morita:actions_commute").residual <= DEFAULT_TOL.rel

    def test_span_that_is_not_a_star_algebra_falls_back(self, built):
        # the nilpotent span commutes with the left action and gets lam = 1,
        # but it is not *-closed, so its Gram matrix is not positive
        left = generate_algebra([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))])
        nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
        right = AlgebraBasis(4, [np.kron(np.eye(2), nilpotent) / np.sqrt(2.0)])
        rep, bi, lam = equivalence_with_tables(left, right, built)
        assert lam > 0.0
        assert rep.entry("morita:actions_commute").status == "pass"
        assert rep.entry("morita:right_gram_positive").status == "fail"
        assert rep.as_dict() == morita_check(bi).as_dict()

    def test_both_gap_branches_are_exercised(self, built):
        # the right action stays on the closed form while delta <= tol; the
        # gap bounds sqrt(dim) (2 delta + 2 u) pass at eps 1e-11 (delta about
        # 4e-11) and exceed tol at eps 1e-10 (delta about 4e-10), where the
        # tables give the exact value
        t = matrix_geometry(2, seed=7)
        used = set()
        for eps in (1e-11, 1e-10):
            rep, _, _ = equivalence_with_tables(t.cda(), perturbed_right_action(t, eps), built)
            used.update(rep.entry(f"morita:{key}").details for key in GAP_KEYS)
        assert used == {"bound from actions_commute", ""}


def looped_block_residual(mod, big):
    """Reference: the per-block membership loop the module checks used."""
    d, m = mod.block_dim, mod.size
    return max(span_residual(big[i * d:(i + 1) * d, j * d:(j + 1) * d], mod.base.basis)
               for i in range(m) for j in range(m))


@functools.lru_cache(maxsize=None)
def forward_module(n):
    """The module of the spin^c -> Riemannian conversion of matrix_geometry(n)."""
    from ncgeo.convert import spinc_to_riemannian

    t = matrix_geometry(n, seed=0)
    return spinc_to_riemannian(t).witness["module"]


class TestBlockResidual:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_block_loop(self, n):
        mod = forward_module(n)
        rng = np.random.default_rng(n)
        q = dense_module_projector(mod)
        outside = random_complex(rng, q.shape)
        for big in (q, outside, q + 1e-6 * outside):
            assert abs(mod.block_residual(big) - looped_block_residual(mod, big)) <= 1e-12
        assert mod.block_residual(q) <= 1e-12
        assert mod.block_residual(outside) > 0.1
        assert validate_module(mod).passed

    def test_random_module(self):
        rng = np.random.default_rng(31)
        mod = random_projective_module(rng, generate_algebra([SIGMA3]), 3)
        q = dense_module_projector(mod)
        for big in (q, mod.metric, random_complex(rng, q.shape)):
            assert abs(mod.block_residual(big) - looped_block_residual(mod, big)) <= 1e-12


class TestOperatorBound:
    def test_zero_operator(self):
        mod = free_module(scalar_base(), 2)
        assert linear_operator_bound(np.zeros((2, 2)), mod) == pytest.approx(0.0)

    def test_identity_with_orthonormal_frame(self):
        mod = free_module(scalar_base(), 2)
        bound = linear_operator_bound(np.eye(2, dtype=complex), mod)
        assert bound == pytest.approx(np.sqrt(2.0))
        assert bound >= 1.0

    def test_bound_dominates_svd_norm(self):
        # seeded sweep: the bound must dominate the true L^2 operator norm
        rng = np.random.default_rng(2024)
        base = generate_algebra([SIGMA3, SIGMA1])
        violations = 0
        for trial in range(25):
            mod = random_projective_module(rng, base, 2)
            d, m = base.hilbert_dim, mod.size
            raw = np.zeros((m * d, m * d), dtype=complex)
            for i in range(m):
                for j in range(m):
                    raw[i * d:(i + 1) * d, j * d:(j + 1) * d] = sum(
                        (rng.standard_normal() + 1j * rng.standard_normal()) * b
                        for b in base.basis)
            q = dense_module_projector(mod)
            t_op = q @ raw @ q
            bound = linear_operator_bound(t_op, mod)
            true_norm = l2_operator_norm(t_op, mod)
            if bound < true_norm - 1e-9:
                violations += 1
        assert violations == 0

    def test_rejects_non_module_map(self):
        base = generate_algebra([SIGMA3])
        mod = free_module(base, 1)
        with pytest.raises(ValueError):
            linear_operator_bound(SIGMA1 * 0 + np.array([[0, 1], [0, 0]]), mod)


def l2_operator_norm(t_op, mod, rho=None):
    """Oracle: matrix norm of the operator on the L^2 space of the module."""
    d, m = mod.block_dim, mod.size
    rho = np.eye(d, dtype=complex) if rho is None else rho
    q = dense_module_projector(mod)
    metric = q if mod.metric is None else mod.metric
    cols = []
    for j in range(m):
        for b in mod.base.basis:
            col = np.zeros((m * d, d), dtype=complex)
            col[j * d:(j + 1) * d, :] = b
            cols.append(q @ col)
    vecs = span_basis(cols)
    if len(vecs) == 0:
        return 0.0
    k = len(vecs)
    gram = np.zeros((k, k), dtype=complex)
    tmat = np.zeros((k, k), dtype=complex)
    ips = lambda e, f: np.trace(rho @ adjoint(e) @ metric @ f)
    for i, e in enumerate(vecs):
        for j, f in enumerate(vecs):
            gram[i, j] = ips(e, f)
            tmat[i, j] = ips(e, t_op @ f)
    vals, w = np.linalg.eigh((gram + adjoint(gram)) / 2.0)
    keep = vals > 1e-10 * max(vals[-1], 1e-300)
    w = w[:, keep] @ np.diag(vals[keep] ** -0.5)
    op = adjoint(w) @ tmat @ w
    return operator_norm(op)


class TestModuleValidationEdges:
    @pytest.mark.parametrize("n", [2, 3])
    def test_default_metric_matches_copied_metric(self, n):
        # the default metric (the projector itself) takes the shortcut; a
        # copy of it takes the general path, and the reports are identical
        # but for the invertibility details, which the shortcut states
        # instead of an eigenvalue
        mod = forward_module(n)
        # the projector validate_module reads, which from_projector keeps exactly
        q = mod.dense()
        copied = ProjectiveModule.from_projector(mod.base, mod.size, q, q.copy())
        reports = [validate_module(m).as_dict() for m in (mod, copied)]
        for rep in reports:
            for entry in rep["entries"]:
                if entry["condition_id"] == "module:metric_invertible":
                    entry["details"] = None
        assert reports[0] == reports[1]

    def test_degenerate_metric_flagged(self):
        # metric with a kernel inside the module range fails the invertibility entry
        base = scalar_base()
        q = np.eye(2, dtype=complex)
        r = np.diag([1.0, 0.0]).astype(complex)
        mod = ProjectiveModule.from_projector(base, 2, q, r)
        rep = validate_module(mod)
        assert rep.entry("module:metric_invertible").status == "fail"
