import functools

import numpy as np
import pytest

from ncgeo.algebra import generate_algebra
from ncgeo.examples import matrix_geometry
from ncgeo.kasparov import grassmann_connection, twisted_operator
from ncgeo.linalg import adjoint, herm_eig, operator_norm, random_complex, rel_residual, span_basis
from ncgeo.modules import (
    EquivBimodule,
    ProjectiveModule,
    bimodule_from_actions,
    conjugate_element,
    conjugate_module,
    frame_presentation,
    inverse_weight_pairing,
    l2_space,
    linear_operator_bound,
    morita_check,
    pairing_eval,
    pre_morita_decompose,
    random_module_element,
    validate_module,
    weight_from_pairing,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def scalar_base(d=1):
    return generate_algebra([np.zeros((d, d))], with_unit=True)


def free_module(base, m, metric=None):
    d = base.hilbert_dim
    q = np.eye(m * d, dtype=complex)
    r = np.eye(m * d, dtype=complex) if metric is None else metric
    return ProjectiveModule(base, m, q, r, "right")


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
    return ProjectiveModule(base, m, q, r, "right")


class TestPairingEval:
    def test_standard_basis(self):
        mod = free_module(scalar_base(), 2)
        e = np.array([[1.0], [0.0]], dtype=complex)
        assert pairing_eval(mod, e, e)[0, 0] == pytest.approx(1.0)

    def test_weighted_metric(self):
        mod = free_module(scalar_base(), 2, metric=np.diag([2.0, 3.0]).astype(complex))
        e = np.array([[0.0], [1.0]], dtype=complex)
        assert pairing_eval(mod, e, e)[0, 0] == pytest.approx(3.0)

    def test_positivity_on_random_elements(self):
        rng = np.random.default_rng(12)
        base = generate_algebra([SIGMA3], with_unit=True)
        mod = random_projective_module(rng, base, 3)
        assert validate_module(mod).passed
        for _ in range(5):
            e = random_module_element(mod, rng)
            val = pairing_eval(mod, e, e)
            vals, _ = herm_eig((val + adjoint(val)) / 2.0)
            assert vals[0] >= -1e-9 * max(1.0, vals[-1])

    def test_rejects_element_outside_projector(self):
        rng = np.random.default_rng(1)
        base = scalar_base()
        q = np.diag([1.0, 0.0]).astype(complex)
        mod = ProjectiveModule(base, 2, q, q, "right")
        bad = np.array([[0.0], [1.0]], dtype=complex)
        with pytest.raises(ValueError):
            pairing_eval(mod, bad, bad)


class TestFramePresentation:
    @staticmethod
    def _scalar_ops(dim):
        pair = lambda y, g: np.array([[np.vdot(y, g)]], dtype=complex)
        rmul = lambda x, a: x * a[0, 0]
        return pair, rmul

    def test_orthonormal_basis_gives_identity(self):
        pair, rmul = self._scalar_ops(2)
        xs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        q, to_c, from_c = frame_presentation(xs, xs, pair, rmul, xs)
        assert np.allclose(q, np.eye(2))

    def test_single_vector(self):
        pair, rmul = self._scalar_ops(1)
        xs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 0.0], dtype=complex)]
        q, _, _ = frame_presentation(xs, xs, pair, rmul, [xs[0]])
        assert np.allclose(q, np.diag([1.0, 0.0]))

    def test_random_frame_idempotency(self):
        rng = np.random.default_rng(3)
        pair, rmul = self._scalar_ops(3)
        vs = [random_complex(rng, 3) for _ in range(4)]
        s = sum(np.outer(v, np.conj(v)) for v in vs)
        s_inv = np.linalg.inv(s)
        ys = [s_inv @ v for v in vs]
        probes = [random_complex(rng, 3) for _ in range(3)]
        q, to_c, from_c = frame_presentation(vs, ys, pair, rmul, probes)
        assert operator_norm(q @ q - q) < 1e-10
        for g in probes:
            assert np.linalg.norm(from_c(to_c(g)) - g) < 1e-9

    def test_violated_frame_condition(self):
        pair, rmul = self._scalar_ops(2)
        xs = [np.array([1.0, 0.0], dtype=complex)]
        with pytest.raises(ValueError):
            frame_presentation(xs, xs, pair, rmul,
                               [np.array([0.0, 1.0], dtype=complex)])


class TestKasparovModule:
    def test_trivial_module_twists_exactly(self):
        t = matrix_geometry(2, seed=11)
        right = t.right_algebra()
        mod = ProjectiveModule(right, 1, np.eye(t.hilbert_dim, dtype=complex))
        assert mod.metric is mod.projector
        assert validate_module(mod).passed
        dhat, ahat = twisted_operator(t, grassmann_connection(mod))
        assert np.array_equal(dhat, t.dirac)
        assert not ahat.any()


def standard_column_bimodule():
    """C^2 between the full matrix algebra and the scalars."""
    left = generate_algebra([SIGMA1, SIGMA3], with_unit=True)
    right = generate_algebra([np.zeros((2, 2))], with_unit=True)
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


def sweep_decompose_residuals(bi, out):
    """The 2-norm residuals of pre_morita_decompose as full sweeps over every block."""
    q_ops, p_ops = out["q_ops"], out["p_ops"]
    on_right, on_left = out["rep_left_on_right"], out["rep_right_on_left"]
    qq = np.einsum("jkab,ijbc->ikac", q_ops, q_ops, optimize=True)
    pp = np.einsum("ijab,jkbc->ikac", p_ops, p_ops, optimize=True)
    left_hom = right_hom = 0.0
    for b1 in bi.left_alg.basis[:4]:
        for b2 in bi.left_alg.basis[:4]:
            prod = np.einsum("jkab,ijbc->ikac", on_right(b2), on_right(b1), optimize=True)
            left_hom = max(left_hom, float(np.max(sweep_norms(on_right(b1 @ b2) - prod)))
                           / max(1.0, operator_norm(b1) * operator_norm(b2)))
    for a1 in bi.right_alg.basis[:4]:
        for a2 in bi.right_alg.basis[:4]:
            prod = np.einsum("ijab,jkbc->ikac", on_left(a1), on_left(a2), optimize=True)
            right_hom = max(right_hom, float(np.max(sweep_norms(on_left(a2 @ a1) - prod)))
                            / max(1.0, operator_norm(a1) * operator_norm(a2)))
    return {"right_projector_idempotent": float(np.max(sweep_norms(qq - q_ops))),
            "left_projector_idempotent": float(np.max(sweep_norms(pp - p_ops))),
            "left_into_right_homomorphism": left_hom,
            "right_into_left_homomorphism": right_hom}


class TestPrunedMaximaMatchSweeps:
    @pytest.mark.parametrize("name", SWEEP_CASES + ["perturbed_mgeom2_s0"])
    def test_morita_check(self, name):
        bi = sweep_case(name)
        rep = morita_check(bi)
        for key, value in sweep_morita_residuals(bi).items():
            assert rep.entry(f"morita:{key}").residual == value, key

    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_pre_morita_decompose(self, name):
        bi = sweep_case(name)
        out = pre_morita_decompose(bi)
        for key, value in sweep_decompose_residuals(bi, out).items():
            assert out["report"].entry(f"decompose:{key}").residual == value, key


class TestMoritaCheck:
    def test_standard_equivalence(self):
        rep = morita_check(standard_column_bimodule())
        assert rep.passed, rep.as_text()

    def test_matrix_self_bimodule(self):
        # M_n as a bimodule over itself through left/right multiplication
        n = 2
        left = generate_algebra([np.kron(SIGMA1, np.eye(n)), np.kron(SIGMA3, np.eye(n))],
                                with_unit=True)
        right = generate_algebra([np.kron(np.eye(n), SIGMA1.T), np.kron(np.eye(n), SIGMA3.T)],
                                 with_unit=True)
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


class TestL2Space:
    def test_standard(self):
        mod = free_module(scalar_base(), 2)
        gram, ortho = l2_space(mod, np.eye(1, dtype=complex))
        assert np.allclose(gram, np.eye(2))

    def test_weighted(self):
        mod = free_module(scalar_base(), 2, metric=np.diag([2.0, 3.0]).astype(complex))
        gram, _ = l2_space(mod, np.eye(1, dtype=complex))
        assert np.allclose(gram, np.diag([2.0, 3.0]))

    def test_zero_weight_rejected(self):
        base = generate_algebra([np.diag([1.0, -1.0])], with_unit=True)
        mod = free_module(base, 1)
        with pytest.raises(ValueError):
            l2_space(mod, np.diag([1.0, 0.0]).astype(complex))


class TestConjugateModule:
    def test_double_conjugation(self):
        rng = np.random.default_rng(5)
        base = generate_algebra([SIGMA3], with_unit=True)
        mod = random_projective_module(rng, base, 2)
        back = conjugate_module(conjugate_module(mod))
        assert back.side == mod.side
        assert operator_norm(back.projector - mod.projector) < 1e-12

    def test_action_compatibility(self):
        # a . conj(e) equals conj(e . a*) in the row representation
        rng = np.random.default_rng(6)
        base = generate_algebra([SIGMA3, SIGMA1], with_unit=True)
        mod = random_projective_module(rng, base, 2)
        for _ in range(5):
            e = random_module_element(mod, rng)
            a = sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                    for b in base.basis)
            lhs = a @ adjoint(e)            # action on the conjugate row
            rhs = adjoint(e @ adjoint(a))   # conjugate of e . a*
            assert operator_norm(lhs - rhs) < 1e-10

    def test_pairing_transport(self):
        rng = np.random.default_rng(7)
        base = generate_algebra([SIGMA3], with_unit=True)
        mod = random_projective_module(rng, base, 2)
        conj = conjugate_module(mod)
        e = random_module_element(mod, rng)
        f = random_module_element(mod, rng)
        lhs = pairing_eval(conj, conjugate_element(e), conjugate_element(f))
        rhs = pairing_eval(mod, e, f)
        assert operator_norm(lhs - rhs) < 1e-10


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
        base = generate_algebra([SIGMA3, SIGMA1], with_unit=True)
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
            t_op = mod.projector @ raw @ mod.projector
            bound = linear_operator_bound(t_op, mod)
            true_norm = l2_operator_norm(t_op, mod)
            if bound < true_norm - 1e-9:
                violations += 1
        assert violations == 0

    def test_rejects_non_module_map(self):
        base = generate_algebra([SIGMA3], with_unit=True)
        mod = free_module(base, 1)
        with pytest.raises(ValueError):
            linear_operator_bound(SIGMA1 * 0 + np.array([[0, 1], [0, 0]]), mod)


def l2_operator_norm(t_op, mod, rho=None):
    """Oracle: matrix norm of the operator on the L^2 space of the module."""
    d, m = mod.block_dim, mod.size
    rho = np.eye(d, dtype=complex) if rho is None else rho
    cols = []
    for j in range(m):
        for b in mod.base.basis:
            col = np.zeros((m * d, d), dtype=complex)
            col[j * d:(j + 1) * d, :] = b
            cols.append(mod.projector @ col)
    vecs = span_basis(cols)
    if not vecs:
        return 0.0
    k = len(vecs)
    gram = np.zeros((k, k), dtype=complex)
    tmat = np.zeros((k, k), dtype=complex)
    ips = lambda e, f: np.trace(rho @ adjoint(e) @ mod.metric @ f)
    for i, e in enumerate(vecs):
        for j, f in enumerate(vecs):
            gram[i, j] = ips(e, f)
            tmat[i, j] = ips(e, t_op @ f)
    vals, w = np.linalg.eigh((gram + adjoint(gram)) / 2.0)
    keep = vals > 1e-10 * max(vals[-1], 1e-300)
    w = w[:, keep] @ np.diag(vals[keep] ** -0.5)
    op = adjoint(w) @ tmat @ w
    return operator_norm(op)


class TestWeights:
    def test_partial_trace_weight(self):
        # compressed matrix algebra over a diagonal base with the partial trace
        d = 2
        k = 2
        base_ops = [np.kron(np.eye(k), SIGMA3)]
        a_alg = generate_algebra(base_ops, with_unit=True)
        big = [np.kron(SIGMA1, np.eye(d)), np.kron(SIGMA3, np.eye(d)),
               np.kron(np.eye(k), SIGMA3)]
        c_alg = generate_algebra(big, with_unit=True)

        def ptrace(w):
            out = np.zeros((d, d), dtype=complex)
            for i in range(k):
                out += w[i * d:(i + 1) * d, i * d:(i + 1) * d]
            return np.kron(np.eye(k), out) / 1.0

        pairing = lambda u, v: ptrace(u @ adjoint(v))
        psi, rep = weight_from_pairing(c_alg, a_alg, pairing)
        assert rep.passed, rep.as_text()

    def test_evaluation_weight_on_same_algebra(self):
        alg = generate_algebra([SIGMA3], with_unit=True)
        pairing = lambda u, v: u @ adjoint(v)
        psi, rep = weight_from_pairing(alg, alg, pairing)
        assert rep.passed
        assert operator_norm(psi(SIGMA3) - SIGMA3) < 1e-12

    def test_round_trip(self):
        alg = generate_algebra([SIGMA3], with_unit=True)
        pairing = lambda u, v: u @ adjoint(v)
        psi, _ = weight_from_pairing(alg, alg, pairing)
        again = inverse_weight_pairing(psi)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = sum(rng.standard_normal() * b for b in alg.basis)
            v = sum(rng.standard_normal() * b for b in alg.basis)
            assert operator_norm(again(u, v) - pairing(u, v)) < 1e-10


class TestPreMoritaDecompose:
    def test_standard_column_module(self):
        out = pre_morita_decompose(standard_column_bimodule())
        assert out["report"].passed, out["report"].as_text()

    def test_matrix_self_bimodule(self):
        n = 2
        left = generate_algebra([np.kron(SIGMA1, np.eye(n)), np.kron(SIGMA3, np.eye(n))],
                                with_unit=True)
        right = generate_algebra([np.kron(np.eye(n), SIGMA1.T), np.kron(np.eye(n), SIGMA3.T)],
                                 with_unit=True)
        bi, _ = bimodule_from_actions(left, right)
        out = pre_morita_decompose(bi)
        assert out["report"].passed, out["report"].as_text()

    def test_trivial_self_equivalence(self):
        alg = generate_algebra([np.diag([1.0, -1.0])], with_unit=True)
        bi, lam = bimodule_from_actions(alg, alg)
        out = pre_morita_decompose(bi)
        assert out["report"].passed

    def test_ambi_norm_agreement(self):
        bi, lam = bimodule_from_actions(
            generate_algebra([np.kron(SIGMA1, np.eye(2)), np.kron(SIGMA3, np.eye(2))],
                             with_unit=True),
            generate_algebra([np.kron(np.eye(2), SIGMA1.T), np.kron(np.eye(2), SIGMA3.T)],
                             with_unit=True))
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = random_complex(rng, 4)
            nl = operator_norm(bi.left_pairing(v, v))
            nr = operator_norm(bi.right_pairing(v, v))
            assert abs(nl - nr) < 1e-9 * max(1.0, nl)


class TestModuleValidationEdges:
    def test_degenerate_metric_flagged(self):
        # metric with a kernel inside the module range fails the invertibility entry
        base = scalar_base()
        q = np.eye(2, dtype=complex)
        r = np.diag([1.0, 0.0]).astype(complex)
        mod = ProjectiveModule(base, 2, q, r, "right")
        rep = validate_module(mod)
        assert rep.entry("module:metric_invertible").status == "fail"

    def test_rank_deficient_projector_kernels_match(self):
        base = scalar_base()
        q = np.diag([1.0, 0.0]).astype(complex)
        mod = ProjectiveModule(base, 2, q, q.copy(), "right")
        gram, ortho = l2_space(mod, np.eye(1, dtype=complex))
        vals = np.linalg.eigvalsh(gram)
        assert sum(v < 1e-10 for v in vals) == 1  # matches the projector kernel
