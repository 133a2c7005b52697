"""Finitely generated projective hermitian modules, pairings, frames and Morita data.

Concrete conventions
--------------------
* A right module q A^m over an algebra A of d x d matrices stores its
  elements as block columns of shape (m*d, d); the right action is matrix
  multiplication from the right, e -> e @ a.
* The conjugate (left) module stores block rows of shape (d, m*d); the
  left action is a @ e.  Conjugation of a right element is the adjoint of
  its block column; projector and metric are reused unchanged.
* Bimodule pairings are stored as (d, d, d, d) tables over the standard
  basis of the carrier space and extended sesquilinearly.  Left pairings
  are linear in the first slot, right pairings in the second.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    herm_apply,
    herm_eig,
    max_operator_norm,
    operator_norm,
    rel_residual,
    span_basis,
)
from .report import CheckReport

__all__ = [
    "ProjectiveModule",
    "EquivBimodule",
    "validate_module",
    "pairing_eval",
    "random_module_element",
    "frame_presentation",
    "morita_check",
    "bimodule_from_actions",
    "l2_space",
    "conjugate_module",
    "linear_operator_bound",
    "weight_from_pairing",
    "inverse_weight_pairing",
    "pre_morita_decompose",
    "parseval_frame",
]


@dataclass
class ProjectiveModule:
    """Module q B^m over an algebra B of d x d operators, presented by a projector.

    The blocks of the projector and of the metric lie in B.  The metric
    defaults to the projector itself (the standard hermitian structure).
    """

    base: AlgebraBasis
    size: int
    projector: np.ndarray  # (m*d, m*d), blocks over the base algebra
    metric: np.ndarray | None = None  # (m*d, m*d), positive, q r = r q = r
    side: str = "right"

    def __post_init__(self):
        if self.metric is None:
            self.metric = self.projector

    @property
    def block_dim(self) -> int:
        return self.base.hilbert_dim

    def blocks(self, big: np.ndarray):
        d = self.block_dim
        m = self.size
        return [[big[i * d:(i + 1) * d, j * d:(j + 1) * d] for j in range(m)] for i in range(m)]


def validate_module(mod: ProjectiveModule, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    rep = CheckReport()
    q, r = mod.projector, mod.metric
    nq = operator_norm(q)
    rep.add("module:idempotent", rel_residual(q @ q - q, nq, nq), tol.rel)
    rep.add("module:projector_hermitian", rel_residual(q - adjoint(q), nq), tol.rel)
    worst = 0.0
    for row in mod.blocks(q):
        for blk in row:
            worst = max(worst, mod.base.membership_residual(blk))
    for row in mod.blocks(r):
        for blk in row:
            worst = max(worst, mod.base.membership_residual(blk))
    rep.add("module:blocks_in_base", worst, max(tol.rel, 1e3 * tol.rank_cut))
    nr = operator_norm(r)
    rep.add("module:metric_compressed", rel_residual(q @ r - r, nq, nr) + rel_residual(r @ q - r, nq, nr), tol.rel)
    aug = r + (np.eye(q.shape[0]) - q)
    vals, _ = herm_eig((aug + adjoint(aug)) / 2.0, tol)
    rep.add(
        "module:metric_invertible",
        0.0 if vals[0] > tol.rank_cut * max(1.0, vals[-1]) else 1.0,
        0.5,
        f"min eigenvalue {vals[0]:.3e}",
    )
    return rep


def random_module_element(mod: ProjectiveModule, rng: np.random.Generator) -> np.ndarray:
    d, m = mod.block_dim, mod.size
    blocks = []
    for _ in range(m):
        x = np.zeros((d, d), dtype=complex)
        for b in mod.base.basis:
            x = x + (rng.standard_normal() + 1j * rng.standard_normal()) * b
        blocks.append(x)
    if mod.side == "right":
        return mod.projector @ np.vstack(blocks)
    return np.hstack([adjoint(b) for b in blocks]) @ mod.projector


def pairing_eval(mod: ProjectiveModule, e: np.ndarray, f: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Metric pairing of two module elements; result is a base-algebra element."""
    e = as_complex_matrix(e)
    f = as_complex_matrix(f)
    q = mod.projector
    if mod.side == "right":
        for x in (e, f):
            if rel_residual(q @ x - x, operator_norm(x)) > tol.rel:
                raise ValueError("element is not in the range of the module projector")
        return adjoint(e) @ mod.metric @ f
    for x in (e, f):
        if rel_residual(x @ q - x, operator_norm(x)) > tol.rel:
            raise ValueError("element is not in the range of the module projector")
    return e @ mod.metric @ adjoint(f)


def _frame_residual(xs, ys, pair, rmul, probes) -> float:
    """Largest residual of the frame condition sum_i rmul(x_i, pair(y_i, g)) = g
    over the probes, relative to max(1, |g|)."""
    worst = 0.0
    for g in probes:
        rec = None
        for x, y in zip(xs, ys):
            t = rmul(x, pair(y, g))
            rec = t if rec is None else rec + t
        worst = max(worst, rel_residual(rec - g, operator_norm(g)))
    return worst


def frame_presentation(xs, ys, pair, rmul, probes, tol: Tolerance = DEFAULT_TOL):
    """Projector presentation of a right module from a finite frame.

    `pair(e, f)` is the algebra-valued inner product, `rmul(e, a)` the right
    action.  The frame condition sum_i x_i (y_i | g) = g is verified on the
    probe elements (`rmul` is only used there and by `from_coords`).
    Returns (q, to_coords, from_coords): block (i, j) of q is pair(y_i, x_j)
    and to_coords(e) stacks the blocks pair(y_i, e).
    """
    m = len(xs)
    if len(ys) != m:
        raise ValueError("frame needs equally many x and y vectors")
    worst = _frame_residual(xs, ys, pair, rmul, probes)
    if worst > max(tol.rel, 1e-7):
        raise ValueError(f"frame condition violated, residual {worst:.3e}")

    blocks = [[pair(y, x) for x in xs] for y in ys]
    q = np.block(blocks).astype(complex, copy=False)
    d = blocks[0][0].shape[0]

    def to_coords(e):
        return np.vstack([pair(y, e) for y in ys])

    def from_coords(col):
        out = None
        for i, x in enumerate(xs):
            t = rmul(x, col[i * d:(i + 1) * d, :])
            out = t if out is None else out + t
        return out

    return q, to_coords, from_coords


# ---------------------------------------------------------------------------
# two-sided bimodules


@dataclass
class EquivBimodule:
    """Two-sided hermitian bimodule on a concrete carrier C^d.

    Both algebras act on the carrier; `left_pair[i, j]` is the left-algebra
    value of (c_i | c_j) (linear in the first slot), `right_pair[i, j]` the
    operator by which (c_i | c_j) of the right algebra acts (linear in the
    second slot).  Both tables are (d, d, d, d) arrays; nested lists of
    matrices are stacked.
    """

    left_alg: AlgebraBasis
    right_alg: AlgebraBasis
    carrier_dim: int
    left_pair: np.ndarray
    right_pair: np.ndarray

    def __post_init__(self):
        shape = (self.carrier_dim,) * 4
        self.left_pair = np.asarray(self.left_pair, dtype=complex).reshape(shape)
        self.right_pair = np.asarray(self.right_pair, dtype=complex).reshape(shape)

    def left_pairing(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=complex).ravel()
        v = np.asarray(v, dtype=complex).ravel()
        return np.tensordot(np.outer(u, v.conj()), self.left_pair, 2)

    def right_pairing(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=complex).ravel()
        v = np.asarray(v, dtype=complex).ravel()
        return np.tensordot(np.outer(u.conj(), v), self.right_pair, 2)


def _compatibility_sides(lp, rp):
    """(c_i|c_j)_left c_k and (c_j|c_k)_right c_i, both indexed [i, j, k, :]."""
    return lp.transpose(0, 1, 3, 2), rp.transpose(3, 0, 1, 2)


def bimodule_from_actions(left_alg: AlgebraBasis, right_alg: AlgebraBasis,
                          tol: Tolerance = DEFAULT_TOL):
    """Canonical bimodule structure on the carrier from two commuting actions.

    Left pairing: conditional expectation of the rank-one |u><v| onto the
    left algebra.  Right pairing: expectation onto the right algebra, scaled
    by the least-squares factor that enforces the compatibility relation
    (u|v)_left . w = u . (v|w)_right.  Returns (bimodule, scale).
    """
    d = left_alg.hilbert_dim
    if right_alg.hilbert_dim != d:
        raise ValueError("actions must share the carrier")
    # for an orthonormal basis b_k, E(|c_i><c_j|) = sum_k conj(b_k[i, j]) b_k
    lp = np.tensordot(left_alg.basis.conj(), left_alg.basis, (0, 0))
    # right table entry [i, j] is E(|c_j><c_i|)
    rp_raw = np.tensordot(right_alg.basis.conj(), right_alg.basis, (0, 0)).transpose(1, 0, 2, 3)

    # least-squares scale from compatibility sampled on basis triples
    lhs, rhs = _compatibility_sides(lp, rp_raw)
    den = float(np.vdot(rhs, rhs).real)
    lam = float(np.vdot(rhs, lhs).real) / den if den > 0 else 1.0
    bi = EquivBimodule(left_alg, right_alg, d, lp, lam * rp_raw)
    return bi, lam


def morita_check(bi: EquivBimodule, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Compatibility, fullness and positivity checks for a two-sided bimodule."""
    rep = CheckReport()
    d = bi.carrier_dim
    lp, rp = bi.left_pair, bi.right_pair
    left, right = bi.left_alg.basis, bi.right_alg.basis
    left_norms = np.linalg.norm(left, 2, axis=(-2, -1))
    right_norms = np.linalg.norm(right, 2, axis=(-2, -1))

    comm = left[:, None] @ right[None] - right[None] @ left[:, None]
    rep.add("morita:actions_commute",
            max_operator_norm(comm, left_norms[:, None] * right_norms), tol.rel)

    def action_gap(coeffs, norms, table):
        # [i, j] entries of (a c_i | c_j) - (c_i | a^* c_j); the matrix of a
        # enters as is in the linear slot of the table, conjugated otherwise
        worst = 0.0
        for c, nc in zip(coeffs, norms):
            gap = np.tensordot(c, table, (0, 0)) - np.tensordot(c, table, (1, 1)).transpose(1, 0, 2, 3)
            worst = max_operator_norm(gap, nc, floor=worst)
        return worst

    rep.add("morita:left_pairing_right_action", action_gap(right, right_norms, lp), tol.rel)
    rep.add("morita:right_pairing_left_action", action_gap(left.conj(), left_norms, rp), tol.rel)

    lhs, rhs = _compatibility_sides(lp, rp)
    rep.add("morita:compatibility", float(np.max(np.linalg.norm(lhs - rhs, axis=-1))), tol.rel)

    ldim = len(span_basis(lp.reshape(d * d, d, d), tol))
    rdim = len(span_basis(rp.reshape(d * d, d, d), tol))
    rep.add("morita:left_full", 0.0 if ldim == bi.left_alg.dim else 1.0, 0.5,
            f"pairing span {ldim} vs algebra {bi.left_alg.dim}")
    rep.add("morita:right_full", 0.0 if rdim == bi.right_alg.dim else 1.0, 0.5,
            f"pairing span {rdim} vs algebra {bi.right_alg.dim}")

    # left values act through a representation, right values through an
    # antirepresentation, so the positive arrangement of the right Gram is
    # the transposed one: block (i, j) holds left_pair[i, j] and right_pair[j, i]
    gram_left = lp.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    gram_right = rp.transpose(1, 2, 0, 3).reshape(d * d, d * d)
    for name, gram in (("left", gram_left), ("right", gram_right)):
        h = (gram + adjoint(gram)) / 2.0
        sym = rel_residual(gram - adjoint(gram), operator_norm(gram))
        vals, _ = herm_eig(h, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
        neg = max(0.0, -float(vals[0]))
        rep.add(f"morita:{name}_gram_positive", sym + neg / max(1.0, float(vals[-1])), tol.rel)
    return rep


# ---------------------------------------------------------------------------
# L^2 spaces, conjugates, bounds


def l2_space(mod: ProjectiveModule, density: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Gram matrix of the module generators under the state Tr(density . ) and
    the orthonormalization map (pseudo-inverse square root of the Gram)."""
    rho = as_complex_matrix(density)
    d = mod.block_dim
    if rho.shape != (d, d):
        raise ValueError("state must act on the base algebra carrier")
    vals, _ = herm_eig((rho + adjoint(rho)) / 2.0, tol)
    if vals[0] <= tol.rank_cut * max(1.0, vals[-1]):
        raise ValueError("state is not faithful (density matrix has a kernel)")
    m = mod.size
    r = mod.metric
    gram = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.trace(rho @ r[i * d:(i + 1) * d, j * d:(j + 1) * d])
    gvals, _ = herm_eig((gram + adjoint(gram)) / 2.0, tol)
    if gvals[0] < -tol.rel * max(1.0, gvals[-1]):
        raise ValueError("Gram matrix is not positive semidefinite")

    scale = max(1.0, float(gvals[-1]))
    gram_kernel = int(np.sum(gvals <= tol.rank_cut * scale))
    # kernel of the module presentation on scalar coordinate vectors
    act = np.zeros((m * d * d, m), dtype=complex)
    for j in range(m):
        col = np.zeros((m * d, d), dtype=complex)
        col[j * d:(j + 1) * d, :] = np.eye(d)
        act[:, j] = (mod.projector @ col).ravel()
    svals = np.linalg.svd(act, compute_uv=False)
    act_kernel = int(np.sum(svals <= tol.rank_cut * max(svals[0], 1e-300))) if svals.size else m
    if gram_kernel != act_kernel:
        raise ValueError(
            f"state not faithful on the module: Gram kernel {gram_kernel} vs projector kernel {act_kernel}")

    def inv_sqrt(x):
        return 0.0 if x <= tol.rank_cut * scale else x ** -0.5

    ortho = herm_apply(inv_sqrt, (gram + adjoint(gram)) / 2.0, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
    return gram, ortho


def conjugate_module(mod: ProjectiveModule) -> ProjectiveModule:
    """Conjugate module: sides flip, elements conjugate, projector and metric persist."""
    side = "left" if mod.side == "right" else "right"
    return ProjectiveModule(mod.base, mod.size, mod.projector.copy(), mod.metric.copy(), side)


def conjugate_element(e: np.ndarray) -> np.ndarray:
    return adjoint(e)


def linear_operator_bound(t_op: np.ndarray, mod: ProjectiveModule, tol: Tolerance = DEFAULT_TOL) -> float:
    """Upper bound for the operator norm of a module endomorphism.

    The bound is B with B^2 = sum_{r,s} ||(x_s|x_r)(T x_r|T x_s)|| over the
    projector-column generators x_j; it dominates the L^2 operator norm for
    every state on the base algebra.
    """
    if mod.side != "right":
        raise ValueError("operator bound implemented for right modules")
    t_op = as_complex_matrix(t_op)
    d, m = mod.block_dim, mod.size
    q = mod.projector
    nt = operator_norm(t_op)
    worst = 0.0
    for row in mod.blocks(t_op):
        for blk in row:
            worst = max(worst, mod.base.membership_residual(blk))
    comp = rel_residual(q @ t_op @ q - t_op, nt)
    if max(worst, comp) > max(tol.rel, 1e-7):
        raise ValueError("operator is not a module endomorphism over the base algebra")

    xs = [q[:, j * d:(j + 1) * d] for j in range(m)]
    txs = [t_op @ x for x in xs]
    total = 0.0
    for r in range(m):
        for s in range(m):
            a = adjoint(xs[s]) @ mod.metric @ xs[r]
            b = adjoint(txs[r]) @ mod.metric @ txs[s]
            total += operator_norm(a @ b)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# operator-valued weights


def weight_from_pairing(c_alg: AlgebraBasis, a_alg: AlgebraBasis, pairing,
                        tol: Tolerance = DEFAULT_TOL):
    """Operator-valued weight w -> (w | 1) from a left algebra-valued pairing.

    Verifies the bimodule property Psi(a w b) = a Psi(w) b on basis triples
    and faithfulness of the sesquilinear form Psi(u^* w).  Returns
    (psi_callable, report).
    """
    rep = CheckReport()
    one = c_alg.identity()

    def psi(w):
        return pairing(w, one)

    worst = 0.0
    witness = ""
    for a in a_alg.basis:
        for b in a_alg.basis:
            for w in c_alg.basis:
                lhs = psi(a @ w @ b)
                rhs = a @ psi(w) @ b
                r = rel_residual(lhs - rhs, operator_norm(a), operator_norm(w), operator_norm(b))
                if r > worst:
                    worst = r
                    witness = f"witness triple (a={operator_norm(a):.2f}, w={operator_norm(w):.2f}, b={operator_norm(b):.2f})"
    rep.add("weight:bimodule_property", worst, tol.rel, witness)
    if worst > max(tol.rel, 1e-7):
        raise ValueError(f"pairing is not an operator-valued weight: {witness}, residual {worst:.3e}")

    dim = c_alg.dim
    gram = np.zeros((dim, dim), dtype=complex)
    for i, u in enumerate(c_alg.basis):
        for j, w in enumerate(c_alg.basis):
            gram[i, j] = np.trace(psi(adjoint(u) @ w))
    vals, _ = herm_eig((gram + adjoint(gram)) / 2.0, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
    faithful = vals[0] > tol.rank_cut * max(1.0, vals[-1])
    rep.add("weight:faithful", 0.0 if faithful else 1.0, 0.5, f"min Gram eigenvalue {vals[0]:.3e}")
    return psi, rep


def inverse_weight_pairing(psi):
    """Left pairing (u|v) = Psi(u v^*) recovered from an operator-valued weight."""
    def pairing(u, v):
        return psi(u @ adjoint(v))
    return pairing


# ---------------------------------------------------------------------------
# frames from conditional expectations


def parseval_frame(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL):
    """Vectors x_i with sum_i E(|g><x_i|) x_i = g for the expectation onto `alg`.

    Works for any unital *-algebra acting on C^n: the frame operator of the
    standard basis is central in the algebra, positive and invertible, and
    x_i = S^(-1/2) e_i tightens the frame.
    """
    n = alg.hilbert_dim
    s = np.tensordot(alg.basis, alg.basis.conj(), ([0, 2], [0, 2]))  # sum_k b_k b_k^*
    vals, _ = herm_eig((s + adjoint(s)) / 2.0, tol)
    if vals[0] <= tol.rank_cut * max(1.0, vals[-1]):
        raise ValueError("frame operator is singular; algebra action is degenerate")
    s_inv_half = herm_apply(lambda x: x ** -0.5, (s + adjoint(s)) / 2.0, tol)
    return [s_inv_half[:, i] for i in range(n)]


def expectation_pairing(alg: AlgebraBasis):
    """Left algebra-valued pairing (u|v) = E(|u><v|) for the expectation onto `alg`."""
    def pair(u, v):
        return alg.expectation(np.outer(np.asarray(u).ravel(), np.asarray(v).conj().ravel()))
    return pair


# ---------------------------------------------------------------------------
# decomposition of an equivalence bimodule


def pre_morita_decompose(bi: EquivBimodule, tol: Tolerance = DEFAULT_TOL):
    """Projector presentations and algebra isomorphisms from a passing bimodule.

    Returns a dict with projectors over both algebras, the carrier frames,
    and matrix representations of each algebra over the other, plus a
    report with the isomorphism residuals.
    """
    base = morita_check(bi, tol)
    if not base.passed:
        raise ValueError("bimodule fails the Morita checks:\n" + base.as_text())
    d = bi.carrier_dim
    eye = np.eye(d, dtype=complex)
    target = eye.ravel()

    # left-side frame: solve sum_ij c_ij (c_i|c_j)_left = 1
    cols = bi.left_pair.reshape(d * d, d * d).T
    coeff, _, _, _ = np.linalg.lstsq(cols, target, rcond=None)
    resid = rel_residual((cols @ coeff - target).reshape(d, d), 1.0)
    if resid > max(tol.rel, 1e-7):
        raise ValueError("left pairing is not full: cannot represent the identity")
    c = coeff.reshape(d, d)
    xs = list(c.T)  # x_j = sum_i c_ij c_i
    ys = list(eye)

    # right-side frame: sum_kl d_kl (c_k|c_l)_right = identity operator of the right action
    cols_r = bi.right_pair.reshape(d * d, d * d).T
    coeff_r, _, _, _ = np.linalg.lstsq(cols_r, target, rcond=None)
    resid_r = rel_residual((cols_r @ coeff_r - target).reshape(d, d), 1.0)
    if resid_r > max(tol.rel, 1e-7):
        raise ValueError("right pairing is not full: cannot represent the identity")
    dd = coeff_r.reshape(d, d)
    ws = list(eye)
    zs = list(dd)  # z_k = sum_l d_kl c_l

    # operator matrices are (d, d, d, d) arrays of blocks [i, j]
    def rep_left_on_right(b_op):
        # matrix of a left-algebra operator over the right algebra: (y_i | b x_j)_right
        return np.tensordot(bi.right_pair, b_op @ c, (1, 0)).transpose(0, 3, 1, 2)

    def rep_right_on_left(a_op):
        # matrix of a right-algebra operator over the left algebra: (a z_l | w_k)_left
        return np.tensordot(a_op @ dd.T, bi.left_pair, (0, 0))

    rep = CheckReport()
    # q over the right algebra: q_{ij} = (y_i | x_j)_right as acting operators,
    # which compose in reverse: (q q)_{ik} = sum_j q_{jk} q_{ij}
    q_ops = rep_left_on_right(eye)
    qq = np.einsum("jkab,ijbc->ikac", q_ops, q_ops, optimize=True)
    rep.add("decompose:right_projector_idempotent", max_operator_norm(qq - q_ops),
            max(tol.rel, 1e-7))

    p_ops = rep_right_on_left(eye)
    pp = np.einsum("ijab,jkbc->ikac", p_ops, p_ops, optimize=True)
    rep.add("decompose:left_projector_idempotent", max_operator_norm(pp - p_ops),
            max(tol.rel, 1e-7))

    worst = 0.0
    for b1 in bi.left_alg.basis[:4]:
        for b2 in bi.left_alg.basis[:4]:
            x, y = rep_left_on_right(b1), rep_left_on_right(b2)
            # acting operators compose in reverse: (x y)_{ik} = sum_j y_{jk} x_{ij}
            prod = np.einsum("jkab,ijbc->ikac", y, x, optimize=True)
            worst = max_operator_norm(rep_left_on_right(b1 @ b2) - prod,
                                      operator_norm(b1) * operator_norm(b2), floor=worst)
    rep.add("decompose:left_into_right_homomorphism", worst, max(tol.rel, 1e-7))

    rank_map = np.stack([rep_left_on_right(b).ravel() for b in bi.left_alg.basis], axis=1)
    svals = np.linalg.svd(rank_map, compute_uv=False)
    inj = svals[-1] > tol.rank_cut * max(1.0, svals[0])
    rep.add("decompose:left_into_right_injective", 0.0 if inj else 1.0, 0.5)

    worst = 0.0
    for a1 in bi.right_alg.basis[:4]:
        for a2 in bi.right_alg.basis[:4]:
            # right-action operators compose reversed, so the product map flips:
            # a2 a1 is represented by (x y)_{ik} = sum_j x_{ij} y_{jk}
            x, y = rep_right_on_left(a1), rep_right_on_left(a2)
            prod = np.einsum("ijab,jkbc->ikac", x, y, optimize=True)
            worst = max_operator_norm(rep_right_on_left(a2 @ a1) - prod,
                                      operator_norm(a1) * operator_norm(a2), floor=worst)
    rep.add("decompose:right_into_left_homomorphism", worst, max(tol.rel, 1e-7))

    return {
        "frame_left": (xs, ys),
        "frame_right": (ws, zs),
        "q_ops": q_ops,
        "p_ops": p_ops,
        "rep_left_on_right": rep_left_on_right,
        "rep_right_on_left": rep_right_on_left,
        "report": rep,
    }
