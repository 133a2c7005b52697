"""Finitely generated projective hermitian modules, pairings, frames and Morita data.

Concrete conventions
--------------------
* A right module q A^m over an algebra A of d x d matrices stores its
  elements as block columns of shape (m*d, d); the right action is matrix
  multiplication from the right, e -> e @ a.
* Bimodule pairings are stored as (d, d, d, d) tables over the standard
  basis of the carrier space and extended sesquilinearly.  Left pairings
  are linear in the first slot, right pairings in the second.
* The pairing of a conditional expectation E onto an algebra is
  (u|v) = E(|u><v|); `AlgebraBasis.pair_coords` gives its coordinates for
  two whole stacks of vectors.  The projector of a frame x_1..x_m has the
  table (x_i|x_j) as its blocks; `ProjectiveModule` holds it factored, as
  those coordinates against the algebra's basis, and over an algebra with
  Wedderburn data also as a rank-size `FrameFactor` Q = T S^* read off the
  matrix units (`ProjectiveModule.of_frame`); the coordinates stay the
  definition.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis, commutant, commutant_pattern
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    commutator_residual,
    from_blocks,
    herm_eig,
    max_operator_norm,
    max_span_residual,
    operator_norm,
    pull_back,
    rel_residual,
    span_basis,
    to_blocks,
    unit_floor_norms,
)
from .report import CheckReport

__all__ = [
    "ProjectiveModule",
    "FrameFactor",
    "EquivBimodule",
    "validate_module",
    "morita_check",
    "equivalence_check",
    "bimodule_from_actions",
    "linear_operator_bound",
    "parseval_frame",
    "frame_idempotency_bound",
]


# elements of the (k, d, c, m) stack of the O_k x_j that one step of
# `ProjectiveModule.apply` holds, 1 MB of complex
_APPLY_BLOCK = 1 << 16


def _gain(flat: np.ndarray) -> float:
    """The largest singular value of a matrix with no more columns than
    rows, from the eigenvalues of its Gram matrix."""
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(flat.conj().T @ flat)[-1])))


@dataclass(frozen=True, eq=False)
class FrameFactor:
    """A rank-size factor Q = T S^* of a frame module's projector, to within
    `bound` >= |Q - T S^*|_F, for the (m*d, r) matrices T (`left`) and S
    (`right`); `ProjectiveModule.of_frame` builds it.  Column (k, q, p) of
    block i of T is sum_a coeffs[k][i, a, q] images[k][:, a, p] /
    sqrt(m'_k), and of S the same with `co_images`: `images` is the
    (d, n_k, m_k) stack of columns (a, p) of component k of the image
    frame, and `coeffs` the (m, n_k, m'_k) coefficients of the frame
    vectors on the carrier's columns (a, q)."""

    left: np.ndarray
    right: np.ndarray
    bound: float
    images: tuple
    coeffs: tuple

    def pull_back(self, u):
        """x -> U^* (1_m (x) x) U for a U = T M in the range of T, when T = S
        is an isometry (the forward module's): with M = T^* U it is
        M^* (T^* (1_m (x) x) T) M, and T^* (1_m (x) x) T is read off the
        image frame's coordinates R^* x R of x, contracted per pair of
        components with the Gram matrix of the coefficients, so no
        module-size product is taken."""
        mix = adjoint(self.left) @ u
        frame = np.concatenate([r.reshape(len(r), -1) for r in self.images], axis=1)
        flat = np.concatenate([c.reshape(len(c), -1) for c in self.coeffs], axis=1)
        gram = flat.conj().T @ flat
        # per component: n_k, m_k, m'_k and the slices of its columns (a, p)
        # in the frame, (a, q) in the coefficients and (q, p) in T
        comps, at = [], np.zeros(3, dtype=int)
        for r, c in zip(self.images, self.coeffs):
            n_k, m_k, mq_k = r.shape[1], r.shape[2], c.shape[2]
            ends = at + [n_k * m_k, n_k * mq_k, mq_k * m_k]
            comps.append(((n_k, m_k, mq_k), [slice(a, b) for a, b in zip(at, ends)]))
            at = ends

        def pull(ops):
            ops = np.asarray(ops)
            lead = ops.shape[:-2]
            coords = frame.conj().T @ ops @ frame
            inner = np.zeros(lead + (len(mix),) * 2, dtype=complex)
            for (n1, m1, q1), (x1, g1, t1) in comps:
                for (n2, m2, q2), (x2, g2, t2) in comps:
                    block = coords[..., x1, x2].reshape(lead + (n1, m1, n2, m2))
                    # sum over a, b of gram[a, q, b, r] block[..., a, p, b, s], as (..., q, p, r, s)
                    part = np.tensordot(block, gram[g1, g2].reshape(n1, q1, n2, q2), ([-4, -2], [0, 2]))
                    inner[..., t1, t2] = np.moveaxis(part, (-4, -3, -2, -1), (-3, -1, -4, -2)).reshape(
                        lead + (q1 * m1, q2 * m2)) / np.sqrt(q1 * q2)
            return adjoint(mix) @ inner @ mix

        return pull


@dataclass
class ProjectiveModule:
    """Module q B^m over an algebra B of d x d operators, presented by its
    projector in factored form, Q = sum_k C_k (x) O_k: block (i, j) of Q is
    sum_k coords[i, j, k] ops[k].  These coordinates are the definition of
    Q.

    A frame module has the pairing coordinates of its frame as C_k
    (`AlgebraBasis.pair_coords`) and the operators those coordinates refer
    to as O_k; a caller's dense projector enters through `from_projector`
    as the m^2 unit tables with its blocks as operators.  Q is read through
    `apply`, `diagonal_blocks` and `trace`, never formed at module size
    unless a check of a caller's module asks for it (`dense`).  `base` is
    the algebra B, None where the blocks lie in it by construction and no
    check asks for it.  The metric is a dense (m*d, m*d) operator; None
    stands for the projector itself (the standard hermitian structure).

    A frame module over an algebra with Wedderburn data may also carry a
    rank-size `factor` Q = T S^* (`of_frame`, the modules of both
    conversions); then `apply`, `diagonal_blocks` and `trace` read T and S,
    at size m*d x r for r = Tr Q.  `from_projector` never sets one.  `ops`
    may be given as a function of no arguments that builds them; it runs on
    the first read of `ops` (`dense`, or the coordinate `apply` of a module
    without a factor).
    """

    base: AlgebraBasis | None
    coords: np.ndarray  # (m, m, k)
    ops: np.ndarray  # (k, d, d)
    metric: np.ndarray | None = None  # (m*d, m*d), positive, q r = r q = r
    factor: FrameFactor | None = None

    def __post_init__(self):
        if callable(self.ops):
            self.__dict__["_build_ops"] = self.ops
            del self.ops

    def __getattr__(self, name):
        # reached only while `ops` is held as its builder
        build = self.__dict__.get("_build_ops") if name == "ops" else None
        if build is None:
            raise AttributeError(name)
        self.ops = build()
        return self.ops

    @classmethod
    def from_projector(cls, base: AlgebraBasis, size: int, projector,
                       metric=None) -> "ProjectiveModule":
        """The module of a caller's dense (size*d, size*d) projector."""
        q = np.asarray(projector, dtype=complex)
        d = base.hilbert_dim
        if q.shape != (size * d, size * d):
            raise ValueError("module projector shape mismatch")
        units = np.eye(size * size).reshape(size, size, size * size)
        return cls(base, units, to_blocks(q, size).reshape(-1, d, d), metric)

    @classmethod
    def of_frame(cls, base: AlgebraBasis | None, coords, ops, unit_coords, coeffs,
                 images, co_images, off: float, gate: float) -> "ProjectiveModule":
        """The module of a frame x_1..x_m over an algebra with Wedderburn
        data, Q = sum_kappa C_kappa (x) O_kappa from its pairing coordinates
        `coords` (m, m, K) and operators `ops`, with the factor Q = T S^*
        when its bound is within `gate`.

        The data, per component k: `images` and `co_images` are (d, n_k,
        m_k) stacks of columns (a, p), R_ap and S_ap, whose units M_kab =
        sum_p R_ap S_bp^* the operators are written in, O_kappa = sum_kab
        unit_coords[kab, kappa] M_kab / sqrt(m_k) (rows k-major, then a, b),
        and `coeffs` the (m, n_k, m'_k) coefficients beta[i, a, q] of the
        frame on the carrier's columns; `off` bounds (sum_kappa |E_kappa|_F^2)^(1/2)
        for the parts E_kappa of the O_kappa that the units do not write
        (off their span).  Block (i, j) of T S^* is
        sum_kab C''_kab[i, j] M_kab with C''_kab[i, j] = sum_q beta[i, a, q]
        conj(beta[j, b, q]) / m'_k, the carrier's matrix-unit form of the
        pairing, and block (i, j) of Q is sum_kab C'_kab[i, j] M_kab with
        C'_kab = sum_kappa unit_coords[kab, kappa] C_kappa / sqrt(m_k).  So
        Q - T S^* = (1 (x) R) A (1 (x) S)^* for the block matrix A of the
        C'_kab - C''_kab, each in units E_ab (x) 1_{m_k}, and

            |Q - T S^*|_F <= |R|_2 |S|_2 (sum_kab m_k |C'_kab - C''_kab|_F^2)^(1/2),

        and sum_kappa C_kappa (x) E_kappa adds at most |C|_2 `off`, |C|_2 the
        2-norm of the (m^2, K) matrix of the coordinates.  The sum is
        `bound`: it measures, at carrier size, every way the
        carrier's frame and units can miss the coordinates (the pairing's
        rounding included, not the rounding of forming the O_kappa).
        """
        m = len(coords)

        def columns(frames):
            # column (k, q, p) of block i: sum_a beta[i, a, q] frames[k][:, a, p] / sqrt(m'_k)
            return np.concatenate([np.tensordot(c, r, (1, 1)).transpose(0, 2, 1, 3)
                                   .reshape(m * len(r), -1) / np.sqrt(c.shape[2])
                                   for c, r in zip(coeffs, frames)], axis=1)

        t = columns(images)
        s = t if co_images is images else columns(co_images)
        target = np.tensordot(coords, unit_coords, (2, 1))
        total, start = 0.0, 0
        for c, r in zip(coeffs, images):
            n_k, m_k = r.shape[1:]
            pairing = np.tensordot(c, c.conj(), (2, 2)).transpose(0, 2, 1, 3) / c.shape[2]
            diff = target[:, :, start:start + n_k * n_k].reshape(pairing.shape) / np.sqrt(m_k) - pairing
            total += m_k * float(np.vdot(diff, diff).real)
            start += n_k * n_k
        gains = [_gain(np.concatenate([x.reshape(len(x), -1) for x in xs], axis=1))
                 for xs in (images, co_images)]
        bound = gains[0] * gains[1] * np.sqrt(total) + _gain(coords.reshape(m * m, -1)) * off
        factor = FrameFactor(t, s, float(bound), tuple(images), tuple(coeffs)) if bound <= gate else None
        return cls(base, coords, ops, factor=factor)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def block_dim(self) -> int:
        if self.factor is not None:
            return self.factor.left.shape[0] // self.size
        return self.ops.shape[-1]

    def apply(self, x) -> np.ndarray:
        """Q x for an (m*d, c) matrix x: T (S^* x) with a factor, else over
        chunks of k, one GEMM applies the stacked O_k to all blocks x_j at
        once, and one small GEMM per k contracts with C_k, so no temporary
        is larger than about `_APPLY_BLOCK` elements or the output."""
        x = np.asarray(x)
        if self.factor is not None:
            return self.factor.left @ (adjoint(self.factor.right) @ x)
        m, d, c = self.size, self.block_dim, x.shape[1]
        # rows a, columns (col, j): entry a of column col of x_j
        xt = x.reshape(m, d, c).transpose(1, 2, 0).reshape(d, c * m)
        step = max(1, _APPLY_BLOCK // max(1, d * m * c))
        out = np.zeros((d * c, m), dtype=complex)
        for start in range(0, len(self.ops), step):
            ops = self.ops[start:start + step]
            # z[k] has rows (a, col) and columns j: O_k x_j
            z = (ops.reshape(-1, d) @ xt).reshape(len(ops), d * c, m)
            for k, zk in enumerate(z, start):
                out += zk @ self.coords[:, :, k].T
        return out.reshape(d, c, m).transpose(2, 0, 1).reshape(m * d, c)

    def range_pull_back(self, u):
        """x -> U^* (1_m (x) x) U for a U in the range of Q: through the
        factor when T = S (`FrameFactor.pull_back`), else `linalg.pull_back`."""
        f = self.factor
        if f is None or f.right is not f.left:
            return lambda ops: pull_back(u, ops)
        return f.pull_back(u)

    def dense(self) -> np.ndarray:
        """Q itself, for the checks of a caller's module, which run at module
        size.  Exact for `from_projector`, whose coordinates are unit tables."""
        return from_blocks(np.tensordot(self.coords, self.ops, 1))

    def diagonal_blocks(self) -> np.ndarray:
        """The (m, d, d) stack of the diagonal blocks of Q: T_i S_i^* with a factor."""
        if self.factor is not None:
            m = self.size
            t, s = (x.reshape(m, -1, x.shape[1]) for x in (self.factor.left, self.factor.right))
            return t @ s.conj().swapaxes(-1, -2)
        return np.tensordot(np.diagonal(self.coords).T, self.ops, 1)

    def trace(self) -> float:
        """Tr Q: Tr(S^* T) with a factor."""
        if self.factor is not None:
            return float(np.vdot(self.factor.right, self.factor.left).real)
        return float((np.trace(self.coords) @ np.trace(self.ops, axis1=1, axis2=2)).real)

    def block_residual(self, big: np.ndarray) -> float:
        """Largest membership residual in the base algebra over the size x size
        blocks of an operator on the module carrier."""
        d = self.block_dim
        blocks = to_blocks(np.asarray(big, dtype=complex), self.size).reshape(-1, d, d)
        return max_span_residual(blocks, self.base.basis)


def frame_idempotency_bound(alg: AlgebraBasis, frame, images=None) -> float:
    """A bound on |Q^2 - Q|_F for the projector Q of a frame x_1..x_m of the
    conditional expectation E onto `alg` (block (i, j) E(|x_i><x_j|)), or for
    its image under a linear (anti)homomorphism applied blockwise (with the
    blocks transposed for an antihomomorphism) that maps `alg.basis[k]` to
    `images[k]`; the map's laws are the caller's to hold or check.

    E is bimodular, so (Q^2)_ij = E(|x_i><F x_j|) for the frame operator
    F g = sum_k E(|g><x_k|) x_k, and Q^2 - Q is the table E(|x_i><(F - 1)
    x_j|): its Frobenius norm is that of its `pair_coords` against the
    orthonormal basis, the frame's Parseval defect F - 1 at carrier size.
    Without images that is |Q^2 - Q|_F itself; with them it is multiplied
    by the map's Frobenius gain, the largest singular value of the images.
    """
    frame = np.asarray(frame, dtype=complex)
    b = alg.basis
    # F = sum_l b_l S b_l^* with S = sum_k x_k x_k^*
    f = np.tensordot(b @ (frame.T @ frame.conj()), b.conj(), ([0, 2], [0, 2]))
    f[np.diag_indices_from(f)] -= 1.0
    gain = 1.0 if images is None else _gain(np.asarray(images).reshape(len(b), -1).T)
    return float(gain * np.linalg.norm(alg.pair_coords(frame, frame @ f.T)))


def validate_module(mod: ProjectiveModule, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    rep = CheckReport()
    q = mod.dense()
    nq = operator_norm(q)
    idem = rel_residual(q @ q - q, nq, nq)
    rep.add("module:idempotent", idem, tol.rel)
    rep.add("module:projector_hermitian", rel_residual(q - adjoint(q), nq), tol.rel)
    if mod.metric is None:
        # the default metric: its blocks and compression residuals are the
        # projector's, and q + (1 - q) is the identity up to one rounding
        blocks, compressed = mod.block_residual(q), idem + idem
        invertible, details = True, "default metric: q + (1 - q) is the identity"
    else:
        r = mod.metric
        blocks = max(mod.block_residual(q), mod.block_residual(r))
        nr = operator_norm(r)
        compressed = rel_residual(q @ r - r, nq, nr) + rel_residual(r @ q - r, nq, nr)
        aug = r + (np.eye(q.shape[0]) - q)
        vals, _ = herm_eig((aug + adjoint(aug)) / 2.0, tol)
        invertible = vals[0] > tol.rank_cut * max(1.0, vals[-1])
        details = f"min eigenvalue {vals[0]:.3e}"
    rep.add("module:blocks_in_base", blocks, max(tol.rel, 1e3 * tol.rank_cut))
    rep.add("module:metric_compressed", compressed, tol.rel)
    rep.add("module:metric_invertible", 0.0 if invertible else 1.0, 0.5, details)
    return rep


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
    eye = np.eye(d, dtype=complex)
    # left table entry [i, j] is E(|c_i><c_j|), right entry [i, j] is E(|c_j><c_i|)
    lp = left_alg.combine(left_alg.pair_coords(eye, eye))
    rp_raw = right_alg.combine(right_alg.pair_coords(eye, eye)).transpose(1, 0, 2, 3)

    # least-squares scale from compatibility sampled on basis triples
    lhs, rhs = _compatibility_sides(lp, rp_raw)
    den = float(np.vdot(rhs, rhs).real)
    lam = float(np.vdot(rhs, lhs).real) / den if den > 0 else 1.0
    bi = EquivBimodule(left_alg, right_alg, d, lp, lam * rp_raw)
    return bi, lam


def _compatibility_residual(lp, rp) -> float:
    lhs, rhs = _compatibility_sides(lp, rp)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))


def _action_gap(coeffs, table) -> float:
    """Worst [i, j] entry of (a c_i | c_j) - (c_i | a^* c_j) over the operators
    a, relative to max(1, |a|); the matrix of a enters as is in the linear
    slot of the table, conjugated otherwise."""
    worst = 0.0
    for c, nc in zip(coeffs, unit_floor_norms(coeffs)):
        gap = np.tensordot(c, table, (0, 0)) - np.tensordot(c, table, (1, 1)).transpose(1, 0, 2, 3)
        worst = max_operator_norm(gap, nc, floor=worst)
    return worst


def _fullness(table, alg: AlgebraBasis, tol: Tolerance):
    d = len(table)
    dim = len(span_basis(table.reshape(d * d, d, d), tol))
    return 0.0 if dim == alg.dim else 1.0, f"pairing span {dim} vs algebra {alg.dim}"


def _gram_positivity(table, axes, tol: Tolerance):
    """Symmetry defect plus relative negative part of a (d, d, d, d) pairing
    table arranged by `axes` as a (d*d, d*d) Gram matrix."""
    d = len(table)
    gram = table.transpose(axes).reshape(d * d, d * d)
    h = (gram + adjoint(gram)) / 2.0
    sym = rel_residual(gram - adjoint(gram), operator_norm(gram))
    vals, _ = herm_eig(h, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
    neg = max(0.0, -float(vals[0]))
    return sym + neg / max(1.0, float(vals[-1])), ""


def _morita_report(left: AlgebraBasis, right: AlgebraBasis, bi, bounds: dict,
                   tol: Tolerance) -> CheckReport:
    """The entries of `morita_check`, in its order.  Entry `key` takes
    bounds[key] = (value, details) when that value is within the entry's
    tolerance and otherwise its exact value, read from the bimodule that
    bi() returns; bi() is called only for an exact value that needs the
    pairing tables."""
    rel = tol.rel
    # left values act through a representation, right values through an
    # antirepresentation, so the positive arrangement of the right Gram is
    # the transposed one: block (i, j) holds left_pair[i, j] and right_pair[j, i]
    entries = (
        ("actions_commute", rel, lambda: (commutator_residual(left.basis, right.basis), "")),
        ("left_pairing_right_action", rel, lambda: (_action_gap(right.basis, bi().left_pair), "")),
        ("right_pairing_left_action", rel,
         lambda: (_action_gap(left.basis.conj(), bi().right_pair), "")),
        ("compatibility", rel, lambda: (_compatibility_residual(bi().left_pair, bi().right_pair), "")),
        ("left_full", 0.5, lambda: _fullness(bi().left_pair, left, tol)),
        ("right_full", 0.5, lambda: _fullness(bi().right_pair, right, tol)),
        ("left_gram_positive", rel, lambda: _gram_positivity(bi().left_pair, (0, 2, 1, 3), tol)),
        ("right_gram_positive", rel, lambda: _gram_positivity(bi().right_pair, (1, 2, 0, 3), tol)),
    )
    rep = CheckReport()
    for key, limit, exact in entries:
        bound = bounds.get(key)
        value, details = bound if bound is not None and bound[0] <= limit else exact()
        rep.add(f"morita:{key}", value, limit, details)
    return rep


def morita_check(bi: EquivBimodule, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Compatibility, fullness and positivity checks for a two-sided bimodule."""
    return _morita_report(bi.left_alg, bi.right_alg, lambda: bi, {}, tol)


def equivalence_check(left: AlgebraBasis, right: AlgebraBasis, tol: Tolerance = DEFAULT_TOL):
    """`morita_check` of the canonical bimodule of `bimodule_from_actions`,
    from the Wedderburn blocks where they certify it, and one sweep of the
    right action against the commutant of the left algebra.  Returns
    (report, lam, (match, delta, commutant dim), blocks): the report has the
    ids, order and detail integers of `morita_check`, lam is the right
    pairing's scale, and blocks is (left blocks, right blocks) when both
    carry Wedderburn data that do not match, None otherwise.

    The sweep: with Wedderburn data on both algebras the commutant is the
    closed-form `commutant_pattern` of the left frame, and the right action
    can equal it only if its blocks are the left blocks (n_k, m_k)
    transposed (as multisets); otherwise the commutant is `commutant(left)`
    and the dimensions must agree.  Equal dimensions plus inclusion give
    equality, so delta = `max_span_residual` of the right basis against the
    commutant (1.0 without a match) decides it.

    The closed form applies when the blocks match, delta <= tol.rel, every
    component gives the same lam = n_k / m_k and u = max |W^* W - 1|_2 over
    the two frames is <= tol.rel.  Then R is the commutant L' and, with E_L
    and lam E_R the two pairings:

    * actions_commute <= r = 2 delta + 2 u: [b, c] = [b, c - P c] + [b, P c]
      for P the projection onto the closed-form L'; the first term is at most
      2 delta, the second a commutator of two closed-form pattern matrices in
      the same frame, at most 2 u;
    * the left gap is at most sqrt(dim_L) r and the right gap at most
      lam sqrt(dim_R) r: the coordinates of E_L([a, |c_i><c_j|]) in the
      *-closed left basis are [j, i] entries of commutators [b, a];
    * compatibility holds exactly for L' with one lam; to first order R
      moves it by (lam + sqrt(lam)) sqrt(dim_R) delta and the two frames by
      2 (1 + 2 lam) u;
    * fullness holds since E maps onto its algebra, and each Gram matrix is
      the Choi matrix of a conditional expectation (completely positive,
      Tomiyama), exact when the closed-form bases are orthonormal and
      *-closed, i.e. when W is unitary: its residual is u.

    Each entry takes its bound when it is within the entry's tolerance and
    otherwise its exact value (`_morita_report`), from tables built once.
    Without the closed form the report is `morita_check` of the tables.
    """
    closed = left.wedderburn is not None and right.wedderburn is not None
    if closed:
        comm = commutant_pattern(*left.wedderburn)
        match = sorted(right.wedderburn[1]) == sorted((m, n) for n, m in left.wedderburn[1])
    else:
        comm = commutant(left, tol).basis
        match = len(comm) == right.dim
    delta = max_span_residual(right.basis, comm) if match else 1.0
    blocks = (sorted(left.wedderburn[1]), sorted(right.wedderburn[1])) if closed and not match else None
    ratios = {n_k / m_k for n_k, m_k in left.wedderburn[1]} if closed and match else set()
    # u = |W^* W - 1|_2 over the two Wedderburn frames, read only with one ratio
    frames = (left.wedderburn[0], right.wedderburn[0]) if len(ratios) == 1 else ()
    u = max((operator_norm(adjoint(w) @ w - np.eye(w.shape[1])) for w in frames), default=np.inf)
    if not (delta <= tol.rel and u <= tol.rel):
        bi, lam = bimodule_from_actions(left, right, tol)
        return morita_check(bi, tol), lam, (match, delta, len(comm)), blocks

    lam = ratios.pop()
    commute = 2.0 * delta + 2.0 * u
    span = "pairing span {0} vs algebra {0}"
    choi = (u, "Choi matrix of a conditional expectation")
    bounds = {
        "actions_commute": (commute, "bound from commutant membership"),
        "left_pairing_right_action": (np.sqrt(left.dim) * commute, "bound from actions_commute"),
        "right_pairing_left_action": (lam * np.sqrt(right.dim) * commute,
                                      "bound from actions_commute"),
        "compatibility": ((lam + np.sqrt(lam)) * np.sqrt(right.dim) * delta
                          + 2.0 * (1.0 + 2.0 * lam) * u,
                          "bound from commutant membership and block ratios"),
        "left_full": (0.0, span.format(left.dim)),
        "right_full": (0.0, span.format(right.dim)),
        "left_gram_positive": choi,
        "right_gram_positive": choi,
    }
    tables = functools.cache(lambda: bimodule_from_actions(left, right, tol)[0])
    return _morita_report(left, right, tables, bounds, tol), lam, (match, delta, len(comm)), blocks


# ---------------------------------------------------------------------------
# operator bounds


def linear_operator_bound(t_op: np.ndarray, mod: ProjectiveModule, tol: Tolerance = DEFAULT_TOL) -> float:
    """Upper bound for the operator norm of a module endomorphism.

    The bound is B with B^2 = sum_{r,s} ||(x_s|x_r)(T x_r|T x_s)|| over the
    projector-column generators x_j; it dominates the L^2 operator norm for
    every state on the base algebra.
    """
    t_op = as_complex_matrix(t_op)
    d, m = mod.block_dim, mod.size
    q = mod.dense()
    metric = q if mod.metric is None else mod.metric
    nt = operator_norm(t_op)
    worst = mod.block_residual(t_op)
    comp = rel_residual(q @ t_op @ q - t_op, nt)
    if max(worst, comp) > max(tol.rel, 1e-7):
        raise ValueError("operator is not a module endomorphism over the base algebra")

    xs = [q[:, j * d:(j + 1) * d] for j in range(m)]
    txs = [t_op @ x for x in xs]
    total = 0.0
    for r in range(m):
        for s in range(m):
            a = adjoint(xs[s]) @ metric @ xs[r]
            b = adjoint(txs[r]) @ metric @ txs[s]
            total += operator_norm(a @ b)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# frames from conditional expectations


def parseval_frame(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vectors x_i with sum_i E(|g><x_i|) x_i = g for the expectation onto
    `alg`, as an (n, n) array with one x_i per row.

    Works for any unital *-algebra acting on C^n: the frame operator of the
    standard basis is central in the algebra, positive and invertible, and
    x_i = S^(-1/2) e_i tightens the frame.
    """
    s = np.tensordot(alg.basis, alg.basis.conj(), ([0, 2], [0, 2]))  # sum_k b_k b_k^*
    vals, vecs = herm_eig((s + adjoint(s)) / 2.0, tol)
    if vals[0] <= tol.rank_cut * max(1.0, vals[-1]):
        raise ValueError("frame operator is singular; algebra action is degenerate")
    return (vecs @ np.diag([v ** -0.5 for v in vals]) @ adjoint(vecs)).T
