"""Dense complex linear algebra kernels shared by every other module.

All operators live in ordinary numpy complex arrays.  The trace inner
product <X, Y> = Tr(X^* Y) is the inner product used for spans of
matrices throughout the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "adjoint",
    "operator_norm",
    "max_operator_norm",
    "max_frobenius",
    "unit_floor_norms",
    "projector_gap_bound",
    "commutator_residual",
    "rel_residual",
    "is_hermitian",
    "herm_eig",
    "herm_apply",
    "herm_abs",
    "block_apply",
    "pull_back",
    "to_blocks",
    "from_blocks",
    "span_basis",
    "span_coords",
    "project_onto_span",
    "span_residual",
    "max_span_residual",
    "scaled_residual",
    "null_space",
    "random_complex",
    "random_hermitian",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: `rel` for residual tests, `rank_cut` for rank decisions."""

    rel: float = 1e-9
    rank_cut: float = 1e-10

    def __post_init__(self):
        if not (self.rel > 0.0):
            raise ValueError("rel tolerance must be positive")
        if not (self.rank_cut > 0.0):
            raise ValueError("rank_cut must be positive")


DEFAULT_TOL = Tolerance()


def as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def operator_norm(m: np.ndarray) -> float:
    m = np.asarray(m)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


# Relative slack on the Frobenius bound; it covers the rounding of the
# computed Frobenius and 2-norms, so no element that could set the maximum
# is pruned.
_FROBENIUS_SLACK = 1.0 + 1e-8
# Below this sum of squares the squares may have underflowed.
_TINY_SQUARES = 1e-280


def _real_rows(mats) -> np.ndarray:
    """A stack of matrices as one real row per matrix, whose sum of squares
    is the matrix's squared Frobenius norm."""
    flat = np.ascontiguousarray(mats).reshape(len(mats), mats.shape[-2] * mats.shape[-1])
    return flat.view(flat.real.dtype) if np.iscomplexobj(flat) else flat


def max_operator_norm(stack, scale=None, floor: float = 0.0) -> float:
    """max(floor, max_k |stack[k]|_2 / max(1, scale[k])) over a stack of matrices.

    `scale` broadcasts against the leading axes of the stack.  The Frobenius
    norm bounds the 2-norm from above, so the 2-norms are taken in decreasing
    order of that bound: the top few first, then at each step every element
    whose bound still exceeds the best value so far.  The sweep stops once no
    bound does, so the result is the float a full sweep of 2-norms gives.
    When every bound is within `floor` (an empty stack included) the result
    is `floor` and the scale is not read; otherwise a NaN in the stack or
    the scale gives NaN.
    """
    return _max_ratio(stack, lambda: scale, floor)


def _max_ratio(stack, get_scale, floor: float) -> float:
    """`max_operator_norm` with its scale given by a function, called only
    when some Frobenius bound exceeds the floor: every scale is at least 1,
    so otherwise the floor settles every element with no scale at all."""
    stack = np.asarray(stack)
    mats = stack.reshape((-1,) + stack.shape[-2:])
    best = float(floor)
    if len(mats) == 0:
        return best
    flat = _real_rows(mats)
    squares = np.einsum("ij,ij->i", flat, flat)
    bound = np.sqrt(squares)
    tiny = squares < _TINY_SQUARES
    if tiny.any():
        # the Frobenius norm is at most sqrt(#entries) times the largest one
        bound[tiny] = np.sqrt(flat.shape[1]) * np.max(np.abs(flat[tiny]), axis=1, initial=0.0)
    bound = bound * _FROBENIUS_SLACK
    if np.max(bound) <= best:
        return best
    scale = get_scale()
    den = np.ones(len(mats)) if scale is None else \
        np.maximum(1.0, np.broadcast_to(scale, stack.shape[:-2])).ravel()
    bound = bound / den
    if np.isnan(bound).any():
        return float("nan")
    order = np.argsort(-bound, kind="stable")
    bound = bound[order]
    start, chunk = 0, 4
    while start < len(order) and bound[start] > best:
        idx = order[start:start + chunk]
        top = float(np.max(np.linalg.norm(mats[idx], 2, axis=(-2, -1)) / den[idx]))
        if not top <= best:
            best = top
        start += len(idx)
        # every element whose bound still beats the best must be measured
        chunk = max(1, int(np.count_nonzero(bound[start:] > best)))
    return best


# Below this bound on |x|_2 the computed 2-norm cannot round above 1.
_UNDER_ONE = 1.0 - 1e-12


def _frobenius(mats) -> np.ndarray:
    flat = _real_rows(mats)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def max_frobenius(stack) -> float:
    """The largest Frobenius norm over a stack of matrices, 0.0 for an empty
    one.  It bounds `max_operator_norm` of the stack under any scales of at
    least 1."""
    stack = np.asarray(stack)
    mats = stack.reshape((-1,) + stack.shape[-2:])
    return float(np.max(_frobenius(mats), initial=0.0))


def unit_floor_norms(xs) -> np.ndarray:
    """max(1, |x|_2) for each matrix of a stack, over its leading axes: the
    float of `np.maximum(1, np.linalg.norm(xs, 2, axis=(-2, -1)))`.

    |x|_2 <= |x x^*|_F^(1/2) <= |x|_F, and an element with either bound
    under 1 - 1e-12 gets exactly 1 without an SVD.  The second bound is
    taken only where the first fails; it is |x|_F / r^(1/4) for r equal
    singular values, so it settles the elements of an orthonormal basis
    other than the rank-one ones.  The rest (and any with a NaN) take a
    2-norm.
    """
    xs = np.asarray(xs)
    mats = xs.reshape((-1,) + xs.shape[-2:])
    out = np.ones(len(mats))
    rest = np.flatnonzero(~(_frobenius(mats) <= _UNDER_ONE))
    if len(rest):
        sub = mats[rest]
        rest = rest[~(np.sqrt(_frobenius(sub @ sub.conj().swapaxes(-1, -2))) <= _UNDER_ONE)]
    if len(rest):
        out[rest] = np.maximum(1.0, np.linalg.norm(mats[rest], 2, axis=(-2, -1)))
    return out.reshape(xs.shape[:-2])


def projector_gap_bound(residual: float, isometry: float, trace: float,
                        idempotency: float, size: int) -> float:
    """An upper bound on |Q - V V^*|_F for a Hermitian Q on C^size and a
    (size, r) matrix V, from quantities of carrier size r: residual =
    |Q V - V|_F, isometry = |V^* V - 1|_F, trace = |Tr Q - r| and
    idempotency >= |Q^2 - Q|_F.  inf where the hypotheses below fail.

    For a rank-r projector Q and an isometry V, |Q - V V^*|_F is exactly
    sqrt(2) |Q V - V|_F.  In general, with isometry < 1 and idempotency
    <= 1/8, each eigenvalue q of Q is within |q^2 - q| / (1 - 2 idempotency)
    of 0 or 1, so the spectral projector P of Q onto (1/2, oo) has
    |Q - P|_F <= p = idempotency / (1 - 2 idempotency) and |Tr Q - Tr P| <=
    sqrt(size) p; with trace + sqrt(size) p < 1 that makes Tr P = r.  The
    polar part W of V spans the range of V with |V V^* - W W^*|_F =
    isometry and |Q W - W|_F <= residual / sqrt(1 - isometry), and |P -
    W W^*|_F = sqrt(2) |P W - W|_F, so

        |Q - V V^*|_F <= sqrt(2) residual / sqrt(1 - isometry)
                         + (1 + sqrt(2)) p + isometry.

    Every term is linear in the defects: the expansion |Q|_F^2 - 2 Re
    Tr(V^* Q V) + r of the square cancels to about sqrt(r eps).
    """
    if not (isometry < 1.0 and idempotency <= 0.125):
        return np.inf
    p = idempotency / (1.0 - 2.0 * idempotency)
    if not trace + np.sqrt(size) * p < 1.0:
        return np.inf
    root2 = np.sqrt(2.0)
    return float(root2 * residual / np.sqrt(1.0 - isometry) + (1.0 + root2) * p + isometry)


def commutator_residual(xs, ys, twisted=None, floor: float = 0.0) -> float:
    """max(floor, max_ij |x_i y_j - y'_j x_i|_2 / max(1, |x_i|_2 |y_j|_2)).

    `xs` and `ys` are stacks (or lists) of square matrices and y' is
    `twisted[j]` when given, `ys[j]` otherwise: `twisted=-ys` measures
    anticommutators and `twisted=g ys g` the graded commutators of odd
    `xs` with `ys` under a grading g.  One batched product, one
    `max_operator_norm` sweep; an empty stack gives `floor`.  A gate reads
    `commutator_residual(..., floor=gate) > gate`: when every commutator's
    Frobenius bound is within the floor, no 2-norm is taken at all.

    A pair with |x_i|_F |y_j|_F under 1 - 1e-12 has scale exactly 1, and a
    pair whose commutator is exactly zero has ratio 0 under any scale; the
    2-norms are taken only for the x_i and y_j of the other pairs, so the
    result is the float of the full computation.
    """
    if len(xs) == 0 or len(ys) == 0:
        return float(floor)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    yt = ys if twisted is None else np.asarray(twisted)
    comm = xs[:, None] @ ys[None] - yt[None] @ xs[:, None]
    return _max_ratio(comm, lambda: _commutator_scale(xs, ys, comm), floor)


def _commutator_scale(xs, ys, comm) -> np.ndarray:
    """|x_i|_2 |y_j|_2, or 1 where |x_i|_F |y_j|_F is under 1 - 1e-12 (a
    floor of 1 applies there anyway) or where comm[i, j] is exactly zero
    (its ratio is 0 under any scale)."""
    rest = ~(_frobenius(xs)[:, None] * _frobenius(ys)[None, :] <= _UNDER_ONE)
    if rest.any():
        rest &= comm.any(axis=(-2, -1))
    scale = np.ones(rest.shape)
    if rest.any():
        norms = []
        for mats, need in ((xs, rest.any(axis=1)), (ys, rest.any(axis=0))):
            out = np.zeros(len(mats))
            out[need] = np.linalg.norm(mats[need], 2, axis=(-2, -1))
            norms.append(out)
        scale[rest] = np.outer(*norms)[rest]
    return scale


def rel_residual(x: np.ndarray, *scales: float) -> float:
    """Norm of x relative to max(1, product of the reference scales)."""
    ref = 1.0
    for s in scales:
        ref *= float(s)
    return operator_norm(x) / max(1.0, ref)


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    skew = m - adjoint(m)
    if not skew.any():
        return True
    return operator_norm(skew) <= tol.rel * max(1.0, operator_norm(m))


def herm_eig(m, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).  Raises on
    non-square or non-Hermitian input.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("herm_eig needs a square matrix")
    if not is_hermitian(m, tol):
        raise ValueError("herm_eig needs a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def herm_apply(f, m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via its spectral decomposition."""
    vals, vecs = herm_eig(m, tol)
    return vecs @ np.diag([f(v) for v in vals]) @ adjoint(vecs)


def herm_abs(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return herm_apply(abs, m, tol)


def block_apply(u, ops) -> np.ndarray:
    """(1_m (x) x) U over the m row blocks of an (m*n, k) U, for an (n, n)
    operator x or each of a (s, n, n) stack, without forming 1_m (x) x."""
    u, ops = np.asarray(u), np.asarray(ops)
    xu = ops[..., None, :, :] @ u.reshape(-1, ops.shape[-1], u.shape[1])
    return xu.reshape(ops.shape[:-2] + u.shape)


def pull_back(u, ops) -> np.ndarray:
    """U^* (1_m (x) x) U = sum_i U_i^* x U_i over the row blocks U_i of U."""
    return adjoint(u) @ block_apply(u, ops)


def to_blocks(big, m: int) -> np.ndarray:
    """The (m, m, d, d) table of the d x d blocks of an (m*d, m*d) matrix:
    table[i, j] is block (i, j)."""
    big = np.asarray(big)
    d = big.shape[0] // m
    return big.reshape(m, d, m, d).swapaxes(1, 2)


def from_blocks(table) -> np.ndarray:
    """The (m*d, m*d) matrix whose block (i, j) is table[i, j]; inverse of `to_blocks`."""
    table = np.asarray(table)
    m, d = table.shape[0], table.shape[-1]
    return table.swapaxes(1, 2).reshape(m * d, m * d)


def span_basis(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the span of a stack of matrices.

    `mats` is a (k, *shape) array or a list of equally shaped matrices; the
    basis is a (rank, *shape) array, where rank is the numerical rank at
    tol.rank_cut relative to the largest singular value.  An empty or zero
    stack yields an empty one.
    """
    mats = np.asarray(mats, dtype=complex)
    if len(mats) == 0:
        return mats
    if mats.ndim != 3:
        raise ValueError("span_basis needs a stack of matrices of equal shape")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    u, s, _ = np.linalg.svd(mats.reshape(len(mats), -1).T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return mats[:0]
    rank = int(np.sum(s > tol.rank_cut * float(s[0])))
    return u[:, :rank].T.reshape((rank,) + mats.shape[1:])


def _stacked(basis, shape) -> np.ndarray:
    """A span basis ((dim, *shape) array, or an empty list) as a (dim, size) array."""
    size = int(np.prod(shape))
    return np.asarray(basis, dtype=complex).reshape(-1, size)


def span_coords(x, basis) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return _stacked(basis, x.shape).conj() @ x.ravel()


def project_onto_span(x, basis) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return (span_coords(x, basis) @ _stacked(basis, x.shape)).reshape(x.shape)


def span_residual(x, basis) -> float:
    """Relative distance of x from the span of an orthonormal basis."""
    x = np.asarray(x, dtype=complex)
    return rel_residual(x - project_onto_span(x, basis), operator_norm(x))


def _span_residuals(xs: np.ndarray, basis) -> np.ndarray:
    """x - P x for each matrix of a (k, n, n) stack, P the projection onto
    the span of an orthonormal basis: one batched projection."""
    flat = xs.reshape(len(xs), -1)
    b = _stacked(basis, xs.shape[1:])
    return (flat - (flat @ b.conj().T) @ b).reshape(xs.shape)


def max_span_residual(xs, basis, floor: float = 0.0) -> float:
    """max(floor, the largest span_residual over a (k, n, n) stack): one
    batched projection and `scaled_residual` of what is left."""
    xs = np.asarray(xs, dtype=complex)
    if len(xs) == 0:
        return float(floor)
    return scaled_residual(_span_residuals(xs, basis), xs, floor)


def scaled_residual(resid, xs, floor: float = 0.0) -> float:
    """max(floor, max_k |resid_k|_2 / max(1, |xs_k|_2)) over stacks of the
    same leading shape: `max_operator_norm` of the residuals under
    `unit_floor_norms(xs)`, which are not taken when every residual's
    Frobenius bound is within the floor."""
    return _max_ratio(resid, lambda: unit_floor_norms(xs), floor)


def null_space(a, tol: Tolerance = DEFAULT_TOL, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis of the kernel of a (rectangular) matrix, one vector per row.

    `scale` is an absolute floor for the rank threshold so that matrices
    that vanish up to roundoff report a full kernel.
    """
    a = as_complex_matrix(a)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a full right-singular basis needs full_matrices only in the wide case
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol.rank_cut * max(top, scale)))
    return vh[rank:].conj()


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_complex(rng, (n, n))
    return (m + adjoint(m)) / 2.0

