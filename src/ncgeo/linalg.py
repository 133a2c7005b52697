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
    "rel_residual",
    "trace_inner",
    "is_hermitian",
    "herm_eig",
    "herm_apply",
    "herm_abs",
    "block_diag",
    "span_basis",
    "span_coords",
    "project_onto_span",
    "span_residual",
    "span_residuals",
    "null_space",
    "random_complex",
    "random_hermitian",
    "random_unitary",
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


def max_operator_norm(stack, scale=None, floor: float = 0.0) -> float:
    """max(floor, max_k |stack[k]|_2 / max(1, scale[k])) over a stack of matrices.

    `scale` broadcasts against the leading axes of the stack.  The Frobenius
    norm bounds the 2-norm from above, so the 2-norms are taken in decreasing
    order of that bound: the top few first, then at each step every element
    whose bound still exceeds the best value so far.  The sweep stops once no
    bound does, so the result is the float a full sweep of 2-norms gives.  A
    NaN anywhere gives NaN; an empty stack gives `floor`.
    """
    stack = np.asarray(stack)
    mats = stack.reshape((-1,) + stack.shape[-2:])
    best = float(floor)
    if len(mats) == 0:
        return best
    den = np.ones(len(mats)) if scale is None else \
        np.maximum(1.0, np.broadcast_to(scale, stack.shape[:-2])).ravel()
    flat = np.ascontiguousarray(mats).reshape(len(mats), -1)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    squares = np.einsum("ij,ij->i", flat, flat)
    bound = np.sqrt(squares)
    tiny = squares < _TINY_SQUARES
    if tiny.any():
        # the Frobenius norm is at most sqrt(#entries) times the largest one
        bound[tiny] = np.sqrt(flat.shape[1]) * np.max(np.abs(flat[tiny]), axis=1, initial=0.0)
    bound = bound * _FROBENIUS_SLACK / den
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


def rel_residual(x: np.ndarray, *scales: float) -> float:
    """Norm of x relative to max(1, product of the reference scales)."""
    ref = 1.0
    for s in scales:
        ref *= float(s)
    return operator_norm(x) / max(1.0, ref)


def trace_inner(x: np.ndarray, y: np.ndarray) -> complex:
    # vdot conjugates its first argument, so this is Tr(x^* y).
    return complex(np.vdot(x, y))


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


def block_diag(op, n: int) -> np.ndarray:
    """The operator op repeated n times down the diagonal, kron(1_n, op)."""
    return np.kron(np.eye(n, dtype=complex), op)


def _stack_columns(mats):
    return np.stack([np.asarray(m, dtype=complex).ravel() for m in mats], axis=1)


def span_basis(mats, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0):
    """Orthonormal basis (trace inner product) of the span of the given matrices.

    Empty input yields an empty basis.  All matrices must share one shape;
    the span dimension is the numerical rank at tol.rank_cut.  A positive
    `scale` acts as an absolute floor so inputs that are pure roundoff
    produce an empty basis.
    """
    mats = [as_complex_matrix(m) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError("span_basis needs matrices of equal shape")
    cols = _stack_columns(mats)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    rank = int(np.sum(s > tol.rank_cut * max(float(s[0]), scale)))
    return [u[:, k].reshape(shape) for k in range(rank)]


def _stacked(basis, shape) -> np.ndarray:
    """A span basis (list of matrices or (dim, n, n) array) as a (dim, n*n) array."""
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


def span_residuals(xs, basis) -> np.ndarray:
    """span_residual of every matrix in a (k, n, n) stack, as one array."""
    xs = np.asarray(xs, dtype=complex)
    flat = xs.reshape(len(xs), -1)
    b = _stacked(basis, xs.shape[1:])
    resid = (flat - (flat @ b.conj().T) @ b).reshape(xs.shape)
    norms = np.linalg.norm(resid, 2, axis=(-2, -1))
    return norms / np.maximum(1.0, np.linalg.norm(xs, 2, axis=(-2, -1)))


def null_space(a, tol: Tolerance = DEFAULT_TOL, scale: float = 1.0):
    """Orthonormal basis of the kernel of a (rectangular) matrix.

    `scale` is an absolute floor for the rank threshold so that matrices
    that vanish up to roundoff report a full kernel.
    """
    a = as_complex_matrix(a)
    if a.shape[0] == 0:
        return [np.eye(a.shape[1], dtype=complex)[:, k] for k in range(a.shape[1])]
    # a full right-singular basis needs full_matrices only in the wide case
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol.rank_cut * max(top, scale)))
    return [vh[k].conj() for k in range(rank, a.shape[1])]


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_complex(rng, (n, n))
    return (m + adjoint(m)) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
