"""Finite-dimensional *-algebras of operators: generation, commutants, centers, gradings.

An algebra is stored as an orthonormal linear basis (trace inner product)
of operators on a fixed Hilbert space C^n, stacked into one (dim, n, n)
array.  Membership tests are projection-residual tests against that basis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    max_operator_norm,
    null_space,
    operator_norm,
    project_onto_span,
    rel_residual,
    span_basis,
    span_coords,
    span_residual,
)

__all__ = [
    "AlgebraBasis",
    "generate_algebra",
    "commutant",
    "center",
    "graded_split",
]


@dataclass
class AlgebraBasis:
    """A *-algebra of operators on C^n.

    `basis` is an orthonormal basis (trace inner product) stacked as a
    (dim, n, n) array.  `generators` is a (k, n, n) array of matrices that
    generate the algebra, the short list that commutant and center tests
    run against; it defaults to the basis.
    """

    hilbert_dim: int
    basis: np.ndarray
    generators: np.ndarray | None = None

    def __post_init__(self):
        n = self.hilbert_dim
        self.basis = np.asarray(self.basis, dtype=complex).reshape(-1, n, n)
        if self.generators is None:
            self.generators = self.basis
        else:
            self.generators = np.asarray(self.generators, dtype=complex).reshape(-1, n, n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x) -> np.ndarray:
        return span_coords(x, self.basis)

    def combine(self, coeffs) -> np.ndarray:
        """The element sum_k coeffs[k] basis[k] (one per row for a 2-D coeffs)."""
        return np.tensordot(coeffs, self.basis, axes=1)

    def membership_residual(self, x) -> float:
        return span_residual(x, self.basis)

    def expectation(self, x) -> np.ndarray:
        """Trace-orthogonal projection onto the algebra.

        For a unital *-subalgebra this is the trace-preserving conditional
        expectation.
        """
        return project_onto_span(x, self.basis)

    def identity(self) -> np.ndarray:
        return np.eye(self.hilbert_dim, dtype=complex)


def _closure_round(basis, tol):
    new = list(basis)
    for b in basis:
        new.append(adjoint(b))
    for b1 in basis:
        for b2 in basis:
            new.append(b1 @ b2)
    return span_basis(new, tol)


def generate_algebra(generators, with_unit: bool = True, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Smallest *-closed (optionally unital) algebra containing the generators.

    Iterates product/adjoint closure until the span dimension stabilizes;
    the dimension is bounded by hilbert_dim^2, so the loop terminates.
    """
    gens = [as_complex_matrix(g) for g in generators]
    if gens:
        n = gens[0].shape[0]
        for g in gens:
            if g.shape != (n, n):
                raise ValueError("generators must be square matrices of equal dimension")
    elif with_unit:
        raise ValueError("cannot infer dimension from empty generator list; pass the identity")
    else:
        raise ValueError("no generators given")

    seeds = list(gens)
    if with_unit:
        seeds.append(np.eye(n, dtype=complex))
    basis = span_basis(seeds, tol)
    max_rounds = n * n + 2
    for _ in range(max_rounds):
        nxt = _closure_round(basis, tol)
        if len(nxt) == len(basis):
            basis = nxt
            break
        basis = nxt
    else:
        raise RuntimeError("algebra closure did not stabilize (numerical drift?)")
    return AlgebraBasis(hilbert_dim=n, basis=basis, generators=gens)


def _cluster_blocks(vals, tol):
    """(rows, cols) of the entries of the block-diagonal pattern whose blocks
    are the clusters of the sorted eigenvalues, split wherever the gap
    exceeds sqrt(rank_cut) times the spectral scale."""
    cut = np.sqrt(tol.rank_cut) * max(1.0, float(np.max(np.abs(vals))))
    clusters = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > cut) + 1)
    rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
    cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
    return rows, cols


def _block_commutant(mats, vecs, rows, cols, tol):
    """Operators vecs B vecs^* commuting with mats and their adjoints, B
    supported on the (rows, cols) entries."""
    n = vecs.shape[0]
    size = len(rows)
    slot = np.arange(size)
    eqs = []
    for m in mats:
        g = adjoint(vecs) @ m @ vecs
        for op in (g, adjoint(g)):
            # [op, E_pq] = op[:, p] e_q^T - e_p op[q, :] for each unknown E_pq
            eq = np.zeros((size, n, n), dtype=complex)
            eq[slot, :, cols] = op[:, rows].T
            eq[slot, rows, :] -= op[cols, :]
            eqs.append(eq.reshape(size, n * n))
    scale = max([1.0] + [operator_norm(m) for m in mats])
    # the triangular factor keeps the singular values and right singular
    # vectors of the tall stacked system at a fraction of its SVD cost
    tri = np.linalg.qr(np.hstack(eqs).T, mode="r")
    kernel = null_space(tri, tol, scale=scale)
    blocks = np.zeros((len(kernel), n, n), dtype=complex)
    blocks[:, rows, cols] = np.reshape(kernel, (len(kernel), size))
    return vecs @ blocks @ adjoint(vecs)


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All operators commuting with the generators and their adjoints.

    A seeded random combination of the generators has a Hermitian part h,
    and every commutant element commutes with h, so it is block diagonal in
    h's eigenbasis with one block per eigenvalue cluster.  The commutator
    equations are solved over those blocks only: first for two more seeded
    combinations and their adjoints, then, if a candidate fails to commute
    with some generator, for all generators and their adjoints.  Merging
    clusters only enlarges the search space, so no part of the commutant is
    lost; the fallback solve is the commutant itself.  The candidate space
    is *-closed, so commuting with every generator suffices.
    """
    n = alg.hilbert_dim
    gens = alg.generators
    rng = np.random.default_rng(1285)
    coeffs = rng.standard_normal((3, len(gens))) + 1j * rng.standard_normal((3, len(gens)))
    combos = np.tensordot(coeffs, gens, axes=1)
    vals, vecs = np.linalg.eigh((combos[0] + adjoint(combos[0])) / 2.0)
    rows, cols = _cluster_blocks(vals, tol)
    basis = _block_commutant(combos[1:], vecs, rows, cols, tol)
    if len(basis) and len(gens):
        res = gens[:, None] @ basis[None] - basis[None] @ gens[:, None]
        ref = (np.linalg.norm(gens, 2, axis=(-2, -1))[:, None]
               * np.linalg.norm(basis, 2, axis=(-2, -1))[None])
        worst = max_operator_norm(res, ref)
        if worst > max(tol.rel, 1e-8):
            basis = _block_commutant(gens, vecs, rows, cols, tol)
    return AlgebraBasis(hilbert_dim=n, basis=basis)


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL):
    """Basis of the center: elements of the algebra commuting with all of it."""
    n = alg.hilbert_dim
    d = alg.dim
    if d == 0:
        return []
    # one (n*n, d) block per generator: column i holds [g, basis[i]]
    rows = [(g @ alg.basis - alg.basis @ g).reshape(d, n * n).T for g in alg.generators]
    kernel = null_space(np.vstack(rows), tol)
    return [alg.combine(c) for c in kernel]


def graded_split(alg: AlgebraBasis, grading, tol: Tolerance = DEFAULT_TOL):
    """Split an algebra into even/odd parts under x -> g x g for an involution g.

    Returns (even basis, odd basis).  Raises if g is not a Hermitian
    involution or conjugation does not preserve the algebra.
    """
    g = as_complex_matrix(grading)
    n = alg.hilbert_dim
    if g.shape != (n, n):
        raise ValueError("grading dimension mismatch")
    if operator_norm(g - adjoint(g)) > tol.rel * max(1.0, operator_norm(g)):
        raise ValueError("grading must be Hermitian")
    if rel_residual(g @ g - np.eye(n), 1.0) > tol.rel:
        raise ValueError("grading must square to the identity")
    even_parts, odd_parts = [], []
    for b in alg.basis:
        conj = g @ b @ g
        if alg.membership_residual(conj) > max(tol.rel, 1e3 * tol.rank_cut):
            raise ValueError("conjugation by the grading does not preserve the algebra")
        even_parts.append((b + conj) / 2.0)
        odd_parts.append((b - conj) / 2.0)
    even = span_basis(even_parts, tol, scale=1.0)
    odd = span_basis(odd_parts, tol, scale=1.0)
    if len(even) + len(odd) != alg.dim:
        raise ValueError("graded split does not reassemble the algebra")
    return even, odd
