"""Finite-dimensional *-algebras of operators: generation, commutants, centers, gradings.

An algebra is stored as an orthonormal linear basis (trace inner product)
of operators on a fixed Hilbert space C^n, stacked into one (dim, n, n)
array.  Membership tests are projection-residual tests against that basis.

A unital *-algebra of operators is W(+_k M_{n_k} (x) 1_{m_k})W* for a
unitary W (its Wedderburn data), and its commutant is
W(+_k 1_{n_k} (x) M_{m_k})W*.  `generate_algebra` reads the Wedderburn
data off the eigenclusters of two generic combinations of the generators
and writes A down in closed form, with no solve.  Its
certificate has two parts: every generator fits the M_{n_k} (x) 1_{m_k}
pattern in W's columns (A lies in the pattern), and every cluster is
linked to its root (elements of A span the pattern).  The route is taken
only when the generators fit to within 1e-3 rank_cut; otherwise the
commutant A' of the generators is solved, the same cluster reading on A'
gives the data, and A = A'' follows in closed form or from a second solve.
A generated algebra keeps its Wedderburn data, so `commutant` writes A'
down from them and `center` is the span of the isotypic projections
W_k W_k*; hand-built algebras take the solves.  `transport_algebra` carries
the data through a compression x -> U* (1 (x) x) U that is a
*-homomorphism (the conversions' outputs), under a gate no looser than the
generators' pattern fit above.

`graded_split` splits an algebra under x -> g x g from the Hermitian
d x d matrix of that involution on the basis: its eigenvectors combine
the basis into the even and odd parts, with no SVD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    commutators_within,
    max_operator_norm,
    null_space,
    operator_norm,
    project_onto_span,
    rel_residual,
    scaled_within,
    span_coords,
    span_residual,
)

__all__ = [
    "AlgebraBasis",
    "generate_algebra",
    "transport_algebra",
    "commutant",
    "commutant_pattern",
    "intertwiners",
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

    `generate_algebra` also sets, when the closed-form reconstruction
    verifies, `wedderburn = (w, blocks)`: a unitary w and a tuple of
    (n_k, m_k) with the algebra equal to w (+_k M_{n_k} (x) 1_{m_k}) w*, the
    columns of w grouped by k.  It stays None on hand-built algebras.
    """

    hilbert_dim: int
    basis: np.ndarray
    generators: np.ndarray | None = None
    wedderburn: tuple | None = None

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

    def pair_coords(self, us, vs) -> np.ndarray:
        """Coordinates of the pairings (u|v) = E(|u><v|) of two stacks of vectors.

        For us (k, n) and vs (l, n), entry [i, j, m] is the basis[m]
        coordinate of E(|u_i><v_j|), conj(u_i^* basis[m] v_j); `combine`
        turns the (k, l, dim) array into the (k, l, n, n) pairing table.
        """
        us = np.asarray(us, dtype=complex)
        vs = np.asarray(vs, dtype=complex)
        return np.moveaxis(us @ (self.basis.conj() @ vs.conj().T), 0, -1)

    def membership_residual(self, x) -> float:
        return span_residual(x, self.basis)

    def expectation(self, x) -> np.ndarray:
        """Trace-orthogonal projection onto the algebra.

        For a unital *-subalgebra this is the trace-preserving conditional
        expectation.
        """
        return project_onto_span(x, self.basis)


def generate_algebra(generators, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Smallest unital *-algebra containing the generators.

    The Wedderburn data are read off the generators themselves
    (`_generated_wedderburn`), and A is written down in closed form.  If
    the generators do not fit that data to within 1e-3 rank_cut, the
    commutant A' of the generators and the unit is solved and verified by
    `commutant`, only to read the Wedderburn data off it (`_wedderburn`),
    and A = A'' (von Neumann) follows in closed form or, if that
    reconstruction does not verify, from a second `commutant` solve.
    """
    gens = [as_complex_matrix(g) for g in generators]
    if not gens:
        raise ValueError("cannot infer dimension from empty generator list; pass the identity")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must be square matrices of equal dimension")
    wedderburn = _generated_wedderburn(np.stack(gens), tol)
    if wedderburn is None:
        # only the generators of its argument enter the commutant
        seeds = AlgebraBasis(n, np.zeros((0, n, n)), generators=gens + [np.eye(n, dtype=complex)])
        comm = commutant(seeds, tol).basis
        wedderburn = _wedderburn(comm, tol)
        if wedderburn is None:
            return AlgebraBasis(n, commutant(AlgebraBasis(n, comm), tol).basis, gens)
    return AlgebraBasis(n, _algebra_pattern(*wedderburn), gens, wedderburn=wedderburn)


def _algebra_pattern(w, blocks) -> np.ndarray:
    """Orthonormal basis of w (+_k M_{n_k} (x) 1_{m_k}) w*: E_ab (x) 1_{m_k} /
    sqrt(m_k) in the columns of each component, x_a x_b^* / sqrt(m_k) for
    x_a its columns (a, :)."""
    return np.concatenate([_outer_products(w_k.transpose(1, 0, 2)) / np.sqrt(w_k.shape[2])
                           for w_k in _components(w, blocks)])


def commutant_pattern(w, blocks) -> np.ndarray:
    """Orthonormal basis of w (+_k 1_{n_k} (x) M_{m_k}) w*, the commutant of
    the algebra with Wedderburn data (w, blocks): 1_{n_k} (x) E_pq / sqrt(n_k)
    in the columns of each component, y_p y_q^* / sqrt(n_k) for y_p its
    columns (:, p)."""
    return np.concatenate([_outer_products(w_k.transpose(2, 0, 1)) / np.sqrt(w_k.shape[1])
                           for w_k in _components(w, blocks)])


def _outer_products(x) -> np.ndarray:
    """x_a x_b^* over the pairs (a, b) of an (s, n, r) stack, a-major, as an
    (s^2, n, n) stack: one batched product."""
    return (x[:, None] @ x.conj().swapaxes(-1, -2)[None]).reshape(-1, x.shape[1], x.shape[1])


def _components(w, blocks):
    """The columns of w per isotypic component k, as (n, n_k, m_k) arrays."""
    ends = np.cumsum([n_k * m_k for n_k, m_k in blocks])
    return [w[:, end - n_k * m_k:end].reshape(-1, n_k, m_k)
            for end, (n_k, m_k) in zip(ends, blocks)]


def transport_algebra(alg: AlgebraBasis, u, generators,
                      tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis | None:
    """The image pi(A) of an algebra A with Wedderburn data under
    pi(x) = U^* (1_m (x) x) U, for an (m n, r) isometry U whose range
    projector commutes with 1_m (x) A, with its own Wedderburn data and
    `generators` (operators on C^r that generate the image) as its
    generators; None when A has no Wedderburn data or the image misses the
    gate, and the caller generates it instead.

    pi is then a unital *-homomorphism.  For the matrix units e_ab of
    component k of A, pi(e_11) is the projection onto a space V_k of rank
    m'_k (one eigh of an r x r Gram matrix), and the columns
    pi(e_a1) V_k[:, p] = U^* (1_m (x) e_a1)(U V_k[:, p]) are the component's
    columns (a, p) of the image's frame W', with blocks (n_k, m'_k); no
    element of A's basis is pulled back.  The basis is the closed form of
    `generate_algebra`.

    The gate is no looser than that of `_generated_wedderburn`: each
    pi(e_11) has its eigenvalues within 1e-3 rank_cut of 0 or 1 and keeps
    its component (rank m'_k > 0), W' is square with |W'^* W' - 1|_F at
    most 1e-3 rank_cut, and every generator fits the pattern of W' to
    within 1e-3 rank_cut of max(1, |g|_2).
    """
    if alg.wedderburn is None:
        return None
    gens = np.stack([as_complex_matrix(g) for g in generators])
    u = np.asarray(u, dtype=complex)
    n, r = alg.hilbert_dim, u.shape[1]
    rows = u.reshape(-1, n, r)
    threshold = 1e-3 * tol.rank_cut
    cols, blocks = [], []
    for w_k in _components(*alg.wedderburn):
        n_k = w_k.shape[1]
        # the row blocks of (1_m (x) W_1^*) U, whose Gram matrix is pi(e_11)
        head = adjoint(w_k[:, 0, :]) @ rows
        flat = head.reshape(-1, r)
        vals, vecs = np.linalg.eigh(adjoint(flat) @ flat)
        if np.max(np.minimum(np.abs(vals), np.abs(vals - 1.0))) > threshold:
            return None
        v = vecs[:, vals > 0.5]
        if v.shape[1] == 0:
            return None
        # column (a, p): sum_i U_i^* W_a (W_1^* U_i v_p)
        legs = w_k.transpose(1, 0, 2)[:, None] @ (head @ v)[None]
        image = adjoint(u) @ legs.reshape(n_k, -1, v.shape[1])
        cols.append(image.transpose(1, 0, 2).reshape(r, -1))
        blocks.append((n_k, v.shape[1]))
    w = np.concatenate(cols, axis=1)
    if w.shape[1] != r or not np.linalg.norm(adjoint(w) @ w - np.eye(r)) <= threshold:
        return None
    if not scaled_within(_pattern_residual(adjoint(w) @ gens @ w, blocks), gens, threshold):
        return None
    wedderburn = (w, tuple(blocks))
    return AlgebraBasis(r, _algebra_pattern(*wedderburn), gens, wedderburn=wedderburn)


def _transport_preimage(alg: AlgebraBasis, image: AlgebraBasis, u):
    """(x, pi(x)) for the elements x_j of A that `transport_algebra` maps
    through U onto its image's closed-form basis: element (k, a, b) there is
    pi(e_ab) / sqrt(m'_k), so x_j = e_ab / sqrt(m'_k).  Its image is
    evaluated as Y_a^* Y_b / sqrt(m'_k), Y_a = (1_m (x) W_a^*) U, at a
    fraction of the cost of pulling x back."""
    n, r = alg.hilbert_dim, image.hilbert_dim
    rows = np.asarray(u).reshape(-1, n, r)
    pre, images = [], []
    for w_k, (_, m_out) in zip(_components(*alg.wedderburn), image.wedderburn[1]):
        cols = w_k.transpose(1, 0, 2)
        # ys[a] stacks the row blocks W_a^* U_i of Y_a
        ys = (cols.conj().swapaxes(-1, -2)[:, None] @ rows[None]).reshape(len(cols), -1, r)
        pre.append(_outer_products(cols) / np.sqrt(m_out))
        images.append(_outer_products(ys.conj().swapaxes(-1, -2)) / np.sqrt(m_out))
    return np.concatenate(pre), np.concatenate(images)


def _pattern_residual(coords, blocks) -> np.ndarray:
    """What each matrix of a stack has beyond its trace-orthogonal projection
    onto +_k M_{n_k} (x) 1_{m_k}, in columns grouped by component k and
    ordered (a, p) within it: the pattern keeps, per component, the mean
    over p of the (a, p), (b, p) entries."""
    resid = coords.copy()
    start = 0
    for n_k, m_k in blocks:
        end = start + n_k * m_k
        block = coords[:, start:end, start:end].reshape(-1, n_k, m_k, n_k, m_k)
        coef = np.trace(block, axis1=2, axis2=4) / m_k
        resid[:, start:end, start:end] -= (coef[:, :, None, :, None] * np.eye(m_k)[:, None, :]
                                           ).reshape(-1, n_k * m_k, n_k * m_k)
        start = end
    return resid


def _generated_wedderburn(gens, tol):
    """Wedderburn data (w, blocks) of the algebra A the stack `gens`
    generates, read off the generators, or None if they do not fit it.

    The clusters of `_aligned_frame` are the n_k clusters of size m_k of
    each component, and the check has two parts.  Every generator is
    M_{n_k} (x) 1_{m_k} in the columns of w to within 1e-3 rank_cut of
    max(1, |g|_2), so A lies in that pattern.  Every cluster is linked to
    its root, so the spectral projections of the probe's Hermitian part and
    their compressions of the link, all in A, span the pattern.
    """
    frame = _aligned_frame(gens, tol, in_commutant=False)
    if frame is None:
        return None
    w, blocks, resid = frame
    if not scaled_within(resid, gens, 1e-3 * tol.rank_cut):
        return None
    return w, blocks


def _wedderburn(comm, tol):
    """Wedderburn data (w, blocks) of the algebra whose commutant has the
    orthonormal basis `comm`, or None if the reconstruction does not verify.

    The clusters of `_aligned_frame` are the m_k clusters of size n_k of
    each component.  The check: A' must have dimension sum_k m_k^2 and
    every basis element must be 1_{n_k} (x) M_{m_k} on the aligned columns,
    so A' is all of that pattern and A = A'' is w (+_k M_{n_k} (x) 1_{m_k}) w*.
    """
    frame = _aligned_frame(comm, tol, in_commutant=True)
    if frame is None:
        return None
    w, blocks, resid = frame
    threshold = max(tol.rel, 1e-8)
    if sum(m_k * m_k for _, m_k in blocks) != len(comm) \
            or max_operator_norm(resid, floor=threshold) > threshold:
        return None
    return w, blocks


def _aligned_frame(mats, tol, in_commutant):
    """A unitary w, blocks (n_k, m_k) and the stack of residuals of the
    matrices `mats` against the pattern of w and blocks, or None if the
    clusters link inconsistently.

    For `mats` in an algebra w (+_k M_{n_k} (x) 1_{m_k}) w*, or in its
    commutant w (+_k 1_{n_k} (x) M_{m_k}) w* (`in_commutant`), the Hermitian part
    of a seeded generic element of their span is, in some orthonormal basis
    of each eigenspace, one eigenvalue of a generic element of M_{n_k}
    (of M_{m_k}) times the unit of the other factor.  So component k gives
    clusters of equal size, and a second generic element links the
    clusters of one component (its blocks between components are
    roundoff); each cluster joins the first cluster it is linked to, its
    root.  The polar factors of the (root, cluster) blocks of the link
    align the eigenbases of each component.  In the aligned columns a
    pattern element has entry (i, j) zero unless i and j share a component
    and a position in their clusters, and that entry depends on the
    clusters of i and j only; the residual is what the matrix has beyond
    its trace-orthogonal projection onto that pattern.
    """
    rng = np.random.default_rng(2010)
    coeffs = rng.standard_normal((2, len(mats))) + 1j * rng.standard_normal((2, len(mats)))
    probe, link = np.tensordot(coeffs, mats, axes=1)
    vals, vecs = np.linalg.eigh((probe + adjoint(probe)) / 2.0)
    clusters = _clusters(vals, tol)
    starts = np.array([c[0] for c in clusters])
    sizes = np.array([len(c) for c in clusters])
    link = adjoint(vecs) @ link @ vecs
    # squared Frobenius norms of its blocks between clusters, in the eigenbasis
    weight = np.add.reduceat(np.add.reduceat(np.abs(link) ** 2, starts, axis=0), starts, axis=1)
    linked = np.maximum(weight, weight.T) > tol.rank_cut * max(1.0, float(np.sum(weight)))
    # each cluster joins the first cluster it is linked to, its root
    root = np.argmax(linked | np.eye(len(clusters), dtype=bool), axis=0)
    if np.any(root[root] != root) or np.any(sizes[root] != sizes):
        return None
    # align cluster j to its root: vecs_j P*, P the polar factor of the
    # (root, j) block of the link, which makes that block positive
    aligned = vecs.copy()
    for size in np.unique(sizes):
        js = np.flatnonzero(sizes == size)
        offs = np.arange(size)
        rows = (starts[root[js]][:, None] + offs)[:, :, None]
        cols = starts[js][:, None] + offs
        u, _, vh = np.linalg.svd(link[rows, cols[:, None, :]])
        aligned[:, cols] = np.einsum("ija,jba->ijb", vecs[:, cols], (u @ vh).conj())
    cluster = np.repeat(np.arange(len(clusters)), sizes)
    pos = np.arange(len(vals)) - starts[cluster]
    same = (root[cluster][:, None] == root[cluster][None, :]) & (pos[:, None] == pos[None, :])
    coords = adjoint(aligned) @ mats @ aligned
    coef = np.add.reduceat(np.add.reduceat(coords * same, starts, axis=1), starts, axis=2)
    coef /= sizes[:, None]
    resid = coords - same * coef[:, cluster][:, :, cluster]
    roots, counts = np.unique(root, return_counts=True)
    members = [starts[root == r] for r in roots]
    if in_commutant:
        # column (a, p) of component k is column a of its p-th cluster
        order = [(m[None, :] + np.arange(sizes[r])[:, None]).ravel() for r, m in zip(roots, members)]
        blocks = tuple((int(sizes[r]), int(m_k)) for r, m_k in zip(roots, counts))
    else:
        # column (a, p) of component k is column p of its a-th cluster
        order = [(m[:, None] + np.arange(sizes[r])[None, :]).ravel() for r, m in zip(roots, members)]
        blocks = tuple((int(m_k), int(sizes[r])) for r, m_k in zip(roots, counts))
    return aligned[:, np.concatenate(order)], blocks, resid


def _clusters(vals, tol):
    """Index arrays of the clusters of the sorted eigenvalues, split wherever
    the gap exceeds sqrt(rank_cut) times the spectral scale."""
    cut = np.sqrt(tol.rank_cut) * max(1.0, float(np.max(np.abs(vals))))
    return np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > cut) + 1)


def _cluster_blocks(vals1, vals2, tol):
    """(rows, cols) of the index pairs into the sorted eigenvalues vals2 and
    vals1 whose values share a cluster of the merged spectrum; for vals2 =
    vals1, the block-diagonal pattern whose blocks are its clusters."""
    merged = np.concatenate([vals1, vals2])
    order = np.argsort(merged, kind="stable")
    label = np.empty(len(merged), dtype=int)
    for k, c in enumerate(_clusters(merged[order], tol)):
        label[order[c]] = k
    label1, label2 = label[:len(vals1)], label[len(vals1):]
    pairs = [(np.flatnonzero(label2 == k), np.flatnonzero(label1 == k))
             for k in range(label.max() + 1)]
    rows = np.concatenate([np.repeat(i2, len(i1)) for i2, i1 in pairs])
    cols = np.concatenate([np.tile(i1, len(i2)) for i2, i1 in pairs])
    return rows, cols


def _block_intertwiners(mats1, mats2, vecs1, vecs2, rows, cols, tol):
    """Operators vecs2 B vecs1^* with X m1 = m2 X and X m1^* = m2^* X for each
    pair (m1, m2) of mats1 and mats2, B supported on the (rows, cols) entries."""
    n1, n2 = vecs1.shape[0], vecs2.shape[0]
    size = len(rows)
    slot = np.arange(size)
    eqs = []
    for m1, m2 in zip(mats1, mats2):
        g1 = adjoint(vecs1) @ m1 @ vecs1
        g2 = adjoint(vecs2) @ m2 @ vecs2
        for op1, op2 in ((g1, g2), (adjoint(g1), adjoint(g2))):
            # op2 E_pq - E_pq op1 = op2[:, p] e_q^T - e_p op1[q, :] for each unknown E_pq
            eq = np.zeros((size, n2, n1), dtype=complex)
            eq[slot, :, cols] = op2[:, rows].T
            eq[slot, rows, :] -= op1[cols, :]
            eqs.append(eq.reshape(size, n2 * n1))
    scale = max([1.0] + [operator_norm(m) for m in mats1] + [operator_norm(m) for m in mats2])
    # the triangular factor keeps the singular values and right singular
    # vectors of the tall stacked system at a fraction of its SVD cost
    tri = np.linalg.qr(np.hstack(eqs).T, mode="r")
    kernel = null_space(tri, tol, scale=scale)
    blocks = np.zeros((len(kernel), n2, n1), dtype=complex)
    blocks[:, rows, cols] = kernel
    return vecs2 @ blocks @ adjoint(vecs1)


def commutant(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """All operators commuting with the generators and their adjoints: the
    closed form of the Wedderburn data when the algebra has them, otherwise
    `intertwiners(generators, generators)`, the diagonal case of that solve.
    """
    n = alg.hilbert_dim
    if alg.wedderburn is not None:
        return AlgebraBasis(n, commutant_pattern(*alg.wedderburn))
    return AlgebraBasis(n, intertwiners(alg.generators, alg.generators, tol))


def intertwiners(gens1, gens2, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the operators X with
    X a = b X and X a^* = b^* X for every pair (a, b) of corresponding
    generators, as a (k, n2, n1) stack: the intertwiners of the *-algebras
    the two lists generate, matched generator by generator.

    A seeded random combination of each list has Hermitian parts h1 and h2
    with X h1 = h2 X, so X maps each eigenspace of h1 into the eigenspace
    of h2 at the same eigenvalue: in the two eigenbases it is supported on
    the pairs of indices whose eigenvalues share a cluster of the merged
    spectrum.  Merging clusters only enlarges that support, so no solution
    is lost.  The equations are solved over that support, first for two
    more combinations and their adjoints, then, if a candidate fails for
    some generator or adjoint, for all of them.  An empty probe solve is
    final, since every intertwiner solves the probe equations.
    """
    gens1 = np.asarray(gens1, dtype=complex)
    gens2 = np.asarray(gens2, dtype=complex)
    if len(gens1) != len(gens2):
        raise ValueError("generator lists must correspond")
    rng = np.random.default_rng(1285)
    coeffs = rng.standard_normal((3, len(gens1))) + 1j * rng.standard_normal((3, len(gens1)))
    combos1 = np.tensordot(coeffs, gens1, axes=1)
    combos2 = np.tensordot(coeffs, gens2, axes=1)
    vals1, vecs1 = np.linalg.eigh((combos1[0] + adjoint(combos1[0])) / 2.0)
    vals2, vecs2 = np.linalg.eigh((combos2[0] + adjoint(combos2[0])) / 2.0)
    rows, cols = _cluster_blocks(vals1, vals2, tol)
    basis = _block_intertwiners(combos1[1:], combos2[1:], vecs1, vecs2, rows, cols, tol)
    threshold = max(tol.rel, 1e-8)
    # X a - b X over the generators and their adjoints
    both1 = np.concatenate([gens1, gens1.conj().swapaxes(-1, -2)])
    both2 = np.concatenate([gens2, gens2.conj().swapaxes(-1, -2)])
    if not commutators_within(basis, both1, threshold, twisted=both2):
        basis = _block_intertwiners(gens1, gens2, vecs1, vecs2, rows, cols, tol)
    return basis


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Basis of the center, a (k, n, n) stack: the elements of the algebra
    commuting with all of it.

    With Wedderburn data these are the isotypic projections w_k w_k*,
    normalized; otherwise a null space of the stacked commutator map.
    """
    n = alg.hilbert_dim
    d = alg.dim
    if alg.wedderburn is not None:
        cols = [w_k.reshape(n, -1) for w_k in _components(*alg.wedderburn)]
        return np.stack([c @ adjoint(c) / np.sqrt(c.shape[1]) for c in cols])
    if d == 0:
        return alg.basis
    # one (n*n, d) block per generator: column i holds [g, basis[i]]
    rows = [(g @ alg.basis - alg.basis @ g).reshape(d, n * n).T for g in alg.generators]
    return alg.combine(null_space(np.vstack(rows), tol))


def graded_split(alg: AlgebraBasis, grading, tol: Tolerance = DEFAULT_TOL):
    """Split an algebra into even/odd parts under x -> g x g for an involution g.

    Returns the (even basis, odd basis) stacks, orthonormal combinations of
    the algebra's basis.  Raises if g is not a Hermitian involution or
    conjugation does not preserve the algebra.

    On the orthonormal basis B the involution has the Hermitian d x d
    matrix theta[i, j] = <B_i, g B_j g>; its eigenvectors of positive
    (negative) eigenvalue combine B into the even (odd) basis.

    One gate.  The parts (B +- g B g) / 2 of B must span no more than d
    elements above rank_cut.  They are (1 +- theta^T) B / 2 plus half the
    residual R = g B g - theta^T B, so by Weyl every singular value they
    hold beyond the even and odd bases is at most max (1 - |lambda|) / 2
    plus |R|_2 / 2, which must not exceed rank_cut; |R|_2 is taken from
    eigvalsh(R R^*), d x d.  A failing split raises "does not preserve" when
    some g B_j g lies farther than max(rel, 1e3 rank_cut) from the algebra
    in Frobenius norm, and "does not reassemble" otherwise.
    """
    g = as_complex_matrix(grading)
    n = alg.hilbert_dim
    if g.shape != (n, n):
        raise ValueError("grading dimension mismatch")
    if operator_norm(g - adjoint(g)) > tol.rel * max(1.0, operator_norm(g)):
        raise ValueError("grading must be Hermitian")
    if rel_residual(g @ g - np.eye(n), 1.0) > tol.rel:
        raise ValueError("grading must square to the identity")
    flat = alg.basis.reshape(alg.dim, n * n)
    conj = (g @ alg.basis @ g).reshape(alg.dim, n * n)
    theta = flat.conj() @ conj.T
    resid = conj - theta.T @ flat
    vals, vecs = np.linalg.eigh(theta)
    gap = np.max(1.0 - np.abs(vals)) / 2.0
    spread = np.sqrt(max(np.linalg.eigvalsh(resid @ resid.conj().T)[-1], 0.0))
    if not gap + spread / 2.0 <= tol.rank_cut:
        if np.max(np.sum(np.abs(resid) ** 2, axis=1)) > max(tol.rel, 1e3 * tol.rank_cut) ** 2:
            raise ValueError("conjugation by the grading does not preserve the algebra")
        raise ValueError("graded split does not reassemble the algebra")
    return alg.combine(vecs[:, vals > 0].T), alg.combine(vecs[:, vals < 0].T)
