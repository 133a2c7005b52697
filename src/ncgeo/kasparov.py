"""Bimodule connections, twisted Dirac operators, product triples and index pairings.

A module over the right-acting coefficient algebra B is a
`modules.ProjectiveModule` whose base is the represented right action: one
big projector Q on H^n whose blocks lie in the span of that action, with
the projector as its metric.  The module of a frame x_1..x_n of that
algebra (the canonical one is `modules.parseval_frame`) has block (i, j)
of Q equal to the pairing E(|x_i><x_j|) of the conditional expectation
onto it (`AlgebraBasis.pair_coords`).  Connection potentials are n x n
tables of operators on H constrained to the represented one-form span;
the table entry P[i][j] contributes to output slot k as sum_j P[j][k] v_j.
Only the compression U^*(D (x) 1 + A)U of the twisted operator to the
range basis U of Q matters to the product; `range_twist` builds it
without module-size operators for `product_triple` and the conversion.
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
    block_apply,
    block_diag,
    commutator_residual,
    from_blocks,
    herm_eig,
    max_operator_norm,
    operator_norm,
    pull_back,
    random_complex,
    rel_residual,
    span_basis,
    span_residual,
    to_blocks,
)
from .report import CheckReport
from .triples import SpectralTripleData, first_order_residuals
from .modules import ProjectiveModule, parseval_frame, validate_module

__all__ = [
    "BimoduleConnection",
    "grassmann_connection",
    "one_form_span",
    "twisted_operator",
    "range_twist",
    "product_triple",
    "connection_condition_check",
    "connection_frame",
    "connection_decomposition",
    "gauge_transform",
    "index_pairing",
    "compress_to_range",
]


@dataclass
class BimoduleConnection:
    module: ProjectiveModule
    potential: list | None = None  # n x n table of operators on H, or None for Grassmann


def grassmann_connection(module: ProjectiveModule) -> BimoduleConnection:
    return BimoduleConnection(module, None)


def one_form_span(dirac, ops, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the represented one-forms of a (k, n, n) stack of
    operators: the span of the products [D, b] b' over b, b' in the stack."""
    ops = np.asarray(ops, dtype=complex)
    comms = dirac @ ops - ops @ dirac
    return span_basis((comms[:, None] @ ops[None]).reshape((-1,) + ops.shape[1:]), tol)


def _validate_potential(t: SpectralTripleData, conn: BimoduleConnection, tol: Tolerance):
    if conn.potential is None:
        return
    module = conn.module
    n = module.size
    basis = one_form_span(t.dirac, module.base.basis, tol)
    worst_mem = 0.0
    worst_herm = 0.0
    for i in range(n):
        for j in range(n):
            p = as_complex_matrix(conn.potential[i][j])
            worst_mem = max(worst_mem, span_residual(p, basis))
            worst_herm = max(worst_herm, rel_residual(
                adjoint(p) - conn.potential[j][i], operator_norm(p)))
    if worst_mem > max(tol.rel, 1e-6):
        raise ValueError(f"potential entries leave the one-form span (residual {worst_mem:.3e})")
    if worst_herm > max(tol.rel, 1e-7):
        raise ValueError(f"potential violates hermiticity (residual {worst_herm:.3e})")


def first_order_residual(t: SpectralTripleData, right_alg: AlgebraBasis) -> float:
    """The larger residual of `triples.check_first_order` over the basis of
    the right algebra."""
    return max(first_order_residuals(t, right_alg.basis))


def _twist(t: SpectralTripleData, conn: BimoduleConnection, tol: Tolerance, basis):
    """(U, U^*(D (x) 1 + A)U, U^* A U) for U = basis(Q), after the gate: hard errors on
    a bad projector, potential, first-order condition or non-Hermitian result."""
    module = conn.module
    n, d = module.size, module.block_dim
    if module.projector.shape != (n * d, n * d):
        raise ValueError("module projector shape mismatch")
    failed = [e.condition_id for e in validate_module(module, tol).failures()]
    if failed:
        raise ValueError("invalid twisting module: " + ", ".join(failed))
    _validate_potential(t, conn, tol)
    fo = first_order_residual(t, module.base)
    if fo > max(tol.rel, 1e-7):
        raise ValueError(f"first-order condition fails for the twisting data ({fo:.3e})")
    u = basis(module.projector)
    ahat = np.zeros((u.shape[1],) * 2, dtype=complex) if conn.potential is None else \
        adjoint(u) @ from_blocks(np.asarray(conn.potential, dtype=complex).swapaxes(0, 1)) @ u
    dhat = pull_back(u, t.dirac) + ahat
    herm = rel_residual(dhat - adjoint(dhat), operator_norm(dhat))
    if herm > max(tol.rel, 1e-8):
        raise ValueError(f"twisted operator is not Hermitian (residual {herm:.3e})")
    return u, dhat, ahat


def twisted_operator(t: SpectralTripleData, conn: BimoduleConnection,
                     tol: Tolerance = DEFAULT_TOL):
    """Compressed block Dirac operator of a connection: Q diag(D) Q plus the potential.

    Returns (dhat, ahat) as operators on H^n (supported on the range of the
    module projector).  Hard errors on a bad projector or potential.
    """
    _, dhat, ahat = _twist(t, conn, tol, lambda q: q)
    return dhat, ahat


def range_twist(t: SpectralTripleData, conn: BimoduleConnection,
                tol: Tolerance = DEFAULT_TOL):
    """(U, U^*(D (x) 1 + A)U) for U = `compress_to_range(Q)`: U^* dhat U for
    the `dhat` of `twisted_operator` when Q = U U^*, with the same gate."""
    u, d_c, _ = _twist(t, conn, tol, compress_to_range)
    return u, d_c


def compress_to_range(projector: np.ndarray) -> np.ndarray:
    """Orthonormal column basis of the range of a Hermitian projector Q: Q
    applied to a seeded probe of round(Tr Q) columns, orthonormalized by QR
    with R's diagonal made positive, so it moves continuously with Q."""
    q = np.asarray(projector)
    rank = int(round(float(np.trace(q).real)))
    probe = random_complex(np.random.default_rng(1109), (q.shape[0], rank))
    u, r = np.linalg.qr(q @ probe)
    return u * np.exp(1j * np.angle(np.diagonal(r)))


def product_triple(t: SpectralTripleData, conn: BimoduleConnection,
                   tol: Tolerance = DEFAULT_TOL, right_ops: list | None = None):
    """Spectral triple carried by the twisted operator d_c of `range_twist`.

    Generators, grading and optional `right_ops` (operators on H^n commuting
    with the projector) are compressed through U; the grading only when
    (1 (x) g)U = U g_c.  `product:commutators_descend` is the larger of
    |[d_c, a_c] - pull_back(U, [D, a])| / max(1, |D||a|) and the leakage
    |(1 (x) a)U - U a_c| / max(1, |a|).  Returns (triple, U, report).
    """
    rep = CheckReport()
    u, d_c = range_twist(t, conn, tol)
    gens = np.asarray(t.algebra_gens, dtype=complex)
    gens_c = pull_back(u, gens)
    norms = np.linalg.norm(gens, 2, axis=(-2, -1))
    da_c = pull_back(u, t.dirac @ gens - gens @ t.dirac)
    descend = max_operator_norm(d_c @ gens_c - gens_c @ d_c - da_c, operator_norm(t.dirac) * norms)
    # the leakage (1 - Q) a U as the floor of the second sweep
    worst = max_operator_norm(block_apply(u, gens) - u @ gens_c, norms, floor=descend)
    rep.add("product:commutators_descend", worst, max(tol.rel, 1e-9))

    new_right = None
    if right_ops is not None:
        rep.add("product:right_action_respects_module",
                commutator_residual([conn.module.projector], right_ops), max(tol.rel, 1e-8))
        right_c = adjoint(u) @ np.asarray(right_ops) @ u
        rep.add("product:first_order_for_right_action",
                commutator_residual(d_c @ right_c - right_c @ d_c, gens_c), max(tol.rel, 1e-8))
        new_right = list(right_c)

    grading = None
    if t.grading is not None:
        g_c = pull_back(u, t.grading)
        if operator_norm(block_apply(u, t.grading) - u @ g_c) <= max(tol.rel, 1e-8):
            grading = g_c
        else:
            rep.add("product:grading_dropped", 0.0, np.inf,
                    "module projector is not even; grading not transported")

    rep.add("product:summability_bookkeeping", 0.0, np.inf,
            "finite-dimensional class preserved by compression and bounded perturbation")

    out = SpectralTripleData(
        hilbert_dim=u.shape[1],
        algebra_gens=list(gens_c),
        dirac=d_c,
        grading=grading,
        declared_p=t.declared_p,
        right_action_gens=new_right,
        state=None,
    )
    return out, u, rep


def connection_frame(conn: BimoduleConnection):
    """Spanning module frame: the projector applied to each base basis
    element in each slot, Q[:, block j] b."""
    q, nh = conn.module.projector, conn.module.block_dim
    return [q[:, j * nh:(j + 1) * nh] @ b
            for j in range(conn.module.size) for b in conn.module.base.basis]


def connection_condition_check(t: SpectralTripleData, conn: BimoduleConnection,
                               dhat: np.ndarray | None = None,
                               frame: list | None = None,
                               tol: Tolerance = DEFAULT_TOL,
                               sign_flip: bool = False) -> CheckReport:
    """Commutator identity for the creation maps of each frame element.

    For each e the commutator of diag(dhat, D) with the off-diagonal
    creation pair (even, since modules carry no grading) must reproduce
    the bounded pair assembled from the slot commutators and the
    potential; `sign_flip` deliberately breaks the adjoint block (used to
    demonstrate detection).  `dhat` defaults to the twisted operator of the
    connection, whose gate runs either way.
    """
    rep = CheckReport()
    module = conn.module
    twisted, ahat = twisted_operator(t, conn, tol)
    dhat = twisted if dhat is None else dhat
    n, nh = module.size, module.block_dim
    q = module.projector
    if frame is None:
        frame = connection_frame(conn)
    d = t.dirac
    worst = 0.0
    for t_e in frame:
        blocks = [t_e[i * nh:(i + 1) * nh, :] for i in range(n)]
        t_e_adj = adjoint(t_e) * (-1.0 if sign_flip else 1.0)

        top = dhat @ t_e - t_e @ d
        bottom = d @ t_e_adj - t_e_adj @ dhat

        r_pred = q @ np.vstack([d @ y - y @ d for y in blocks]) + ahat @ t_e
        s_pred = np.hstack([d @ adjoint(y) - adjoint(y) @ d for y in blocks]) \
            - adjoint(t_e) @ ahat
        # the lower row acts on the module space, so compare there
        res = max(
            rel_residual(top - r_pred, operator_norm(d), operator_norm(t_e)),
            rel_residual((bottom - s_pred) @ q, operator_norm(d), operator_norm(t_e)),
        )
        worst = max(worst, res)
    rep.add("connection_condition:bounded_pair", worst, max(tol.rel, 1e-9),
            f"{len(frame)} frame elements")
    return rep


def connection_decomposition(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Splits the Dirac operator into a connection part plus a coefficient-linear remainder.

    Uses the canonical tight frame of the right action; the connection
    part maps e_k to sum_x [eps D, E(|e_k><x|)] x.  The first-order rule is
    the graded one of `triples.check_first_order`.  Returns (gamma_table,
    t_op, report) where gamma_table maps each right generator b to the
    represented form [eps D, b].
    """
    right = t.right_algebra(tol)
    if right is None:
        raise ValueError("connection decomposition needs a right action")
    fo = first_order_residual(t, right)
    if fo > max(tol.rel, 1e-7):
        raise ValueError(f"first-order condition fails ({fo:.3e})")
    n = t.hilbert_dim
    eps = t.grading if t.grading is not None else np.eye(n, dtype=complex)
    ed = eps @ t.dirac
    frame = parseval_frame(right, tol)

    # column k of d_gamma is sum_x [ed, E(|e_k><x|)] x; with S = sum_x x x^*,
    # sum_x E(|e_k><x|) y_x is column k of sum_l b_l (sum_x y_x x^*) b_l^*
    s = np.transpose(frame) @ frame.conj()
    b, bh = right.basis, np.swapaxes(right.basis.conj(), 1, 2)
    d_gamma = ed @ np.sum(b @ s @ bh, axis=0) - np.sum(b @ (ed @ s) @ bh, axis=0)
    t_op = ed - d_gamma

    rep = CheckReport()
    rep.add("decomposition:remainder_coefficient_linear", commutator_residual([t_op], right.basis),
            max(tol.rel, 1e-9))
    gamma_table = [(b, ed @ b - b @ ed) for b in right.basis]
    return gamma_table, t_op, rep


def gauge_transform(t: SpectralTripleData, conn: BimoduleConnection, u_big: np.ndarray,
                    tol: Tolerance = DEFAULT_TOL):
    """Transport of (projector, potential) along a unitary over the coefficient algebra.

    Returns a new connection whose twisted operator is exactly the unitary
    conjugate of the original one.
    """
    module = conn.module
    n = module.size
    q = module.projector
    d_n = block_diag(t.dirac, n)
    q_new = u_big @ q @ adjoint(u_big)
    a_new = q_new @ (u_big @ (d_n @ adjoint(u_big) - adjoint(u_big) @ d_n)) @ q_new \
        + u_big @ twisted_operator(t, conn, tol)[1] @ adjoint(u_big)
    table = to_blocks(a_new, n).swapaxes(0, 1)
    new_module = ProjectiveModule(module.base, n, q_new)
    return BimoduleConnection(new_module, table)


def index_pairing(t: SpectralTripleData, p_proj: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> int:
    """Signed kernel dimension of the graded, projector-compressed Dirac operator."""
    if t.grading is None:
        raise ValueError("index pairing needs a grading")
    p = as_complex_matrix(p_proj)
    np_ = operator_norm(p)
    if rel_residual(p @ p - p, np_, np_) > max(tol.rel, 1e-8) or \
       rel_residual(p - adjoint(p), np_) > max(tol.rel, 1e-8):
        raise ValueError("compression by a non-projector")
    if rel_residual(p @ t.grading - t.grading @ p, np_) > max(tol.rel, 1e-8):
        raise ValueError("projector does not commute with the grading")
    u = compress_to_range(p)
    if u.shape[1] == 0:
        return 0
    g_c = adjoint(u) @ t.grading @ u
    d_c = adjoint(u) @ t.dirac @ u
    vals, vecs = herm_eig(g_c, Tolerance(rel=1e-6, rank_cut=tol.rank_cut))
    plus = vecs[:, vals > 0]
    minus = vecs[:, vals < 0]
    block = adjoint(minus) @ d_c @ plus
    if block.size == 0:
        return plus.shape[1] - minus.shape[1]
    svals = np.linalg.svd(block, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > tol.rank_cut * max(smax, 1e-300)))
    ker_plus = plus.shape[1] - rank
    ker_minus = minus.shape[1] - rank
    return int(ker_plus - ker_minus)
