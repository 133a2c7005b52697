"""Bimodule connections, twisted Dirac operators, product triples and index pairings.

A module over the right-acting coefficient algebra B is a
`modules.ProjectiveModule` whose base is the represented right action: a
projector Q on H^n whose blocks lie in the span of that action, held
factored, with the projector as its metric.  The module of a frame
x_1..x_n of that algebra (the canonical one is `modules.parseval_frame`)
has block (i, j) of Q equal to the pairing E(|x_i><x_j|) of the
conditional expectation onto it, held as its coordinates
(`AlgebraBasis.pair_coords`) against the algebra's basis.  Connection
potentials are n x n tables of operators on H constrained to the
represented one-form span; the table entry P[i][j] contributes to output
slot k as sum_j P[j][k] v_j.
Only the compression U^*(D (x) 1 + A)U of the twisted operator to the
range basis U of Q matters to the product; `_twist` builds it without
module-size operators for `product_triple` and the forward conversion,
which read Q only through `ProjectiveModule.apply` and its trace.  The
forward conversion's module also carries a rank-size factor Q = T T^*
(`ProjectiveModule.of_frame`): `apply` is then T (T^* x), and U^*(D (x) 1)U
is taken through `ProjectiveModule.range_pull_back` from the factor,
while the coordinates stay the definition of Q.  A caller's module
(`from_projector`) has no factor and is read from its coordinates, and
`product_triple` refuses one with round(Tr Q) = 0.
A caller's module passes `modules.validate_module` in the two entry points
that take one, `twisted_operator` and `product_triple`; the forward
conversion builds its own Parseval-frame module and certifies its range
basis by `convert:projector_residual`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis, _components
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    block_apply,
    commutator_residual,
    from_blocks,
    max_operator_norm,
    max_span_residual,
    operator_norm,
    pull_back,
    random_complex,
    rel_residual,
    scaled_residual,
)
from .report import CheckReport
from .triples import SpectralTripleData, first_order_residuals
from .modules import ProjectiveModule, parseval_frame, validate_module

__all__ = [
    "BimoduleConnection",
    "grassmann_connection",
    "one_form_span",
    "twisted_operator",
    "product_triple",
    "connection_condition_check",
    "connection_decomposition",
    "index_pairing",
    "compress_to_range",
]


@dataclass
class BimoduleConnection:
    module: ProjectiveModule
    potential: list | None = None  # n x n table of operators on H, or None for Grassmann


def grassmann_connection(module: ProjectiveModule) -> BimoduleConnection:
    return BimoduleConnection(module, None)


def one_form_span(dirac, alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the represented one-forms of an algebra B, the
    span of the products [D, b] b' over b, b' in B, as a (k, n, n) stack.

    That span is the right B-module generated by the commutators
    c_i = [D, b_i] of the basis.  With stored Wedderburn data
    B = w (+_k M_{n_k} (x) 1_{m_k}) w*, right multiplication by B acts on
    the columns of c_i w in component k as X (x) 1_{m_k}, so the module is
    +_k V_k (x) C^{n_k}, where V_k is spanned by the n x m_k column slices
    of the c_i w in component k: one SVD of a (dim B n_k) x (n m_k) stack
    per component.  The basis is that of each V_k in each column block of
    its component, mapped back through w*, which keeps it orthonormal.
    Without Wedderburn data (a hand-built basis) the products are stacked
    and spanned by one SVD.  Either rank is cut at rank_cut max(s_0, |D|),
    s_0 the largest singular value: the basis is orthonormal, so
    |[D, b] b'| <= 2 |D|, and a singular value below rank_cut |D| is
    roundoff, also when s_0 is (a D that commutes with B has no one-forms).
    Membership of operators xs is `max_span_residual(xs, one_form_span(...))`.
    """
    basis = alg.basis
    n = alg.hilbert_dim
    comms = dirac @ basis - basis @ dirac
    if alg.wedderburn is None:
        products = (comms[:, None] @ basis[None]).reshape(-1, n * n)
        u, s, _ = np.linalg.svd(products.T, full_matrices=False)
        keep = s > tol.rank_cut * max(float(s[0]) if s.size else 0.0, operator_norm(dirac))
        return u[:, keep].T.reshape(-1, n, n)
    comps = _components(*alg.wedderburn)
    # rows (i, a): the slice of c_i w in columns (a, :) of component k
    factors = [np.linalg.svd(np.einsum("dij,jap->daip", comms, w_k).reshape(-1, n * w_k.shape[2]),
                             full_matrices=False)[1:] for w_k in comps]
    floor = tol.rank_cut * max(max(float(s[0]) for s, _ in factors), operator_norm(dirac))
    # basis element (r, b) of component k: slice r of V_k in columns (b, :)
    return np.concatenate([np.einsum("rip,jbp->rbij",
                                     vh[s > floor].reshape(-1, n, w_k.shape[2]), w_k.conj())
                           .reshape(-1, n, n) for (s, vh), w_k in zip(factors, comps)])


def _validate_potential(t: SpectralTripleData, conn: BimoduleConnection, tol: Tolerance):
    if conn.potential is None:
        return
    module = conn.module
    n, nh = module.size, module.block_dim
    table = np.asarray(conn.potential, dtype=complex)
    if table.shape != (n, n, nh, nh):
        raise ValueError(f"potential table of shape {table.shape}, expected {(n, n, nh, nh)}")
    if not np.all(np.isfinite(table)):
        raise ValueError("matrix entries must be finite")
    span_gate, herm_gate = max(tol.rel, 1e-6), max(tol.rel, 1e-7)
    span = one_form_span(t.dirac, module.base, tol)
    worst = max_span_residual(table.reshape(-1, nh, nh), span, floor=span_gate)
    if worst > span_gate:
        raise ValueError(f"potential entries leave the one-form span (residual {worst:.3e})")
    # entry (i, j) compares p_ij^* with p_ji, relative to |p_ij|
    worst = scaled_residual(table.conj().swapaxes(-1, -2) - table.swapaxes(0, 1), table, floor=herm_gate)
    if worst > herm_gate:
        raise ValueError(f"potential violates hermiticity (residual {worst:.3e})")


def _check_module(module: ProjectiveModule, tol: Tolerance):
    """Hard error on a caller's module that fails `validate_module` (a
    projector of the wrong shape fails `ProjectiveModule.from_projector`)."""
    failed = [e.condition_id for e in validate_module(module, tol).failures()]
    if failed:
        raise ValueError("invalid twisting module: " + ", ".join(failed))


def _twist(t: SpectralTripleData, conn: BimoduleConnection, tol: Tolerance, basis):
    """(U, U^*(D (x) 1 + A)U, U^* A U) for U = basis(module), after the gate: hard
    errors on a bad potential, first-order condition or non-Hermitian result.  The
    module itself is the caller's to certify."""
    module = conn.module
    _validate_potential(t, conn, tol)
    gate = max(tol.rel, 1e-7)
    fo = max(first_order_residuals(t, module.base.basis, floor=gate))
    if fo > gate:
        raise ValueError(f"first-order condition fails for the twisting data ({fo:.3e})")
    u = basis(module)
    ahat = np.zeros((u.shape[1],) * 2, dtype=complex) if conn.potential is None else \
        adjoint(u) @ from_blocks(np.asarray(conn.potential, dtype=complex).swapaxes(0, 1)) @ u
    dhat = module.range_pull_back(u)(t.dirac) + ahat
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
    _check_module(conn.module, tol)
    _, dhat, ahat = _twist(t, conn, tol, ProjectiveModule.dense)
    return dhat, ahat


def compress_to_range(module: ProjectiveModule) -> np.ndarray:
    """Orthonormal column basis of the range of a module's projector Q: Q
    applied to a seeded probe of round(Tr Q) columns, orthonormalized by QR
    with R's diagonal made positive, so it moves continuously with Q.  With
    a factor Q = T S^* (the forward module's) the product is T (S^* probe),
    at rank size."""
    rank = int(round(module.trace()))
    probe = random_complex(np.random.default_rng(1109), (module.size * module.block_dim, rank))
    u, r = np.linalg.qr(module.apply(probe))
    return u * np.exp(1j * np.angle(np.diagonal(r)))


def product_triple(t: SpectralTripleData, conn: BimoduleConnection,
                   tol: Tolerance = DEFAULT_TOL, right_ops: list | None = None):
    """Spectral triple carried by the twisted operator d_c = U^* dhat U of
    `twisted_operator`, for U = `compress_to_range(Q)` and Q = U U^*, under
    the same gate.

    Generators, grading and optional `right_ops` (operators on H^n commuting
    with the projector) are compressed through U; the grading only when
    (1 (x) g)U = U g_c.  `product:commutators_descend` is the larger of
    |[d_c, a_c] - pull_back(U, [D, a])| / max(1, |D||a|) and the leakage
    |(1 (x) a)U - U a_c| / max(1, |a|).  `product:right_action_respects_module`
    is |[Q, c]| / max(1, |c|) over the right ops, taken at carrier size as
    the larger of |c U - U c_c| and |U^* c - c_c U^*|.  Returns (triple, U,
    report).  A module with round(Tr Q) = 0 has an empty range and is refused.
    """
    rep = CheckReport()
    _check_module(conn.module, tol)
    trace = conn.module.trace()
    if round(trace) < 1:
        raise ValueError(f"module projector has trace Tr Q = {trace:.3e}: its range is empty")
    u, d_c, _ = _twist(t, conn, tol, compress_to_range)
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
        right = np.asarray(right_ops, dtype=complex)
        right_c = adjoint(u) @ right @ u
        # |[Q, c]| is the larger of |c U - U c_c| and |U^* c - c_c U^*|, the
        # latter the norm of its adjoint c^* U - U c_c^*
        leak = np.stack([right @ u - u @ right_c,
                         right.conj().swapaxes(-1, -2) @ u - u @ right_c.conj().swapaxes(-1, -2)],
                        axis=1)
        rep.add("product:right_action_respects_module", scaled_residual(leak, right[:, None]),
                max(tol.rel, 1e-8))
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


def connection_condition_check(t: SpectralTripleData, conn: BimoduleConnection,
                               tol: Tolerance = DEFAULT_TOL,
                               sign_flip: bool = False) -> CheckReport:
    """Commutator identity for the creation maps of each frame element.

    The frame is the projector applied to each base basis element in each
    slot, Q[:, block j] b.  For each element e the commutator of
    diag(dhat, D), dhat the twisted operator of the connection, with the
    off-diagonal creation pair (even, since modules carry no grading) must
    reproduce the bounded pair assembled from the slot commutators and the
    potential; `sign_flip` deliberately breaks the adjoint block (used to
    demonstrate detection).
    """
    rep = CheckReport()
    module = conn.module
    dhat, ahat = twisted_operator(t, conn, tol)
    n, nh = module.size, module.block_dim
    q = module.dense()
    frame = [q[:, j * nh:(j + 1) * nh] @ b for j in range(n) for b in module.base.basis]
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
    gate = max(tol.rel, 1e-7)
    fo = max(first_order_residuals(t, right.basis, floor=gate))
    if fo > gate:
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


def index_pairing(t: SpectralTripleData, p_proj: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> int:
    """Index of the graded Dirac operator compressed by a projector P that
    commutes with the grading g: dim ker(PDP)_+ - dim ker(PDP)_-.

    On the finite space the odd part of PDP maps PH_+ to PH_- and has the
    same rank in both directions, so the index is dim PH_+ - dim PH_- =
    Tr(gP) whatever D is: true by construction, and returned as
    round(Tr(gP)) after the projector checks.
    """
    if t.grading is None:
        raise ValueError("index pairing needs a grading")
    p = as_complex_matrix(p_proj)
    np_ = operator_norm(p)
    if rel_residual(p @ p - p, np_, np_) > max(tol.rel, 1e-8) or \
       rel_residual(p - adjoint(p), np_) > max(tol.rel, 1e-8):
        raise ValueError("compression by a non-projector")
    if rel_residual(p @ t.grading - t.grading @ p, np_) > max(tol.rel, 1e-8):
        raise ValueError("projector does not commute with the grading")
    return int(round(float(np.trace(t.grading @ p).real)))
