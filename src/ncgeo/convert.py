"""Conversions between the spin^c and Riemannian shapes of a finite geometry,
odd/even doubling, round-trip certification and duality pairing matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraBasis
from .kasparov import (
    BimoduleConnection,
    compress_to_range,
    index_pairing,
    twisted_operator,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    block_diag,
    herm_eig,
    null_space,
    operator_norm,
    rel_residual,
    span_basis,
    span_residuals,
)
from .modules import ProjectiveModule, expectation_pairing, frame_presentation, parseval_frame
from .report import CheckReport
from .tomita import grading_from_cycle, opposite_action, tomita_conjugation
from .triples import (
    HochschildChain,
    SpectralTripleData,
    check_orientability,
    check_riemannian,
    check_spinc,
    represent_chain,
    validate_triple,
)

__all__ = [
    "ConversionResult",
    "CliffordModuleData",
    "spinc_to_riemannian",
    "riemannian_to_spinc",
    "backward_round_trip",
    "round_trip_check",
    "intertwine_triples",
    "double_odd_triple",
    "appendix_equivalence_check",
    "split_by_central_involution",
    "poincare_pairing_matrix",
]


@dataclass
class ConversionResult:
    output: SpectralTripleData
    witness: dict = field(default_factory=dict)
    report: CheckReport = field(default_factory=CheckReport)


@dataclass
class CliffordModuleData:
    """Equivalence bimodule data for the Riemannian-to-spin^c conversion.

    `left_action[k]` is the operator on the carrier representing the
    algebra element `algebra_basis[k]` (an operator on the triple's
    space); the right action generators commute with the left action.
    When `algebra_basis` is omitted it defaults to the basis of the
    triple's Dirac-commutator algebra in its stored order.
    """

    carrier_dim: int
    left_action: list
    right_action_gens: list
    algebra_basis: list | None = None


def _block_stack(vectors):
    return np.concatenate([np.asarray(v, dtype=complex).ravel() for v in vectors])


def spinc_to_riemannian(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL,
                        potential: list | None = None) -> ConversionResult:
    """Riemannian data carried by the module of the spin^c equivalence.

    Twists the triple by the conjugate of its own module, builds the
    distinguished vector from a tight frame of the right action, the
    conjugation from that vector, and the grading from the transported
    orientation operator.
    """
    val = validate_triple(t, tol)
    if not val.passed:
        raise ValueError("input triple invalid:\n" + val.as_text())
    if t.orientation_cycle is None:
        raise ValueError("conversion needs an orientation cycle")
    orep = check_orientability(t, tol, strict=not t.orientation_cycle.generalized)
    if not orep.passed:
        raise ValueError("orientability fails:\n" + "\n".join(
            f"{e.condition_id}: {e.residual:.3e}" for e in orep.failures()))
    sp, spctx = check_spinc(t, tol)
    if not sp.passed:
        raise ValueError("spin^c prerequisites fail:\n" + "\n".join(
            f"{e.condition_id} (residual {e.residual:.3e}) {e.details}" for e in sp.failures()))

    odd = t.declared_p % 2 == 1
    right = t.right_algebra(tol)
    cda = t.cda(tol)
    n = t.hilbert_dim

    # tight frame for the right action; the module of the conversion is the
    # conjugate of the Hilbert space over the algebra
    xs = parseval_frame(right, tol)
    m = len(xs)
    pair = expectation_pairing(right)
    # right action of the conjugate module: x . b = b^* x
    q_big, _, _ = frame_presentation(xs, xs, pair, lambda x, b: adjoint(b) @ x, [], tol)

    module = ProjectiveModule(right, m, q_big)
    conn = BimoduleConnection(module, potential)
    dhat, ahat = twisted_operator(t, conn, tol)
    u = compress_to_range(q_big, tol)

    def comp(x):
        return adjoint(u) @ x @ u

    phi_big = _block_stack(xs)
    phi = adjoint(u) @ phi_big

    c_src = represent_chain(t, t.orientation_cycle)
    chat = comp(block_diag(c_src, m))
    out_gens = [comp(block_diag(a, m)) for a in t.algebra_gens]
    out_dirac = comp(dhat)

    base = SpectralTripleData(
        hilbert_dim=u.shape[1],
        algebra_gens=out_gens,
        dirac=out_dirac,
        grading=None,
        declared_p=t.declared_p,
    )
    out_cda = base.cda(tol)
    if out_cda.dim != base.hilbert_dim:
        raise ValueError(
            f"twisted module is not free of rank one: algebra dim {out_cda.dim} "
            f"vs space dim {base.hilbert_dim}")

    rep = CheckReport()
    rep.add("convert:projector_residual",
            rel_residual(q_big @ q_big - q_big, operator_norm(q_big)), tol.rel,
            f"module size {m}, twisted space dim {u.shape[1]}")
    rep.add("convert:connection", 0.0, np.inf,
            "grassmann" if potential is None else "user potential")

    # source-aligned basis of the new algebra for round trips
    hat_images = [comp(block_diag(w, m)) for w in cda.basis]
    hat_cols = np.stack([h.ravel() for h in hat_images], axis=1)
    coeffs = []
    worst = 0.0
    for w in out_cda.basis:
        c, _, _, _ = np.linalg.lstsq(hat_cols, w.ravel(), rcond=None)
        coeffs.append(c)
        worst = max(worst, rel_residual((hat_cols @ c).reshape(w.shape) - w, operator_norm(w)))
    rep.add("convert:algebra_transport", worst, max(tol.rel, 1e-8))
    src_basis = [cda.combine(c) for c in coeffs]

    if not odd:
        tri = SpectralTripleData(
            hilbert_dim=base.hilbert_dim,
            algebra_gens=out_gens,
            dirac=out_dirac,
            grading=None,
            declared_p=t.declared_p,
            riemann_vector=phi,
        )
        tri._cache[("cda", tol)] = out_cda
        j = tomita_conjugation(tri, phi, tol)
        eps, grep = grading_from_cycle(tri, chat, j, tol)
        rep.extend(grep, prefix="convert:")
        out = SpectralTripleData(
            hilbert_dim=base.hilbert_dim,
            algebra_gens=out_gens,
            dirac=out_dirac,
            grading=eps,
            declared_p=t.declared_p,
            orientation_cycle=HochschildChain(0, [(chat,)], generalized=True)
            if t.declared_p == 0 else None,
            riemann_vector=phi,
        )
        out._cache[("cda", tol)] = out_cda
        witness = {
            "phi": phi,
            "conjugation_kernel": j.kernel,
            "epsilon": eps,
            "orientation_image": chat,
            "module_projector": q_big,
            "module_basis": u,
            "frame": xs,
            "c_basis_out": list(out_cda.basis),
            "c_basis_src": src_basis,
            "source": t,
        }
    else:
        # odd input: double the product data into an even graded block form
        dim = base.hilbert_dim
        zero = np.zeros((dim, dim), dtype=complex)
        ddbl = np.block([[out_dirac, zero], [zero, -out_dirac]])
        gens_dbl = [np.block([[g, zero], [zero, g]]) for g in out_gens]
        chat_dbl = np.block([[chat, zero], [zero, -chat]])
        phi_dbl = np.concatenate([phi, phi]) / np.sqrt(2.0)
        tri = SpectralTripleData(
            hilbert_dim=2 * dim,
            algebra_gens=gens_dbl + [np.block([[zero, -1j * np.eye(dim)], [1j * np.eye(dim), zero]])],
            dirac=ddbl,
            declared_p=t.declared_p,
            riemann_vector=phi_dbl,
        )
        j = tomita_conjugation(tri, phi_dbl, tol)
        eps = chat_dbl @ j.conjugate(chat_dbl)
        rep.add("convert:odd_grading_anticommutes",
                rel_residual(eps @ ddbl + ddbl @ eps, operator_norm(ddbl)), max(tol.rel, 1e-9))
        out = SpectralTripleData(
            hilbert_dim=2 * dim,
            algebra_gens=gens_dbl,
            dirac=ddbl,
            grading=eps,
            declared_p=t.declared_p,
            riemann_vector=phi_dbl,
        )
        witness = {
            "phi": phi_dbl,
            "conjugation_kernel": j.kernel,
            "epsilon": eps,
            "orientation_image": chat_dbl,
            "module_projector": q_big,
            "module_basis": u,
            "frame": xs,
            "c_basis_out": None,
            "c_basis_src": None,
            "source": t,
        }

    rr, _ = check_riemannian(out, tol)
    rep.extend(rr)

    # vector-state evaluation against the source pairing on frame pairs
    worst = 0.0
    for rho in xs[: min(4, m)]:
        for tau in xs[: min(4, m)]:
            theta = np.zeros((n, n), dtype=complex)
            for k in range(n):
                basis_k = np.zeros(n, dtype=complex)
                basis_k[k] = 1.0
                theta[:, k] = pair(basis_k, tau) @ rho
            theta_hat = comp(block_diag(theta, m))
            if odd:
                z = np.zeros_like(theta_hat)
                theta_hat = np.block([[theta_hat, z], [z, theta_hat]])
            lhs = complex(np.vdot(witness["phi"], theta_hat @ witness["phi"]))
            rhs = complex(np.vdot(tau, rho))
            worst = max(worst, abs(lhs - rhs))
    rep.add("convert:vector_state_matches_pairing", worst, max(tol.rel, 1e-8))

    # trace bookkeeping: compressed trace equals the source trace against the
    # diagonal part of the module projector
    diag_weight = sum(q_big[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(m))
    worst = 0.0
    for w in cda.basis[: min(6, cda.dim)]:
        lhs = complex(np.trace(comp(block_diag(w, m))))
        rhs = complex(np.trace(w @ diag_weight))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    rep.add("convert:trace_bookkeeping", worst, max(tol.rel, 1e-9))

    if not rep.passed:
        fails = ", ".join(e.condition_id for e in rep.failures())
        raise ValueError(f"conversion produced a non-Riemannian triple ({fails})")
    return ConversionResult(output=out, witness=witness, report=rep)


def _backward_assembly(t: SpectralTripleData, module: CliffordModuleData,
                       tol: Tolerance = DEFAULT_TOL):
    """Shared assembly for the backward conversion: module projector,
    conjugation, and the identification map of the twisted space with the
    module carrier."""
    cda = t.cda(tol)
    if len(module.left_action) != cda.dim:
        raise ValueError("module left action must be indexed by the algebra basis")
    basis_ops = module.algebra_basis if module.algebra_basis is not None else list(cda.basis)
    if len(basis_ops) != len(module.left_action):
        raise ValueError("algebra basis and left action lists must correspond")
    worst = max(cda.membership_residual(as_complex_matrix(w)) for w in basis_ops)
    if worst > max(tol.rel, 1e-7):
        raise ValueError("module algebra basis leaves the Dirac-commutator algebra")
    nc = module.carrier_dim
    nh = t.hilbert_dim
    j = tomita_conjugation(t, t.riemann_vector, tol)

    carrier_alg = AlgebraBasis(nc, span_basis(module.left_action, tol))
    frame = parseval_frame(carrier_alg, tol)
    nmod = len(frame)
    carrier_pair = expectation_pairing(carrier_alg)

    act_cols = np.stack([as_complex_matrix(x).ravel() for x in module.left_action], axis=1)
    act_pinv = np.linalg.pinv(act_cols)
    basis_stack = np.stack([as_complex_matrix(w).ravel() for w in basis_ops], axis=1)

    def to_source_op(carrier_op):
        c = act_pinv @ carrier_op.ravel()
        resid = rel_residual((act_cols @ c).reshape(nc, nc) - carrier_op, operator_norm(carrier_op))
        if resid > max(tol.rel, 1e-6):
            raise ValueError("carrier pairing value leaves the module action span")
        return (basis_stack @ c).reshape(nh, nh)

    def frame_pair(u, v):
        # the right action of the carrier pairing (v | u); opposite_action
        # adjoints its argument itself
        return opposite_action(j, to_source_op(carrier_pair(v, u)))

    # no probes, so the right action is never called
    q_big, to_coords, _ = frame_presentation(frame, frame, frame_pair, None, [], tol)
    phi = t.riemann_vector
    vmap = np.stack([to_coords(e) @ phi for e in np.eye(nc, dtype=complex)], axis=1)
    uq, sq, vqh = np.linalg.svd(vmap, full_matrices=False)
    if sq[-1] <= tol.rank_cut * sq[0]:
        raise ValueError("module identification is singular")

    return {
        "nc": nc, "nh": nh, "nmod": nmod, "conjugation": j,
        "carrier_pair": carrier_pair, "to_source_op": to_source_op,
        "projector": q_big, "vmap": vmap,
        "identification": uq @ vqh, "identification_svals": sq,
    }


def one_form_span_opposite(t: SpectralTripleData, j, tol: Tolerance = DEFAULT_TOL):
    """Represented one-form span of the conjugation-induced right action."""
    cda = t.cda(tol)
    ops = [opposite_action(j, w) for w in cda.basis]
    mats = []
    for b in ops:
        c1 = t.dirac @ b - b @ t.dirac
        for b2 in ops:
            mats.append(c1 @ b2)
    return span_basis(mats, tol)


def riemannian_to_spinc(t: SpectralTripleData, module: CliffordModuleData,
                        tol: Tolerance = DEFAULT_TOL,
                        potential: np.ndarray | None = None) -> ConversionResult:
    """Spin^c data from a Riemannian triple and an equivalence module.

    The twisted operator uses the module frame presentation with an
    optional connection potential (a block operator whose entries must lie
    in the represented one-form span of the conjugation-induced right
    action).  Even declared dimension only; the odd splitting is available
    through `split_by_central_involution` on explicitly assembled block
    data.
    """
    rctx = _backward_prerequisites(t, tol)
    return _riemannian_to_spinc(t, module, _backward_assembly(t, module, tol), rctx, tol, potential)


def _backward_prerequisites(t: SpectralTripleData, tol: Tolerance) -> dict:
    """Context of the Riemannian check of a backward input; raises if it fails."""
    rr, rctx = check_riemannian(t, tol)
    if not rr.passed:
        raise ValueError("Riemannian prerequisites fail:\n" + "\n".join(
            f"{e.condition_id} (residual {e.residual:.3e})" for e in rr.failures()))
    if t.declared_p % 2 == 1:
        raise ValueError("odd conversion requires the explicit central splitting helper")
    return rctx


def _riemannian_to_spinc(t: SpectralTripleData, module: CliffordModuleData, asm: dict,
                         rctx: dict, tol: Tolerance, potential) -> ConversionResult:
    q_big = asm["projector"]
    nmod, nh, nc = asm["nmod"], asm["nh"], asm["nc"]
    j = asm["conjugation"]
    to_source_op = asm["to_source_op"]
    carrier_pair = asm["carrier_pair"]
    vmap = asm["vmap"]

    rep = CheckReport()
    nq = operator_norm(q_big)
    rep.add("convert:module_projector",
            max(rel_residual(q_big @ q_big - q_big, nq), rel_residual(q_big - adjoint(q_big), nq)),
            max(tol.rel, 1e-8), f"module frame size {nmod}")

    d_big = block_diag(t.dirac, nmod)
    pot_big = np.zeros_like(d_big)
    if potential is not None:
        pot_big = as_complex_matrix(potential)
        if pot_big.shape != d_big.shape:
            raise ValueError("potential shape does not match the module presentation")
        span = one_form_span_opposite(t, j, tol)
        # block (k, jj) of the potential is blocks[k * nmod + jj]
        blocks = pot_big.reshape(nmod, nh, nmod, nh).swapaxes(1, 2).reshape(-1, nh, nh)
        worst = float(np.max(span_residuals(blocks, span)))
        rep.add("convert:potential_in_one_form_span", worst, max(tol.rel, 1e-7))
        rep.add("convert:potential_hermitian",
                rel_residual(pot_big - adjoint(pot_big), operator_norm(pot_big)),
                max(tol.rel, 1e-8))
    dhat = q_big @ (d_big + pot_big) @ q_big
    if t.orientation_cycle is not None:
        c_op = represent_chain(t, t.orientation_cycle)
    else:
        c_op = t.grading
    chat = q_big @ block_diag(c_op, nmod) @ q_big
    rep.add("convert:orientation_anticommutes",
            rel_residual(dhat @ chat + chat @ dhat, operator_norm(dhat), operator_norm(chat)),
            max(tol.rel, 1e-9))

    # scalar product identity on the spanning set
    z_op = rctx["metric"] if rctx and rctx.get("metric") is not None else np.eye(nh, dtype=complex)
    worst = 0.0
    basis_c = np.eye(nc, dtype=complex)
    for i in range(min(nc, 6)):
        for k in range(min(nc, 6)):
            lhs = complex(np.vdot(vmap[:, i], vmap[:, k]))
            theta = to_source_op(carrier_pair(basis_c[k], basis_c[i]))
            rhs = t.psi(z_op @ theta)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    rep.add("convert:scalar_product_identity", worst, max(tol.rel, 1e-8))

    # transport everything to the carrier through the unitarized identification
    v_unit, sq = asm["identification"], asm["identification_svals"]
    rep.add("convert:identification_condition", float(sq[0] / sq[-1]) - 1.0, 1e-6,
            "singular value spread of the module identification")

    def pull(x):
        return adjoint(v_unit) @ x @ v_unit

    out = SpectralTripleData(
        hilbert_dim=nc,
        algebra_gens=[pull(block_diag(a, nmod)) for a in t.algebra_gens],
        dirac=pull(dhat),
        grading=pull(chat),
        declared_p=t.declared_p,
        right_action_gens=[as_complex_matrix(b) for b in module.right_action_gens],
        orientation_cycle=HochschildChain(0, [(pull(chat),)], generalized=True)
        if t.declared_p == 0 else None,
    )
    vrep = validate_triple(out, tol)
    rep.extend(vrep)
    sp, _ = check_spinc(out, tol)
    rep.extend(sp)
    witness = {"identification": v_unit, "module_projector": q_big, "conjugation_kernel": j.kernel}
    return ConversionResult(output=out, witness=witness, report=rep)


def intertwine_triples(t1: SpectralTripleData, t2: SpectralTripleData,
                       tol: Tolerance = DEFAULT_TOL):
    """Unitary intertwiner of two triples with matching generator lists.

    Solves the action-intertwining equations, minimizes the Dirac mismatch
    over that family, then unitarizes.  Returns (u, report).
    """
    rep = CheckReport()
    if len(t1.algebra_gens) != len(t2.algebra_gens):
        raise ValueError("generator lists must correspond")
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim
    if n1 != n2:
        rep.add("intertwine:dimensions", 1.0, 0.5, f"{n1} vs {n2}")
        return None, rep
    eye1 = np.eye(n1, dtype=complex)
    eye2 = np.eye(n2, dtype=complex)
    maps = []
    for a1, a2 in zip(t1.algebra_gens, t2.algebra_gens):
        maps.append(np.kron(eye2, a1.T) - np.kron(a2, eye1))
    stacked = np.vstack(maps)
    kern = null_space(stacked, tol)
    if not kern:
        rep.add("intertwine:action_solutions", 1.0, 0.5,
                "no solutions of the action-intertwining system")
        return None, rep
    rep.add("intertwine:action_solutions", 0.0, 0.5, f"family dimension {len(kern)}")
    basis_u = [k.reshape(n2, n1) for k in kern]
    cols = np.stack([(u @ t1.dirac - t2.dirac @ u).ravel() for u in basis_u], axis=1)
    _, svals, vh = np.linalg.svd(cols, full_matrices=False)
    floor = max(tol.rank_cut * max(float(svals[0]), 1.0), 1e-300)
    exact = [vh[k].conj() for k in range(len(svals)) if svals[k] <= floor]
    exact += [vh[k].conj() for k in range(len(svals), len(basis_u))]
    if exact:
        # exact joint solutions: pick a seeded generic, well-conditioned one
        rng = np.random.default_rng(911)
        best, best_sv = None, -1.0
        for _ in range(8):
            coeff = rng.standard_normal(len(exact)) + 1j * rng.standard_normal(len(exact))
            cand = sum(c * sum(x[i] * basis_u[i] for i in range(len(basis_u)))
                       for c, x in zip(coeff, exact))
            sv = np.linalg.svd(cand, compute_uv=False)
            if sv[-1] / sv[0] > best_sv:
                best, best_sv = cand, sv[-1] / sv[0]
        u_raw = best
    else:
        coeff = vh[-1].conj()
        u_raw = sum(c * u for c, u in zip(coeff, basis_u))
    su, ss, svh = np.linalg.svd(u_raw)
    if ss[-1] <= 1e-8 * ss[0]:
        rep.add("intertwine:invertible", 1.0, 0.5, "minimizer is singular")
        return None, rep
    u = su @ svh
    worst = 0.0
    for a1, a2 in zip(t1.algebra_gens, t2.algebra_gens):
        worst = max(worst, operator_norm(u @ a1 - a2 @ u) / max(1.0, operator_norm(a1)))
    rep.add("intertwine:action_residual", worst, max(tol.rel, 1e-10))
    dres = operator_norm(u @ t1.dirac - t2.dirac @ u)
    rep.add("intertwine:dirac_residual", dres, max(tol.rel, 1e-8))
    return u, rep


def derived_backward_potential(tri: SpectralTripleData, module: CliffordModuleData,
                               source_dirac: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Connection potential of the module making the backward twist undo the
    forward one.

    The potential is the compression of the mismatch between the source
    Dirac operator (transported through the module identification) and the
    bare frame twist; its entries land in the represented one-form span,
    which is verified downstream and certifies that this is a compatible
    connection rather than an arbitrary correction.
    """
    return _backward_potential(tri, _backward_assembly(tri, module, tol), source_dirac)


def _backward_potential(tri: SpectralTripleData, asm: dict, source_dirac) -> np.ndarray:
    q_big = asm["projector"]
    v_unit = asm["identification"]
    d_plain = q_big @ block_diag(tri.dirac, asm["nmod"]) @ q_big
    target = v_unit @ as_complex_matrix(source_dirac) @ adjoint(v_unit)
    w = q_big @ (target - d_plain) @ q_big
    return (w + adjoint(w)) / 2.0


def backward_round_trip(tri: SpectralTripleData, module: CliffordModuleData,
                        source: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Backward half of a round trip: convert `tri` back with the derived
    potential and intertwine the result with `source`.

    One backward assembly (and Tomita conjugation) serves the potential and
    the conversion.  Returns (backward result, potential, intertwiner or
    None, intertwiner report).
    """
    rctx = _backward_prerequisites(tri, tol)
    asm = _backward_assembly(tri, module, tol)
    pot = _backward_potential(tri, asm, source.dirac)
    backward = _riemannian_to_spinc(tri, module, asm, rctx, tol, pot)
    u, rep = intertwine_triples(source, backward.output, tol)
    return backward, pot, u, rep


def round_trip_check(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Convert to Riemannian data and back, then certify a unitary intertwiner.

    The backward conversion is run with the connection derived from the
    module identification; the potential's membership in the represented
    one-form span is part of the certified report.
    """
    forward = spinc_to_riemannian(t, tol)
    tri = forward.output
    module = CliffordModuleData(
        carrier_dim=t.hilbert_dim,
        left_action=forward.witness["c_basis_src"],
        right_action_gens=t.right_action_gens,
        algebra_basis=forward.witness["c_basis_out"],
    )
    backward, pot, u, rep = backward_round_trip(tri, module, t, tol)
    rep.extend(forward.report, prefix="forward:")
    rep.extend(backward.report, prefix="backward:")
    return ConversionResult(output=backward.output,
                            witness={"intertwiner": u,
                                     "forward": forward,
                                     "backward": backward,
                                     "potential": pot},
                            report=rep)


def double_odd_triple(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Even graded double of an ungraded triple with its order-two twist generator.

    Returns (doubled triple, report); the twist generator is appended to the
    doubled algebra generators as its last element.
    """
    if t.grading is not None:
        raise ValueError("input triple is already graded")
    n = t.hilbert_dim
    zero = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    d2 = np.block([[t.dirac, zero], [zero, -t.dirac]])
    g2 = np.block([[zero, eye], [eye, zero]])
    omega = np.block([[zero, -1j * eye], [1j * eye, zero]])
    gens = [np.block([[a, zero], [zero, a]]) for a in t.algebra_gens]
    rep = CheckReport()
    rep.add("double:grading_involution", rel_residual(g2 @ g2 - np.eye(2 * n), 1.0), tol.rel)
    rep.add("double:grading_anticommutes", rel_residual(g2 @ d2 + d2 @ g2, operator_norm(d2)), tol.rel)
    rep.add("double:twist_odd", rel_residual(g2 @ omega + omega @ g2, 1.0), tol.rel)
    rep.add("double:twist_anticommutes_dirac",
            rel_residual(omega @ d2 + d2 @ omega, operator_norm(d2)), tol.rel)
    worst = max(rel_residual(g2 @ a - a @ g2, operator_norm(a)) for a in gens) if gens else 0.0
    rep.add("double:algebra_even", worst, tol.rel)
    worst = max(rel_residual(omega @ a - a @ omega, operator_norm(a)) for a in gens) if gens else 0.0
    rep.add("double:twist_commutes_algebra", worst, tol.rel)
    out = SpectralTripleData(
        hilbert_dim=2 * n,
        algebra_gens=gens + [omega],
        dirac=d2,
        grading=g2,
        declared_p=t.declared_p,
    )
    if not rep.passed:
        raise ValueError("doubling failed:\n" + rep.as_text())
    return out, rep


def appendix_equivalence_check(t: SpectralTripleData, samples: int = 10,
                               tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Equivalence of the two standard even doublings of an ungraded triple.

    Conjugates the off-diagonal representative onto the homotopy path and
    samples the path identities; endpoint comparisons use exact parameter
    values so they carry no trigonometric error.
    """
    rep = CheckReport()
    n = t.hilbert_dim
    d = t.dirac
    zero = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    d_second = np.block([[zero, -1j * d], [1j * d, zero]])
    u = np.block([[eye, zero], [zero, 1j * eye]])
    d_third = np.block([[zero, -d], [-d, zero]])
    conj = u @ d_second @ adjoint(u)
    rep.add("appendix:conjugation_exact", float(np.max(np.abs(conj - d_third))), 0.0,
            "entrywise exact")

    def path(s, c):
        dt = np.block([[d * s, -d * c], [-d * c, -d * s]])
        gt = np.block([[eye * c, eye * s], [eye * s, -eye * c]])
        return dt, gt

    worst = 0.0
    for k in range(samples):
        tk = (np.pi / 2.0) * (k + 0.5) / samples
        dt, gt = path(np.sin(tk), np.cos(tk))
        worst = max(worst, rel_residual(gt @ gt - np.eye(2 * n), 1.0))
        worst = max(worst, rel_residual(gt - adjoint(gt), 1.0))
        worst = max(worst, rel_residual(gt @ dt + dt @ gt, operator_norm(d)))
        worst = max(worst, rel_residual(dt - adjoint(dt), operator_norm(d)))
    rep.add("appendix:homotopy_identities", worst, 1e-12, f"{samples} samples")

    d0, g0 = path(0.0, 1.0)
    d1, g1 = path(1.0, 0.0)
    gamma_second = np.block([[eye, zero], [zero, -eye]])
    d_prime = np.block([[d, zero], [zero, -d]])
    gamma_prime = np.block([[zero, eye], [eye, zero]])
    end = max(
        float(np.max(np.abs(d0 - d_third))),
        float(np.max(np.abs(g0 - gamma_second))),
        float(np.max(np.abs(d1 - d_prime))),
        float(np.max(np.abs(g1 - gamma_prime))),
    )
    rep.add("appendix:endpoints_exact", end, 0.0, "algebraic endpoint match")
    return rep


def split_by_central_involution(dhat: np.ndarray, c_op: np.ndarray, eps_op: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL):
    """Block extraction for an operator commuting with a central involution.

    Verifies that the grading swaps the two eigenspaces of the involution
    and that the operator is diag(d_plus, -d_plus) in an adapted basis;
    returns (d_plus, basis_plus, report).
    """
    rep = CheckReport()
    c_op = as_complex_matrix(c_op)
    dhat = as_complex_matrix(dhat)
    eps_op = as_complex_matrix(eps_op)
    nd = operator_norm(dhat)
    rep.add("split:operator_commutes", rel_residual(dhat @ c_op - c_op @ dhat, nd), tol.rel)
    rep.add("split:grading_swaps", rel_residual(eps_op @ c_op + c_op @ eps_op, 1.0), tol.rel)
    vals, vecs = herm_eig((c_op + adjoint(c_op)) / 2.0, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
    plus = vecs[:, vals > 0]
    minus = vecs[:, vals < 0]
    if plus.shape[1] != minus.shape[1]:
        raise ValueError("central involution has unbalanced eigenspaces")
    # the grading carries the plus eigenbasis onto an orthonormal basis of the
    # minus eigenspace; using it directly keeps the swap the identity block
    minus_aligned = eps_op @ plus
    d_plus = adjoint(plus) @ dhat @ plus
    d_minus = adjoint(minus_aligned) @ dhat @ minus_aligned
    rep.add("split:block_opposite", rel_residual(d_plus + d_minus, nd), max(tol.rel, 1e-9))
    cross = adjoint(minus_aligned) @ dhat @ plus
    rep.add("split:off_diagonal_vanishes", rel_residual(cross, nd), max(tol.rel, 1e-9))
    basis = np.hstack([plus, minus_aligned])
    reassembled = adjoint(basis) @ dhat @ basis
    target = np.block([[d_plus, np.zeros_like(d_plus)], [np.zeros_like(d_plus), -d_plus]])
    rep.add("split:reassembly", rel_residual(reassembled - target, nd), max(tol.rel, 1e-9))
    return d_plus, plus, rep


def poincare_pairing_matrix(t: SpectralTripleData, left_projs: list, right_projs: list,
                            tol: Tolerance = DEFAULT_TOL):
    """Matrix of index pairings against projector generators on both sides.

    Entry (i, j) is the index of the triple compressed by the product of
    the i-th left and j-th right projector; returns (integer matrix,
    unimodular flag, report).
    """
    rep = CheckReport()
    if t.grading is None:
        raise ValueError("pairing needs a graded triple")
    mat = np.zeros((len(left_projs), len(right_projs)), dtype=int)
    worst = 0.0
    for i, p in enumerate(left_projs):
        p = as_complex_matrix(p)
        for j, q in enumerate(right_projs):
            q = as_complex_matrix(q)
            worst = max(worst, rel_residual(p @ q - q @ p, operator_norm(p), operator_norm(q)))
            if worst > max(tol.rel, 1e-8):
                raise ValueError("pairing projectors do not commute")
            mat[i, j] = index_pairing(t, p @ q, tol)
    rep.add("pairing:projectors_commute", worst, max(tol.rel, 1e-8))
    det = abs(round(float(np.linalg.det(mat.astype(float))))) if mat.shape[0] == mat.shape[1] else None
    unimodular = det == 1 if det is not None else False
    rep.add("pairing:unimodular", 0.0 if unimodular else 1.0, 0.5,
            f"|det| = {det}" if det is not None else "non-square pairing matrix")
    return mat, unimodular, rep
