"""Conversions between the spin^c and Riemannian shapes of a finite geometry,
odd/even doubling, round-trip certification and duality pairing matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraBasis, _transport_preimage, commutant, intertwiners
from .kasparov import (
    BimoduleConnection,
    _twist,
    compress_to_range,
    index_pairing,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    commutator_residual,
    from_blocks,
    max_frobenius,
    max_operator_norm,
    operator_norm,
    project_onto_span,
    projector_gap,
    pull_back,
    random_complex,
    rel_residual,
    scaled_within,
    span_basis,
    to_blocks,
    unit_floor_norms,
    within_span,
)
from .modules import ProjectiveModule, parseval_frame
from .report import CheckReport
from .tomita import grading_from_cycle, opposite_action, tomita_conjugation
from .triples import (
    HochschildChain,
    SpectralTripleData,
    carry_algebras,
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


def _refusal(prefix: str, rep: CheckReport) -> str:
    """One line naming a report's failed entries with their residuals."""
    return f"{prefix}: " + "; ".join(
        f"{e.condition_id} (residual {e.residual:.3e})" for e in rep.failures())


def spinc_to_riemannian(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL) -> ConversionResult:
    """Riemannian data carried by the module of the spin^c equivalence.

    Twists the triple by the conjugate of its own module with the Grassmann
    connection, builds the distinguished vector from a tight frame of the
    right action, the conjugation from that vector, and the grading from
    the transported orientation operator.  The output's algebra and cda are
    the source's carried through u (`triples.carry_algebras`).  Even
    declared dimension only; the explicit odd tool is `double_odd_triple`
    (`ncgeo double`).
    """
    val = validate_triple(t, tol)
    if not val.passed:
        raise ValueError(_refusal("input triple invalid", val))
    if t.declared_p % 2 == 1:
        raise ValueError(f"forward conversion needs even declared dimension, got p = "
                         f"{t.declared_p}; odd triples: double_odd_triple (ncgeo double)")
    if t.orientation_cycle is None:
        raise ValueError("conversion needs an orientation cycle")
    if t.right_action_gens is None:
        raise ValueError("conversion needs a right action")
    orep = check_orientability(t, tol, strict=not t.orientation_cycle.generalized)
    if not orep.passed:
        raise ValueError(_refusal("orientability fails", orep))
    sp, spctx = check_spinc(t, tol)
    if not sp.passed:
        blocks = spctx["block_mismatch"]
        raise ValueError(_refusal("spin^c prerequisites fail", sp) + (
            "" if blocks is None else f"; cda blocks {blocks[0]} vs right action {blocks[1]}"))

    right = t.right_algebra(tol)
    cda = t.cda(tol)
    n = t.hilbert_dim

    # tight frame for the right action; the module of the conversion is the
    # conjugate of the Hilbert space over the algebra, and block (k, j) of
    # its projector is the pairing E(|x_k><x_j|)
    xs = parseval_frame(right, tol)
    m = len(xs)
    q_big = from_blocks(right.combine(right.pair_coords(xs, xs)))

    # Q is a frame projector by construction: convert:projector_residual
    # below is its certificate, so it skips the gate of a caller's module
    conn = BimoduleConnection(ProjectiveModule(right, m, q_big))
    u, out_dirac, _ = _twist(t, conn, tol, compress_to_range)
    # the outputs are compressions through u, those of the twisted operators
    # exactly when Q = u u^*; nothing below holds without it
    off_range = projector_gap(q_big, u)
    if not off_range <= tol.rel:
        raise ValueError(f"module range basis is not that of its projector "
                         f"(convert:projector_residual {off_range:.3e})")
    rep = CheckReport()
    rep.add("convert:projector_residual", off_range, tol.rel,
            f"module size {m}, twisted space dim {u.shape[1]}")
    phi = adjoint(u) @ xs.ravel()

    chat = pull_back(u, represent_chain(t, t.orientation_cycle))
    out_gens = list(pull_back(u, t.algebra_gens))

    base = SpectralTripleData(
        hilbert_dim=u.shape[1],
        algebra_gens=out_gens,
        dirac=out_dirac,
        grading=None,
        declared_p=t.declared_p,
        orientation_cycle=HochschildChain(0, [(chat,)], generalized=True)
        if t.declared_p == 0 else None,
        riemann_vector=phi,
    )
    carried = carry_algebras(base, t, u, tol)
    out_cda = base.cda(tol)
    if out_cda.dim != base.hilbert_dim:
        raise ValueError(
            f"twisted module is not free of rank one: algebra dim {out_cda.dim} "
            f"vs space dim {base.hilbert_dim}")

    rep.add("convert:connection", 0.0, np.inf, "grassmann")

    j = tomita_conjugation(base, tol)
    eps, grep = grading_from_cycle(base, chat, j, tol)
    out = base.regraded(eps, tol)

    # source-aligned basis for round trips: source elements s_k with
    # u^* (1_m (x) s_k) u equal to basis element k of the output's own
    # stored cda, so a module over that basis needs no membership sweep
    out_basis = out.cda(tol).basis
    flat = out_basis.reshape(len(out_basis), -1)
    if carried is not None:
        # the split combines the carried closed-form basis, whose preimages
        # and their images are known
        split = flat @ carried.basis.reshape(carried.dim, -1).conj().T
        src_basis, fit = (np.tensordot(split, x, 1) for x in _transport_preimage(cda, carried, u))
    else:
        hat_cols = pull_back(u, cda.basis).reshape(cda.dim, -1).T
        coeffs, _, _, _ = np.linalg.lstsq(hat_cols, flat.T, rcond=None)
        src_basis = cda.combine(coeffs.T)
        fit = (hat_cols @ coeffs).T.reshape(out_basis.shape)
    # a Frobenius bound on |u^* (1_m (x) s_k) u - b_k|_2 / max(1, |b_k|_2)
    rep.add("convert:algebra_transport", max_frobenius(fit - out_basis),
            max(tol.rel, 1e-8), "Frobenius bound")
    rep.extend(grep, prefix="convert:")
    witness = {
        "phi": phi,
        "conjugation_kernel": j.kernel,
        "epsilon": eps,
        "orientation_image": chat,
        "module_projector": q_big,
        "module_basis": u,
        "frame": xs,
        "c_basis_out": list(out_basis),
        "c_basis_src": list(src_basis),
        "source": t,
    }

    rr, _ = check_riemannian(out, tol)
    rep.extend(rr)

    # vector-state evaluation against the source pairing on frame pairs: the
    # operator theta = sum_l b_l rho tau^* b_l^* with E(|g><tau|) rho = theta g
    # acts on the blocks w_k of u phi, and <phi, (1_m (x) theta) phi> =
    # sum_{k,l} conj(c[k, rho, l]) c[k, tau, l] for c = pair_coords(w, frame)
    pairs = xs[:min(4, m)]
    c = right.pair_coords((u @ phi).reshape(m, n), pairs)
    lhs = np.einsum("krl,ksl->rs", c.conj(), c)
    # entry [rho, tau] is <tau, rho>
    rep.add("convert:vector_state_matches_pairing",
            float(np.max(np.abs(lhs - pairs @ adjoint(pairs)))), max(tol.rel, 1e-8))

    # trace bookkeeping: compressed trace equals the source trace against the
    # diagonal part of the module projector
    diag_weight = np.trace(to_blocks(q_big, m))
    k = min(6, cda.dim)
    lhs = np.trace(pull_back(u, cda.basis[:k]), axis1=1, axis2=2)
    rhs = np.einsum("kab,ba->k", cda.basis[:k], diag_weight)
    rep.add("convert:trace_bookkeeping",
            float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))), max(tol.rel, 1e-9))

    if not rep.passed:
        fails = ", ".join(e.condition_id for e in rep.failures())
        raise ValueError(f"conversion produced a non-Riemannian triple ({fails})")
    return ConversionResult(output=out, witness=witness, report=rep)


def _backward_assembly(t: SpectralTripleData, module: CliffordModuleData,
                       tol: Tolerance = DEFAULT_TOL):
    """Assembly for the backward conversion: module projector, conjugation,
    and the identification map of the twisted space with the module
    carrier.

    Carrier pairings E(|u><v|) lie in the span of the left action, the
    carrier algebra; `source_ops[k]` is the source operator of its basis
    element k (the same combination of `algebra_basis` as of the left
    action), so a pairing with carrier coordinates c has the source
    operator sum_k c[k] source_ops[k].
    """
    cda = t.cda(tol)
    if len(module.left_action) != cda.dim:
        raise ValueError("module left action must be indexed by the algebra basis")
    if module.algebra_basis is None:
        basis_ops = cda.basis
    else:
        if len(module.algebra_basis) != len(module.left_action):
            raise ValueError("algebra basis and left action lists must correspond")
        basis_ops = np.asarray(module.algebra_basis, dtype=complex)
        # a caller's basis (read from a file, say) must lie in the cda
        if not within_span(basis_ops, cda.basis, max(tol.rel, 1e-7)):
            raise ValueError("module algebra basis leaves the Dirac-commutator algebra")
    nc = module.carrier_dim
    nh = t.hilbert_dim
    j = tomita_conjugation(t, tol)

    carrier = AlgebraBasis(nc, span_basis(module.left_action, tol))
    frame = parseval_frame(carrier, tol)
    nmod = len(frame)

    act_cols = np.asarray(module.left_action, dtype=complex).reshape(cda.dim, -1).T
    # column k: the left action coordinates of carrier basis element k
    coeffs = np.linalg.pinv(act_cols) @ carrier.basis.reshape(carrier.dim, -1).T
    fit = (act_cols @ coeffs).T.reshape(carrier.basis.shape)
    if not scaled_within(fit - carrier.basis, carrier.basis, max(tol.rel, 1e-6)):
        raise ValueError("carrier pairing value leaves the module action span")
    source_ops = np.tensordot(coeffs.T, basis_ops, axes=1)
    # the right actions of the source operators; opposite_action adjoints
    # its argument itself
    opposite = opposite_action(j, source_ops)

    # block (i, j) of the projector is the right action of (x_j | x_i), and
    # block i of column e of vmap is that of (e | x_i) applied to phi
    coords = carrier.pair_coords(frame, frame).swapaxes(0, 1)
    q_big = from_blocks(np.tensordot(coords, opposite, axes=1))
    vmap = np.einsum("eik,ka->iae", carrier.pair_coords(np.eye(nc), frame),
                     opposite @ t.riemann_vector).reshape(nmod * nh, nc)
    uq, sq, vqh = np.linalg.svd(vmap, full_matrices=False)
    if sq[-1] <= tol.rank_cut * sq[0]:
        raise ValueError("module identification is singular")

    return {
        "nc": nc, "nh": nh, "nmod": nmod, "conjugation": j,
        "carrier": carrier, "source_ops": source_ops,
        "projector": q_big, "vmap": vmap,
        "identification": uq @ vqh, "identification_svals": sq,
    }


def riemannian_to_spinc(t: SpectralTripleData, module: CliffordModuleData,
                        tol: Tolerance = DEFAULT_TOL, *,
                        _right: AlgebraBasis | None = None) -> ConversionResult:
    """Spin^c data from a Riemannian triple and an equivalence module.

    The twisted operator uses the Parseval frame of the carrier algebra
    with the Grassmann connection: the unbounded Kasparov product fixes
    the Dirac operator only up to the connection, so no potential is
    taken, and the two potential entries hold by construction and say so.
    Even declared dimension only.  The output's algebra and cda are `t`'s
    carried through V (`carry_algebras`).
    `_right`, for the round trip only, is the generated algebra of the
    module's right action generators, taken as the output's right algebra.
    """
    rr, rctx = check_riemannian(t, tol)
    if not rr.passed:
        raise ValueError(_refusal("Riemannian prerequisites fail", rr))
    if t.declared_p % 2 == 1:
        raise ValueError(f"backward conversion needs even declared dimension, got p = {t.declared_p}")
    asm = _backward_assembly(t, module, tol)
    q_big = asm["projector"]
    nmod, nh, nc = asm["nmod"], asm["nh"], asm["nc"]
    j = asm["conjugation"]
    vmap = asm["vmap"]
    v_unit = asm["identification"]

    # every output operator is the compression V^* X V through the unitarized
    # identification V; it equals V^* Q X Q V, the compression of the twisted
    # operators, exactly when Q = V V^*
    rep = CheckReport()
    rep.add("convert:module_projector", projector_gap(q_big, v_unit),
            max(tol.rel, 1e-8), f"module frame size {nmod}")

    dirac = pull_back(v_unit, t.dirac)
    details = "Grassmann connection: no potential"
    rep.add("convert:potential_in_one_form_span", 0.0, max(tol.rel, 1e-7), details)
    rep.add("convert:potential_hermitian", 0.0, max(tol.rel, 1e-8), details)
    c_op = represent_chain(t, t.orientation_cycle) if t.orientation_cycle is not None else t.grading
    grading = pull_back(v_unit, c_op)
    rep.add("convert:orientation_anticommutes",
            rel_residual(dirac @ grading + grading @ dirac,
                         operator_norm(dirac), operator_norm(grading)),
            max(tol.rel, 1e-9))

    # scalar product identity on the spanning set: entry [i, k] compares
    # <vmap e_i, vmap e_k> with psi(z theta), theta the source operator of
    # the carrier pairing (e_k | e_i)
    z_op = rctx["metric"] if rctx and rctx.get("metric") is not None else np.eye(nh, dtype=complex)
    cols = vmap[:, :min(nc, 6)]
    eye = np.eye(nc, dtype=complex)[:cols.shape[1]]
    rhs = asm["carrier"].pair_coords(eye, eye).swapaxes(0, 1) @ t.psi(z_op @ asm["source_ops"])
    worst = np.max(np.abs(adjoint(cols) @ cols - rhs) / np.maximum(1.0, np.abs(rhs)))
    rep.add("convert:scalar_product_identity", float(worst), max(tol.rel, 1e-8))

    sq = asm["identification_svals"]
    rep.add("convert:identification_condition", float(sq[0] / sq[-1]) - 1.0, 1e-6,
            "singular value spread of the module identification")

    out = SpectralTripleData(
        hilbert_dim=nc,
        algebra_gens=list(pull_back(v_unit, t.algebra_gens)),
        dirac=dirac,
        grading=grading,
        declared_p=t.declared_p,
        right_action_gens=[as_complex_matrix(b) for b in module.right_action_gens],
        orientation_cycle=HochschildChain(0, [(grading,)], generalized=True)
        if t.declared_p == 0 else None,
    )
    carry_algebras(out, t, v_unit, tol)
    if _right is not None:
        out._cache[("right", tol)] = _right
    vrep = validate_triple(out, tol)
    rep.extend(vrep)
    sp, _ = check_spinc(out, tol)
    rep.extend(sp)
    witness = {"identification": v_unit, "module_projector": q_big, "conjugation_kernel": j.kernel}
    return ConversionResult(output=out, witness=witness, report=rep)


def intertwine_triples(t1: SpectralTripleData, t2: SpectralTripleData,
                       tol: Tolerance = DEFAULT_TOL):
    """Unitary intertwiner of two triples with matching generator lists.

    The action-intertwining family is `algebra.intertwiners`: the X with
    X a1 = a2 X and X a1^* = a2^* X for corresponding generators, the
    intertwiners of the generated *-algebras.  The Dirac mismatch is
    minimized over that family, then the minimizer is unitarized.  When
    several members match the Dirac operators exactly, the choice is a
    seeded probe projected onto that exact subspace, so it does not depend
    on the family's basis.  Returns (u, report).
    """
    rep = CheckReport()
    if len(t1.algebra_gens) != len(t2.algebra_gens):
        raise ValueError("generator lists must correspond")
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim
    if n1 != n2:
        rep.add("intertwine:dimensions", 1.0, 0.5, f"{n1} vs {n2}")
        return None, rep
    a1s = np.reshape(t1.algebra_gens, (-1, n1, n1))
    a2s = np.reshape(t2.algebra_gens, (-1, n2, n2))
    basis_u = intertwiners(a1s, a2s, tol)
    if len(basis_u) == 0:
        rep.add("intertwine:action_solutions", 1.0, 0.5,
                "no solutions of the action-intertwining system" + _block_mismatch(t1, t2, tol))
        return None, rep
    rep.add("intertwine:action_solutions", 0.0, 0.5, f"family dimension {len(basis_u)}")
    cols = (basis_u @ t1.dirac - t2.dirac @ basis_u).reshape(len(basis_u), -1).T
    # the family lies in C^(n2 n1), so it has at most as many members as cols
    # has rows and every right singular vector has a singular value
    _, svals, vh = np.linalg.svd(cols, full_matrices=False)
    floor = max(tol.rank_cut * max(float(svals[0]), 1.0), 1e-300)
    exact = vh[svals <= floor].conj()
    if len(exact):
        # exact joint solutions: their span is orthonormal
        u_raw = _seeded_member(np.tensordot(exact, basis_u, 1))
    else:
        u_raw = np.tensordot(vh[-1].conj(), basis_u, 1)
    u = _unitary_part(u_raw, tol)
    if u is None:
        rep.add("intertwine:invertible", 1.0, 0.5, "minimizer is singular")
        return None, rep
    rep.add("intertwine:action_residual",
            max_operator_norm(u @ a1s - a2s @ u, unit_floor_norms(a1s)),
            max(tol.rel, 1e-10))
    dres = operator_norm(u @ t1.dirac - t2.dirac @ u)
    rep.add("intertwine:dirac_residual", dres, max(tol.rel, 1e-8))
    return u, rep


def _seeded_member(family: np.ndarray) -> np.ndarray:
    """Of seeded probes projected onto the span of an orthonormal (k, n2, n1)
    family, the best-conditioned one.  The projection does not depend on
    the family's basis, so neither does the choice."""
    k, n2, n1 = family.shape
    span = family.reshape(k, -1)
    probes = random_complex(np.random.default_rng(911), (8, n2 * n1))
    cands = ((probes @ span.conj().T) @ span).reshape(-1, n2, n1)
    sv = np.linalg.svd(cands, compute_uv=False)
    return cands[np.argmax(sv[:, -1] / sv[:, 0])]


def _unitary_part(x: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """The polar factor of a square x with its global phase fixed, or None
    when x is singular.  The phase makes Tr(u) real positive, or the largest
    entry when the trace vanishes, so a witness does not carry the arbitrary
    phase of singular vectors."""
    su, ss, svh = np.linalg.svd(x)
    if ss[-1] <= 1e-8 * ss[0]:
        return None
    u = su @ svh
    tr = np.trace(u)
    ref = tr if abs(tr) > np.sqrt(tol.rank_cut) * len(u) else u.flat[np.argmax(np.abs(u))]
    return u * (np.conj(ref) / abs(ref))


def _block_mismatch(t1: SpectralTripleData, t2: SpectralTripleData, tol: Tolerance) -> str:
    """Why two triples admit no intertwiner, when their generated *-algebras
    already differ in their Wedderburn blocks (n_k, m_k); empty otherwise."""
    data = [t.algebra(tol).wedderburn for t in (t1, t2)]
    if any(w is None for w in data):
        return ""
    blocks1, blocks2 = (sorted(w[1]) for w in data)
    if blocks1 == blocks2:
        return ""
    return f"; Wedderburn blocks (n_k, m_k) {blocks1} vs {blocks2}"


def backward_round_trip(tri: SpectralTripleData, module: CliffordModuleData,
                        source: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Backward half of a round trip: convert `tri` back with the Grassmann
    connection and certify a unitary intertwiner of the pairs (a, [D, a])
    of `source` and of the result.

    A Kasparov product fixes D only up to the connection, so what a round
    trip can recover is the algebra with [D, .]: u is the polar factor of a
    seeded member of `intertwiners(gens1 + [S, gens1], gens2 + [D2, gens2])`.
    Then k = u^* D2 u - S commutes with the source algebra A, and
    `intertwine:dirac_residual` is the part of k outside its commutant A',
    relative to |S|.  The part inside A' is what the backward Dirac
    operator does not recover; its relative norm |k| / |S| is the witness
    `commutant_part` of the backward result (None without an intertwiner),
    beside the family's dimension `pair_family_dim`.  Returns (backward
    result, intertwiner or None, intertwiner report).
    """
    # the source's right action, when the module's generators are its very
    # matrices, is the output's: generation is a function of the matrices
    gens, own = module.right_action_gens, source.right_action_gens
    same = own is not None and len(gens) == len(own) and all(map(np.array_equal, gens, own))
    backward = riemannian_to_spinc(tri, module, tol, _right=source.right_algebra(tol) if same else None)
    out = backward.output
    backward.witness.update(commutant_part=None, pair_family_dim=0)
    rep = CheckReport()
    a1s = np.asarray(source.algebra_gens)
    a2s = np.asarray(out.algebra_gens)
    if source.hilbert_dim != out.hilbert_dim:
        rep.add("intertwine:dimensions", 1.0, 0.5, f"{source.hilbert_dim} vs {out.hilbert_dim}")
        return backward, None, rep
    s, d2 = source.dirac, out.dirac
    family = intertwiners(np.concatenate([a1s, s @ a1s - a1s @ s]),
                          np.concatenate([a2s, d2 @ a2s - a2s @ d2]), tol)
    backward.witness["pair_family_dim"] = len(family)
    u = _unitary_part(_seeded_member(family), tol) if len(family) else None
    if u is None:
        rep.add("intertwine:action_solutions", 1.0, 0.5,
                "no unitary intertwiner of the algebras and their Dirac commutators"
                + _block_mismatch(source, out, tol))
        return backward, None, rep
    # u A' is the A-intertwiner family, of dimension dim A' = sum_k m_k^2
    # over the source algebra's blocks
    comm = commutant(source.algebra(tol), tol).basis
    rep.add("intertwine:action_solutions", 0.0, 0.5,
            f"dimension {len(comm)} of the A-intertwiner family")
    rep.add("intertwine:action_residual",
            max_operator_norm(u @ a1s - a2s @ u, unit_floor_norms(a1s)),
            max(tol.rel, 1e-10))
    k = adjoint(u) @ d2 @ u - s
    norm_s = operator_norm(s) or 1.0
    ratio = operator_norm(k) / norm_s
    backward.witness["commutant_part"] = ratio
    rep.add("intertwine:dirac_residual", operator_norm(k - project_onto_span(k, comm)) / norm_s,
            max(tol.rel, 1e-8),
            f"part of u* D u - S outside the commutant of the source algebra; "
            f"inside it, relative norm {ratio:.3e}")
    return backward, u, rep


def round_trip_check(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Convert to Riemannian data and back, then certify a unitary intertwiner.

    The backward conversion runs with the Grassmann connection on the
    forward output's own cda basis, and the intertwiner is certified on the
    algebras with their Dirac commutators (`backward_round_trip`).
    """
    forward = spinc_to_riemannian(t, tol)
    module = CliffordModuleData(
        carrier_dim=t.hilbert_dim,
        left_action=forward.witness["c_basis_src"],
        right_action_gens=t.right_action_gens,
    )
    backward, u, rep = backward_round_trip(forward.output, module, t, tol)
    rep.extend(forward.report, prefix="forward:")
    rep.extend(backward.report, prefix="backward:")
    return ConversionResult(output=backward.output,
                            witness={"intertwiner": u,
                                     "forward": forward,
                                     "backward": backward},
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
    ng, nw, nd = operator_norm(g2), operator_norm(omega), operator_norm(d2)
    rep.add("double:grading_anticommutes", rel_residual(g2 @ d2 + d2 @ g2, ng, nd), tol.rel)
    rep.add("double:twist_odd", rel_residual(g2 @ omega + omega @ g2, ng, nw), tol.rel)
    rep.add("double:twist_anticommutes_dirac", rel_residual(omega @ d2 + d2 @ omega, nw, nd), tol.rel)
    rep.add("double:algebra_even", commutator_residual([g2], gens), tol.rel)
    rep.add("double:twist_commutes_algebra", commutator_residual([omega], gens), tol.rel)
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
    samples the path identities at `samples` >= 1 points; endpoint
    comparisons use exact parameter values so they carry no trigonometric
    error.
    """
    if samples < 1:
        raise ValueError(f"homotopy check needs at least one sample, got {samples}")
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
        worst = max(worst, rel_residual(gt @ dt + dt @ gt, operator_norm(gt), operator_norm(dt)))
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
    if not len(left_projs) or not len(right_projs):
        raise ValueError("pairing needs at least one projector on each side")
    left_projs = [as_complex_matrix(p) for p in left_projs]
    right_projs = [as_complex_matrix(q) for q in right_projs]
    n = t.hilbert_dim
    if any(p.shape != (n, n) for p in left_projs + right_projs):
        raise ValueError(f"pairing projectors must be {n} x {n} matrices")
    worst = commutator_residual(left_projs, right_projs)
    if worst > max(tol.rel, 1e-8):
        raise ValueError("pairing projectors do not commute")
    mat = np.zeros((len(left_projs), len(right_projs)), dtype=int)
    for i, p in enumerate(left_projs):
        for j, q in enumerate(right_projs):
            mat[i, j] = index_pairing(t, p @ q, tol)
    rep.add("pairing:projectors_commute", worst, max(tol.rel, 1e-8))
    det = abs(round(float(np.linalg.det(mat.astype(float))))) if mat.shape[0] == mat.shape[1] else None
    unimodular = det == 1 if det is not None else False
    rep.add("pairing:unimodular", 0.0 if unimodular else 1.0, 0.5,
            f"|det| = {det}" if det is not None else "non-square pairing matrix")
    return mat, unimodular, rep
