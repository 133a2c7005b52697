"""Spectral triple data and the condition checkers.

The state functional defaults to the ordinary (unnormalized) trace; a
density operator can be supplied to weight it.  The declared dimension p
only enters sign rules and the zeta diagnostics.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    AlgebraBasis,
    _clusters,
    center,
    commutant,
    generate_algebra,
    graded_split,
    transport_algebra,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    commutator_residual,
    commutators_within,
    herm_abs,
    herm_eig,
    max_operator_norm,
    null_space,
    operator_norm,
    rel_residual,
    span_basis,
    span_coords,
)
from .modules import _closed_form_morita, _commutant_sweep, parseval_frame
from .report import CheckReport

__all__ = [
    "SpectralTripleData",
    "HochschildChain",
    "validate_triple",
    "commutator_algebra",
    "carry_algebras",
    "represent_chain",
    "hochschild_boundary",
    "chain_mul",
    "chain_coefficient_norm",
    "check_orientability",
    "fit_orientation_cycle",
    "check_first_order",
    "first_order_residuals",
    "first_order_within",
    "check_finiteness",
    "check_spinc",
    "check_riemannian",
    "check_extras",
    "zeta_diagnostic",
    "run_condition_suite",
]


@dataclass
class HochschildChain:
    degree: int
    terms: list  # list of (degree+1)-tuples of matrices
    generalized: bool = False

    def __post_init__(self):
        self.terms = [tuple(as_complex_matrix(m) for m in t) for t in self.terms]
        for t in self.terms:
            if len(t) != self.degree + 1:
                raise ValueError("chain term arity does not match the degree")


@dataclass
class SpectralTripleData:
    hilbert_dim: int
    algebra_gens: list
    dirac: np.ndarray
    grading: np.ndarray | None = None
    declared_p: int = 0
    right_action_gens: list | None = None
    orientation_cycle: HochschildChain | None = None
    riemann_vector: np.ndarray | None = None
    state: np.ndarray | None = None
    # derived algebras, the Tomita conjugation and the Riemannian report;
    # `dataclasses.replace` starts a copy with an empty one
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        """The one shape gate of a triple: raises a ValueError naming the
        field that is not n x n (an operator), not of length n (phi), empty
        (a generator list) or not a non-negative int (p)."""
        n = self.hilbert_dim
        p = self.declared_p
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"p must be a non-negative integer, got {p!r}")
        if not len(self.algebra_gens):
            raise ValueError("algebra has no generator")
        if self.right_action_gens is not None and not len(self.right_action_gens):
            raise ValueError("right action is given with no generator")
        self.algebra_gens = [_square(g, n, "algebra generator") for g in self.algebra_gens]
        self.dirac = _square(self.dirac, n, "dirac")
        if self.grading is not None:
            self.grading = _square(self.grading, n, "grading")
        if self.right_action_gens is not None:
            self.right_action_gens = [_square(g, n, "right action generator")
                                      for g in self.right_action_gens]
        if self.orientation_cycle is not None:
            for term in self.orientation_cycle.terms:
                for leg in term:
                    _square(leg, n, "cycle leg")
        if self.riemann_vector is not None:
            self.riemann_vector = np.asarray(self.riemann_vector, dtype=complex).ravel()
            if self.riemann_vector.shape != (n,):
                raise ValueError(f"phi has length {len(self.riemann_vector)} "
                                 f"but hilbert_dim is {n}")
        if self.state is not None:
            self.state = _square(self.state, n, "state")

    # -- state functional -------------------------------------------------
    def psi(self, x):
        """Tr(state x), or Tr(x) without a state; a stack of matrices gives
        one value per matrix."""
        return np.trace(_weighted(self, x), axis1=-2, axis2=-1)

    # -- cached derived algebras ------------------------------------------
    # keyed on the whole tolerance: the cda depends on rel through graded_split
    def algebra(self, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
        key = ("algebra", tol)
        if key not in self._cache:
            self._cache[key] = generate_algebra(self.algebra_gens, tol=tol)
        return self._cache[key]

    def commutators(self):
        d = self.dirac
        return [d @ a - a @ d for a in self.algebra_gens]

    def cda(self, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
        key = ("cda", tol)
        if key not in self._cache:
            self._cache[key] = commutator_algebra(self, tol)
        return self._cache[key]

    def regraded(self, grading, tol: Tolerance = DEFAULT_TOL) -> SpectralTripleData:
        """The triple with `grading` in place of its own.  The algebra and the
        Dirac operator are kept, so the copy's cda at `tol` is this triple's
        re-spanned into homogeneous elements; nothing is generated again.  A
        cached algebra and Tomita conjugation carry over too: neither depends
        on the grading (the conjugation depends on phi and the span of the
        cda)."""
        out = replace(self, grading=grading)
        out._cache[("cda", tol)] = _homogeneous(self.cda(tol), out.grading, tol)
        for key in (("algebra", tol), ("conjugation", tol)):
            if key in self._cache:
                out._cache[key] = self._cache[key]
        return out

    def right_algebra(self, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis | None:
        if self.right_action_gens is None:
            return None
        key = ("right", tol)
        if key not in self._cache:
            self._cache[key] = generate_algebra(self.right_action_gens, tol=tol)
        return self._cache[key]


def _square(m, n: int, name: str) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape != (n, n):
        raise ValueError(f"{name} has shape {m.shape} but hilbert_dim is {n}")
    return m


def validate_triple(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Hermiticity, grading and commutator-norm entries (construction has
    checked the shapes).

    Raises when the Dirac operator is not Hermitian, since no later check
    applies to it; `run_condition_suite` reports that case as a failed entry.
    """
    rep = _validate(t, tol)
    if "validate:dirac_hermitian" in _failed_ids(rep):
        raise ValueError("Dirac operator is not Hermitian")
    return rep


def _failed_ids(rep: CheckReport) -> set:
    return {e.condition_id for e in rep.failures()}


def _weighted(t: SpectralTripleData, x) -> np.ndarray:
    """state @ x for a matrix or a stack of matrices (x itself without a
    state): `SpectralTripleData.psi` is its trace."""
    x = np.asarray(x, dtype=complex)
    return x if t.state is None else t.state @ x


def _validate(t: SpectralTripleData, tol: Tolerance) -> CheckReport:
    """Validation entries; they stop at the Hermiticity entry when the
    Dirac operator is not Hermitian."""
    rep = CheckReport()
    n = t.hilbert_dim
    d = t.dirac
    nd = operator_norm(d)
    herm = rel_residual(d - adjoint(d), nd)
    rep.add("validate:dirac_hermitian", herm, tol.rel)
    if herm > tol.rel:
        return rep
    alg = t.algebra(tol)
    rep.add("validate:algebra_generated", 0.0, tol.rel, f"dim {alg.dim}")
    if t.grading is not None:
        g = t.grading
        ng = operator_norm(g)
        rep.add("validate:grading_hermitian", rel_residual(g - adjoint(g), ng), tol.rel)
        rep.add("validate:grading_involution", rel_residual(g @ g - np.eye(n), ng, ng), tol.rel)
        rep.add("validate:grading_anticommutes_dirac", rel_residual(g @ d + d @ g, ng, nd), tol.rel)
        rep.add("validate:grading_commutes_algebra",
                commutator_residual([g], t.algebra_gens), tol.rel)
    abs_d = herm_abs(d, tol)
    for i, a in enumerate(t.algebra_gens):
        rep.add(f"validate:commutator_norm[{i}]", 0.0, np.inf,
                f"|[D,a]|={operator_norm(d @ a - a @ d):.6e} |[|D|,a]|={operator_norm(abs_d @ a - a @ abs_d):.6e}")
    return rep


def commutator_algebra(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Algebra generated by the left action together with its Dirac commutators.

    When a grading is present the basis is re-spanned into homogeneous
    elements, the even ones first.
    """
    alg = generate_algebra(list(t.algebra_gens) + t.commutators(), tol=tol)
    return alg if t.grading is None else _homogeneous(alg, t.grading, tol)


def carry_algebras(out: SpectralTripleData, src: SpectralTripleData, u,
                   tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis | None:
    """Fill the algebra and cda caches of `out` at `tol` with those of `src`
    carried through pi(x) = U^* (1_m (x) x) U (`algebra.transport_algebra`),
    and return the carried cda before its graded split, or None if it was
    not carried.

    For `out` a compression of `src` through an isometry U whose range
    projector commutes with 1_m (x) the cda of `src`: its generators are
    pi(a), and, with the Dirac operator U^* (D (x) 1) U, its commutators
    [D^, pi(a)] = pi([D, a]), so its algebra and cda are the images of
    `src`'s.  An image that misses the transport gate is left to be
    generated on demand, and so is the algebra when `src` has not built
    its own: generating `src`'s to carry it costs more than generating
    `out`'s.
    """
    key = ("algebra", tol)
    alg = None if key not in src._cache else \
        transport_algebra(src._cache[key], u, out.algebra_gens, tol)
    if alg is not None:
        out._cache[key] = alg
    cda = transport_algebra(src.cda(tol), u, out.algebra_gens + out.commutators(), tol)
    if cda is not None:
        out._cache[("cda", tol)] = cda if out.grading is None else _homogeneous(cda, out.grading, tol)
    return cda


def _homogeneous(alg: AlgebraBasis, grading, tol: Tolerance) -> AlgebraBasis:
    """The algebra re-spanned into elements homogeneous under the grading, the
    even ones first."""
    even, odd = graded_split(alg, grading, tol)
    # the same algebra, so its Wedderburn data carry over
    return replace(alg, basis=np.concatenate([even, odd]))


def represent_chain(t: SpectralTripleData, chain: HochschildChain) -> np.ndarray:
    """Operator sum a0 [D,a1] ... [D,ap] over the chain terms."""
    n = t.hilbert_dim
    d = t.dirac
    out = np.zeros((n, n), dtype=complex)
    for term in chain.terms:
        acc = term[0]
        for leg in term[1:]:
            acc = acc @ (d @ leg - leg @ d)
        out = out + acc
    return out


def hochschild_boundary(chain: HochschildChain) -> HochschildChain:
    """Standard boundary: alternating adjacent multiplications with cyclic last term.

    Degree 0 input returns an empty degree-0 chain (flagged degenerate via
    empty terms).
    """
    p = chain.degree
    if p < 1:
        return HochschildChain(0, [], chain.generalized)
    terms = []
    for t in chain.terms:
        for i in range(p):
            merged = t[:i] + (t[i] @ t[i + 1],) + t[i + 2:]
            terms.append(((-1) ** i, merged))
        last = (t[p] @ t[0],) + t[1:p]
        terms.append(((-1) ** p, last))
    # fold the sign into the first leg
    folded = [(s * term[0],) + tuple(term[1:]) for s, term in terms]
    return HochschildChain(p - 1, folded, chain.generalized)


def _pair_mul(x, y, c2: HochschildChain) -> HochschildChain:
    """(x (.) y) . c2 via the derivation rule on the first leg of c2."""
    terms = []
    for t in c2.terms:
        b0, rest = t[0], t[1:]
        terms.append((x, y @ b0) + rest)
        terms.append((-(x @ y), b0) + rest)
    return HochschildChain(c2.degree + 1, terms, c2.generalized)


def chain_mul(c1: HochschildChain, c2: HochschildChain) -> HochschildChain:
    """Product of chains matching the product of the represented forms."""
    out_terms = []
    gen = c1.generalized or c2.generalized
    for t in c1.terms:
        if c1.degree == 0:
            for s in c2.terms:
                out_terms.append((t[0] @ s[0],) + s[1:])
        else:
            acc = c2
            for leg in reversed(t[2:]):
                acc = _pair_mul(np.eye(leg.shape[0], dtype=complex), leg, acc)
            acc = _pair_mul(t[0], t[1], acc)
            out_terms.extend(acc.terms)
    return HochschildChain(c1.degree + c2.degree, out_terms, gen)


def chain_coefficient_norm(chain: HochschildChain, alg: AlgebraBasis,
                           tol: Tolerance = DEFAULT_TOL) -> float:
    """Norm of a chain as an element of (first-leg space) (x) A^(x)degree.

    The first-leg coordinate space is the span of the appearing first legs
    (sufficient to detect cancellation); remaining legs use the algebra
    basis.
    """
    if not chain.terms:
        return 0.0
    first_basis = span_basis([t[0] for t in chain.terms], tol)
    if len(first_basis) == 0:
        return 0.0
    shape = (len(first_basis),) + (alg.dim,) * chain.degree
    coeff = np.zeros(shape, dtype=complex)
    for t in chain.terms:
        c0 = span_coords(t[0], first_basis)
        legs = [alg.coords(m) for m in t[1:]]
        block = c0
        for l in legs:
            block = np.tensordot(block, l, axes=0)
        coeff = coeff + block
    scale = max(1.0, max(operator_norm(t[0]) for t in chain.terms))
    return float(np.linalg.norm(coeff.ravel())) / scale


def check_orientability(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL,
                        strict: bool = False) -> CheckReport:
    rep = CheckReport()
    chain = t.orientation_cycle
    if chain is None:
        rep.skip("orient:cycle", "no orientation cycle supplied")
        return rep
    alg = t.algebra(tol)
    p = chain.degree

    worst_leg = 0.0
    for term in chain.terms:
        legs = term if strict or not chain.generalized else term[1:]
        for leg in legs:
            worst_leg = max(worst_leg, alg.membership_residual(leg))
    label = "orient:legs_in_algebra" if (strict or not chain.generalized) else "orient:tail_legs_in_algebra"
    rep.add(label, worst_leg, max(tol.rel, 1e3 * tol.rank_cut),
            "strict mode" if strict else "")

    if chain.generalized and not strict:
        worst = commutator_residual([term[0] for term in chain.terms],
                                    t.algebra_gens + (t.right_action_gens or []))
        rep.add("orient:first_leg_commutes", worst, tol.rel)

    if p >= 1:
        boundary = hochschild_boundary(chain)
        rep.add("orient:cycle_closed", chain_coefficient_norm(boundary, alg, tol), max(tol.rel, 1e3 * tol.rank_cut))
    else:
        rep.add("orient:cycle_closed", 0.0, tol.rel, "degree 0: boundary degenerate")

    c_op = represent_chain(t, chain)
    nc = operator_norm(c_op)
    rep.add("orient:volume_selfadjoint", rel_residual(c_op - adjoint(c_op), nc), tol.rel)
    rep.add("orient:volume_involution", rel_residual(c_op @ c_op - np.eye(t.hilbert_dim), nc, nc), tol.rel)
    # C D - (-1)^(p-1) D C = 0
    rep.add("orient:volume_dirac_sign",
            commutator_residual([c_op], [t.dirac], twisted=[(-1.0) ** (p - 1) * t.dirac]), tol.rel)
    rep.add("orient:volume_commutes_algebra", commutator_residual([c_op], t.algebra_gens), tol.rel)
    return rep


def fit_orientation_cycle(t: SpectralTripleData, p: int, tol: Tolerance = DEFAULT_TOL,
                          target: np.ndarray | None = None, generalized: bool = False):
    """Least-squares fit of a degree-0 cycle representing a target.

    Minimizes |represent(chain) - target| over one-leg chains with the leg
    in the algebra, or in its commutant for a `generalized` cycle.  Only
    degree 0 is fitted.  Returns (chain, relative residual).
    """
    if p != 0:
        raise ValueError(f"orientation cycle fit only supports degree 0, got p = {p}")
    if target is None:
        if t.grading is None:
            raise ValueError("no fit target: supply one or set a grading")
        target = t.grading
    target = as_complex_matrix(target)
    n = t.hilbert_dim
    alg = t.algebra(tol)
    basis = commutant(alg, tol).basis if generalized else alg.basis
    cols = basis.reshape(len(basis), -1).T
    x, _, _, _ = np.linalg.lstsq(cols, target.ravel(), rcond=None)
    fit = (cols @ x).reshape(n, n)
    resid = rel_residual(fit - target, operator_norm(target))
    if generalized:
        return HochschildChain(0, [(fit,)], True), resid
    # strict legs: the algebra basis elements, largest coefficient first
    order = np.argsort(-np.abs(x))
    keep = [k for k in order if np.abs(x[k]) > tol.rank_cut * (np.abs(x[order[0]]) + 1e-300)]
    return HochschildChain(0, [(x[k] * basis[k],) for k in keep], False), resid


def check_first_order(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Commutation of the right action with the algebra and its Dirac commutators.

    With a grading g, [D, a] is odd and its graded commutator with any right
    generator b is [D, a] b - (g b g) [D, a]: the even part of b enters with
    a commutator and the odd part with an anticommutator, so no generator
    needs to be homogeneous.  Without a grading it is the plain commutator.
    """
    rep = CheckReport()
    if not t.right_action_gens:
        rep.skip("first_order", "no right action supplied")
        return rep
    commute, dirac = first_order_residuals(t, t.right_action_gens)
    rep.add("first_order:actions_commute", commute, tol.rel)
    rep.add("first_order:dirac_commutators", dirac, tol.rel)
    return rep


def first_order_residuals(t: SpectralTripleData, right) -> tuple:
    """(actions commute, Dirac commutators) residuals of `check_first_order`
    for a stack or list of right operators, by the graded rule there."""
    return tuple(commutator_residual(*pair) for pair in _first_order_pairs(t, right))


def first_order_within(t: SpectralTripleData, right, bound: float) -> bool:
    """max(first_order_residuals(t, right)) <= bound, for a gate: Frobenius
    first (`linalg.commutators_within`), so a pass takes no 2-norm."""
    return all(commutators_within(xs, ys, bound, twisted)
               for xs, ys, twisted in _first_order_pairs(t, right))


def _first_order_pairs(t: SpectralTripleData, right) -> tuple:
    """The (xs, ys, twisted) arguments of the two first-order commutator
    residuals."""
    gens = np.asarray(t.algebra_gens)
    right = np.asarray(right)
    das = t.dirac @ gens - gens @ t.dirac
    twisted = None if t.grading is None else t.grading @ right @ t.grading
    return (gens, right, None), (das, right, twisted)


def check_finiteness(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Module frame over the Dirac-commutator algebra plus the state identity.

    Returns (report, context) where the context carries the algebra and the
    frame.
    """
    rep = CheckReport()
    cda = t.cda(tol)
    frame = parseval_frame(cda, tol)
    n = t.hilbert_dim

    basis = cda.basis
    eye = np.eye(n, dtype=complex)

    # H is a left module over the algebra: g = sum_x E(|g><x|) x; column m
    # of rec reconstructs e_m from the coordinates of E(|e_m><x|)
    bx = basis @ np.transpose(frame)  # bx[k, :, x] = b_k x
    rec = np.tensordot(bx, cda.pair_coords(eye, frame), ([0, 2], [2, 1]))
    worst = float(np.max(np.linalg.norm(rec - eye, axis=0)))
    rep.add("finite:frame_reproduces", worst, max(tol.rel, 1e-7), f"frame size {len(frame)}")

    # <e_j, e_i> against psi(E(|e_i><e_j|))
    worst = float(np.max(np.abs(eye - cda.pair_coords(eye, eye) @ t.psi(basis))))
    rep.add("finite:state_reproduces_scalar_product", worst, max(tol.rel, 1e-8))

    # gram[i, j] = psi(b_i^* b_j) = Tr((state b_i^*) b_j)
    gram = np.tensordot(_weighted(t, np.swapaxes(basis.conj(), 1, 2)), basis, ([1, 2], [2, 1]))
    vals, _ = herm_eig((gram + adjoint(gram)) / 2.0, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
    faithful = vals[0] > tol.rank_cut * max(1.0, float(vals[-1]))
    rep.add("finite:state_faithful", 0.0 if faithful else 1.0, 0.5,
            f"min Gram eigenvalue {vals[0]:.3e}")
    ctx = {"cda": cda, "frame": frame}
    return rep, ctx


def check_spinc(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Equivalence-bimodule checks between the Dirac-commutator algebra and
    the right action: `canonical_morita_check`, its pairing scale, and one
    sweep of the right basis against the cda's commutant.  The context's
    `block_mismatch` is (cda blocks, right action blocks) when both carry
    Wedderburn data and the right action's are not the cda's transposed,
    None otherwise."""
    rep = CheckReport()
    if not t.right_action_gens:
        rep.skip("spinc", "no right action supplied")
        return rep, None
    cda = t.cda(tol)
    right = t.right_algebra(tol)
    sweep = _commutant_sweep(cda, right, tol)
    morita, _, lam = _closed_form_morita(cda, right, sweep, tol)
    rep.extend(morita, prefix="spinc:")
    rep.add("spinc:pairing_scale", 0.0, np.inf, f"right pairing scale {lam:.6f}")
    match, mismatch, comm_dim = sweep
    rep.add("spinc:commutant_matches_right_action", mismatch, max(tol.rel, 1e-7),
            f"commutant dim {comm_dim}, right action dim {right.dim}")
    blocks = None
    if not match and cda.wedderburn is not None and right.wedderburn is not None:
        blocks = (sorted(cda.wedderburn[1]), sorted(right.wedderburn[1]))
    ctx = {"scale": lam, "cda": cda, "right": right, "block_mismatch": blocks}
    return rep, ctx


def check_riemannian(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Cyclic/separating vector, central-metric solve, grading compatibilities,
    trace property.  Returns (report, context), cached on the triple per
    tolerance: callers extend other reports by it and do not change it."""
    key = ("riemannian", tol)
    if key not in t._cache:
        t._cache[key] = _riemannian(t, tol)
    return t._cache[key]


def _riemannian(t: SpectralTripleData, tol: Tolerance):
    """The body of `check_riemannian`, uncached."""
    rep = CheckReport()
    if t.riemann_vector is None or t.grading is None:
        rep.skip("riemann", "needs both a distinguished vector and a grading")
        return rep, None
    phi = t.riemann_vector
    eps = t.grading
    cda = t.cda(tol)
    n = t.hilbert_dim
    orbit = cda.basis @ phi  # row k is b_k phi
    svals = np.linalg.svd(orbit, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > tol.rank_cut * max(smax, 1e-300)))
    rep.add("riemann:cyclic", 0.0 if rank == n else 1.0, 0.5,
            f"orbit rank {rank} of Hilbert dim {n}")
    rep.add("riemann:separating", 0.0 if rank == cda.dim else 1.0, 0.5,
            f"orbit rank {rank} of algebra dim {cda.dim}")

    zc = center(cda, tol)
    z = None
    if len(zc):
        # row (w, v), column k: psi(w z_k v^*) = <v, state w z_k>
        amat = np.einsum("vab,wkab->wvk", cda.basis.conj(),
                         _weighted(t, cda.basis[:, None] @ zc[None])).reshape(-1, len(zc))
        # row (w, v): <v phi, w phi>
        bvec = (orbit @ orbit.conj().T).ravel()
        coeff, _, _, _ = np.linalg.lstsq(amat, bvec, rcond=None)
        resid = float(np.linalg.norm(amat @ coeff - bvec)) / max(1.0, float(np.linalg.norm(bvec)))
        z = np.tensordot(coeff, zc, 1)
        herm = rel_residual(z - adjoint(z), operator_norm(z))
        vals, _ = herm_eig((z + adjoint(z)) / 2.0, Tolerance(rel=1.0, rank_cut=tol.rank_cut))
        pos = max(0.0, -float(vals[0])) / max(1.0, float(vals[-1]))
        sv = np.linalg.svd(amat, compute_uv=False)
        ambiguous = int(np.sum(sv <= tol.rank_cut * max(float(sv[0]), 1e-300)))
        rep.add("riemann:metric_solves_state", resid, max(tol.rel, 1e-8),
                f"center dim {len(zc)}, solution kernel {ambiguous}")
        rep.add("riemann:metric_positive", herm + pos, tol.rel,
                f"min eigenvalue {vals[0]:.3e}")
    else:
        rep.add("riemann:metric_solves_state", 1.0, tol.rel, "center is empty")

    ne = operator_norm(eps)
    rep.add("riemann:grading_fixes_vector", float(np.linalg.norm(eps @ phi - phi)) /
            max(1.0, float(np.linalg.norm(phi))), tol.rel)
    rep.add("riemann:grading_anticommutes_dirac",
            rel_residual(eps @ t.dirac + t.dirac @ eps, ne, operator_norm(t.dirac)), tol.rel)
    rep.add("riemann:grading_commutes_algebra", commutator_residual([eps], t.algebra_gens), tol.rel)
    # t.cda is split under t.grading when it is built (commutator_algebra,
    # regraded), and a grading that does not split it raises there
    rep.add("riemann:grading_splits_cda", 0.0, tol.rel, "by construction of the cda")

    # entry [u, w] is <phi, u w phi> = (phi^* u)(w phi)
    pairs = (phi.conj() @ cda.basis) @ orbit.T
    worst = float(np.max(np.abs(pairs - pairs.T))) / max(1.0, float(np.vdot(phi, phi).real))
    rep.add("riemann:vector_state_tracial", worst, max(tol.rel, 1e-9))
    ctx = {"cda": cda, "metric": z}
    return rep, ctx


def connectivity_projectors(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL):
    """Orthogonal projectors spanning the kernel of a -> [D, a] inside the algebra."""
    alg = t.algebra(tol)
    d = t.dirac
    kern = null_space((d @ alg.basis - alg.basis @ d).reshape(alg.dim, -1).T, tol)
    if len(kern) == 0:
        return None, "kernel of the Dirac commutator inside the algebra is empty"
    mats = alg.combine(kern)
    # the kernel is a unital *-subalgebra; commutativity makes it a sum of projectors
    if commutator_residual(mats, mats) > max(tol.rel, 1e-8):
        return None, "kernel algebra is noncommutative"
    rng = np.random.default_rng(20230517)
    herm = (mats + np.swapaxes(mats.conj(), 1, 2)) / 2.0
    h = np.tensordot(rng.standard_normal(len(mats)), herm, 1)
    vals, vecs = herm_eig(h, tol)
    return [vecs[:, c] @ adjoint(vecs[:, c]) for c in _clusters(vals, tol)], ""


def check_extras(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL,
                 conjugation=None) -> CheckReport:
    """Closedness, connectivity and reality side conditions."""
    rep = CheckReport()
    p = t.declared_p

    if t.grading is None or p < 1:
        rep.skip("extras:closedness", "needs a grading and declared dimension >= 1")
    else:
        reg = herm_abs(np.eye(t.hilbert_dim) + t.dirac @ t.dirac, tol)
        vals, vecs = herm_eig(reg, tol)
        weight = vecs @ np.diag(vals ** (-p / 2.0)) @ adjoint(vecs)
        side = t.right_action_gens or [b for b in commutant(t.algebra(tol), tol).basis]
        worst = 0.0
        for legs in itertools.islice(itertools.product(t.algebra_gens, repeat=p), 16):
            word = np.eye(t.hilbert_dim, dtype=complex)
            for a in legs:
                word = word @ (t.dirac @ a - a @ t.dirac)
            for b in side[:4]:
                val = abs(np.trace(t.grading @ word @ b @ weight))
                worst = max(worst, val / max(1.0, operator_norm(word) * operator_norm(b)))
        rep.add("extras:closedness", worst, max(tol.rel, 1e-8))

    projs, why = connectivity_projectors(t, tol)
    if projs is None:
        rep.add("extras:connectivity", 1.0, 0.5, why)
    else:
        stack = np.asarray(projs)
        # P_i P_j - delta_ij P_i over all pairs
        prods = stack[:, None] @ stack[None]
        prods[np.arange(len(stack)), np.arange(len(stack))] -= stack
        worst = max_operator_norm(prods, floor=rel_residual(sum(projs) - np.eye(t.hilbert_dim), 1.0))
        rep.add("extras:connectivity", worst, max(tol.rel, 1e-7), f"{len(projs)} projectors")

    if conjugation is None:
        rep.skip("extras:reality", "no conjugation supplied")
    else:
        k = conjugation.kernel if hasattr(conjugation, "kernel") else as_complex_matrix(conjugation)
        worst = 0.0
        if t.right_action_gens and len(t.right_action_gens) == len(t.algebra_gens):
            for a, b in zip(t.algebra_gens, t.right_action_gens):
                # J a* J^{-1} on kernels: J v = K conj(v), so J a* J^{-1} = K conj(a*) K^{-1}
                op = k @ np.conj(adjoint(a)) @ np.linalg.inv(k)
                worst = max(worst, rel_residual(op - b, operator_norm(a)))
            rep.add("extras:reality_exchanges_actions", worst, max(tol.rel, 1e-8))
        else:
            rep.skip("extras:reality_exchanges_actions", "right action not paired with generators")
        k_inv = np.linalg.inv(k)
        jj = k @ np.conj(k)
        s2 = 1 if operator_norm(jj - np.eye(t.hilbert_dim)) <= operator_norm(jj + np.eye(t.hilbert_dim)) else -1
        jd = k @ np.conj(t.dirac) @ k_inv
        sd = 1 if operator_norm(jd - t.dirac) <= operator_norm(jd + t.dirac) else -1
        detail = f"J^2 sign {s2:+d}, JD vs DJ sign {sd:+d}"
        if t.grading is not None:
            jg = k @ np.conj(t.grading) @ k_inv
            sg = 1 if operator_norm(jg - t.grading) <= operator_norm(jg + t.grading) else -1
            detail += f", JGamma vs GammaJ sign {sg:+d}"
        res = min(rel_residual(jj - np.eye(t.hilbert_dim), 1.0), rel_residual(jj + np.eye(t.hilbert_dim), 1.0))
        rep.add("extras:reality_signs", res, max(tol.rel, 1e-8), detail)
    return rep


def zeta_diagnostic(t: SpectralTripleData, s_values) -> list:
    """(s, sum over the eigenvalues l of D of (1 + l^2)^(-s/2)) for each s.

    Raises when a value overflows, as it does for a large negative s once
    some |l| > 0.
    """
    vals, _ = herm_eig(t.dirac)
    out = []
    for s in s_values:
        with np.errstate(over="ignore"):
            value = float(np.sum((1.0 + vals ** 2) ** (-float(s) / 2.0)))
        if not np.isfinite(value):
            raise ValueError(f"zeta diagnostic overflows at s = {float(s)}: "
                             f"(1 + l^2)^(-s/2) exceeds the largest float")
        out.append((float(s), value))
    return out


def run_condition_suite(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL,
                        strict_orientation: bool = True) -> CheckReport:
    rep = CheckReport()
    val = _validate(t, tol)
    rep.extend(val)
    failed = _failed_ids(val)
    if "validate:dirac_hermitian" in failed:
        rep.skip("suite", "later checks not run: the Dirac operator is not Hermitian")
        return rep
    if failed & {"validate:grading_hermitian", "validate:grading_involution"}:
        rep.skip("suite", "later checks not run: the grading is not a Hermitian involution")
        return rep
    # the later checks all need the cda, which splits under the grading
    try:
        t.cda(tol)
    except ValueError as exc:
        rep.add("validate:grading_splits_cda", 1.0, tol.rel, str(exc))
        rep.skip("suite", "later checks not run: the grading does not split the commutator algebra")
        return rep
    rep.extend(check_orientability(t, tol, strict=strict_orientation))
    rep.extend(check_first_order(t, tol))
    fin, _ = check_finiteness(t, tol)
    rep.extend(fin)
    sp, _ = check_spinc(t, tol)
    rep.extend(sp)
    ri, _ = check_riemannian(t, tol)
    rep.extend(ri)
    rep.extend(check_extras(t, tol))
    return rep
