"""Tomita conjugation, opposite actions, gradings from orientation operators,
and the mirror Dirac operator with its fundamental-class checks.

Antiunitary maps are stored through their unitary kernels: the map sends
v to K conj(v).  Conjugating a linear operator M gives K conj(M) K^* once
the kernel is unitary with K conj(K) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis, commutant
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_complex_matrix,
    commutator_residual,
    herm_abs,
    herm_apply,
    operator_norm,
    rel_residual,
    within_span,
)
from .report import CheckReport
from .triples import SpectralTripleData

__all__ = [
    "AntiunitaryMap",
    "tomita_conjugation",
    "opposite_action",
    "opposite_algebra",
    "grading_from_cycle",
    "mirror_dirac",
    "check_fundamental_class",
]


@dataclass
class AntiunitaryMap:
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = as_complex_matrix(self.kernel)

    def __call__(self, v):
        return self.kernel @ np.conj(np.asarray(v, dtype=complex))

    def conjugate(self, m) -> np.ndarray:
        """J M J for a linear operator M (kernel assumed to satisfy K conj(K) = 1)."""
        return self.kernel @ np.conj(as_complex_matrix(m)) @ np.conj(self.kernel)

    def unitarity_residual(self) -> float:
        k = self.kernel
        return rel_residual(adjoint(k) @ k - np.eye(k.shape[0]), 1.0)

    def involution_residual(self) -> float:
        k = self.kernel
        return rel_residual(k @ np.conj(k) - np.eye(k.shape[0]), 1.0)


def tomita_conjugation(t: SpectralTripleData, tol: Tolerance = DEFAULT_TOL) -> AntiunitaryMap:
    """Antiunitary map determined by w.phi -> w*.phi on the Dirac-commutator
    algebra, phi the triple's distinguished vector `riemann_vector`.

    Requires the vector to be cyclic and separating with a tracial vector
    state; otherwise the construction cannot be antiunitary and a hard
    error is raised.  The map is cached on the triple per tolerance; it
    depends on phi and the span of the cda, not on the grading, so
    `regraded` carries it over.
    """
    key = ("conjugation", tol)
    if key not in t._cache:
        t._cache[key] = _conjugation(t, tol)
    return t._cache[key]


def _conjugation(t: SpectralTripleData, tol: Tolerance) -> AntiunitaryMap:
    """The body of `tomita_conjugation`, uncached."""
    phi = t.riemann_vector
    if phi is None:
        raise ValueError("no cyclic vector available")
    cda = t.cda(tol)
    n = t.hilbert_dim
    if cda.dim != n:
        raise ValueError(
            f"cyclic/separating failure: algebra dim {cda.dim} vs Hilbert dim {n}")
    # columns w phi and w^* phi over the basis elements w
    x = (cda.basis @ phi).T
    y = (np.swapaxes(cda.basis.conj(), 1, 2) @ phi).T
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[-1] <= tol.rank_cut * max(float(svals[0]), 1e-300):
        raise ValueError("vector is not cyclic for the Dirac-commutator algebra")
    kernel = y @ np.linalg.inv(np.conj(x))
    j = AntiunitaryMap(kernel)
    if j.unitarity_residual() > max(tol.rel, 1e-7):
        raise ValueError(
            f"vector state is not tracial: conjugation kernel is not unitary "
            f"(residual {j.unitarity_residual():.3e})")
    if j.involution_residual() > max(tol.rel, 1e-7):
        raise ValueError("conjugation does not square to the identity")
    if float(np.linalg.norm(j(phi) - phi)) > max(tol.rel, 1e-7) * max(1.0, float(np.linalg.norm(phi))):
        raise ValueError("conjugation does not fix the cyclic vector")
    comm = commutant(cda, tol)
    landed = opposite_action(j, cda.basis)
    if not within_span(landed, comm.basis, max(tol.rel, 1e-6)):
        raise ValueError("conjugated algebra does not land in the commutant")
    return j


def opposite_action(j: AntiunitaryMap, a) -> np.ndarray:
    """Right-action operator J a* J of an algebra element, or of each matrix
    of a (k, n, n) stack: K conj(a^*) conj(K) = K a^T conj(K)."""
    return j.kernel @ np.swapaxes(np.asarray(a, dtype=complex), -1, -2) @ np.conj(j.kernel)


def opposite_algebra(j: AntiunitaryMap, alg: AlgebraBasis) -> AlgebraBasis:
    """The right action J A J of an algebra A, with its data carried over.

    The basis and generators are mapped by `opposite_action`.  For
    a = w (+_k X_k (x) 1_{m_k}) w* and J with a unitary kernel K,
    K conj(K) = 1, J a* J = K a^T K* is w' (+_k X_k^T (x) 1_{m_k}) w'* with
    w' = K conj(w), so the Wedderburn data (w, blocks) become
    (K conj(w), blocks), and `commutant` of the result writes the
    commutant down from them.
    """
    wedderburn = alg.wedderburn
    if wedderburn is not None:
        wedderburn = (j.kernel @ np.conj(wedderburn[0]), wedderburn[1])
    return AlgebraBasis(
        alg.hilbert_dim, opposite_action(j, alg.basis), opposite_action(j, alg.generators),
        wedderburn=wedderburn)


def grading_from_cycle(t: SpectralTripleData, c_op, j: AntiunitaryMap,
                       tol: Tolerance = DEFAULT_TOL):
    """Grading epsilon = C.JCJ induced by an orientation operator through the
    conjugation, for even declared dimension.  Returns (epsilon, report).
    """
    if t.declared_p % 2 == 1:
        raise ValueError(f"a grading from the orientation operator needs even declared "
                         f"dimension, got p = {t.declared_p}")
    rep = CheckReport()
    c_op = as_complex_matrix(c_op)
    eye = np.eye(t.hilbert_dim, dtype=complex)
    gens = np.asarray(t.algebra_gens)
    both_actions = np.concatenate([gens, opposite_action(j, gens)])
    eps = c_op @ j.conjugate(c_op)
    neps = operator_norm(eps)
    rep.add("grading:squares_to_one", rel_residual(eps @ eps - eye, neps, neps), tol.rel)
    rep.add("grading:commutes_with_conjugation",
            rel_residual(j.conjugate(eps) - eps, neps), tol.rel)
    rep.add("grading:anticommutes_dirac",
            rel_residual(eps @ t.dirac + t.dirac @ eps, neps, operator_norm(t.dirac)), tol.rel)
    rep.add("grading:commutes_both_actions", commutator_residual([eps], both_actions), tol.rel)
    if not rep.passed:
        raise ValueError("orientation operator does not induce a grading:\n" + rep.as_text())
    return eps, rep


def mirror_dirac(t: SpectralTripleData, j: AntiunitaryMap, eps,
                 tol: Tolerance = DEFAULT_TOL):
    """Conjugated Dirac operator and its graded rotation.

    Returns (d_conj, d_mirror, report): d_conj = J D J and
    d_mirror = i d_conj eps, with a Hermiticity report on the latter.
    """
    eps = as_complex_matrix(eps)
    d_conj = j.conjugate(t.dirac)
    d_mirror = 1j * d_conj @ eps
    rep = CheckReport()
    rep.add("mirror:hermitian",
            rel_residual(d_mirror - adjoint(d_mirror), operator_norm(d_mirror)), tol.rel)
    return d_conj, d_mirror, rep


def check_fundamental_class(t: SpectralTripleData, j: AntiunitaryMap, eps,
                            tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Anticommutation, module-linearity and representation checks for the
    opposite-action Dirac calculus."""
    rep = CheckReport()
    eps = as_complex_matrix(eps)
    d = t.dirac
    nd = operator_norm(d)
    _, d_mirror, mrep = mirror_dirac(t, j, eps, tol)
    rep.extend(mrep)

    gens = np.asarray(t.algebra_gens)
    ops = opposite_action(j, gens)
    d_comms = d @ gens - gens @ d
    m_comms = d_mirror @ ops - ops @ d_mirror

    rep.add("fundamental:anticommutation",
            commutator_residual(d_comms, m_comms, twisted=-m_comms), max(tol.rel, 1e-9))
    rep.add("fundamental:bounded_part_left_linear",
            commutator_residual(d @ m_comms + m_comms @ d, gens), max(tol.rel, 1e-9))

    worst = 0.0
    for b, bop in zip(gens, ops):
        x = j.conjugate(adjoint(d @ b - b @ d))  # [D,b]^op
        alpha_x = x @ (-1j * eps)
        x_star = j.conjugate(adjoint(adjoint(d @ b - b @ d)))
        alpha_x_star = x_star @ (-1j * eps)
        worst = max(worst, rel_residual(adjoint(alpha_x) - alpha_x_star, operator_norm(x)))
        worst = max(worst, rel_residual(adjoint(bop) - opposite_action(j, adjoint(b)), operator_norm(b)))
    rep.add("fundamental:twist_star_preserving", worst, max(tol.rel, 1e-9))

    # smoothness of the conjugation is never required; report the norm only
    abs_d = herm_abs(d, tol)
    smooth = operator_norm(abs_d @ j.kernel - j.kernel @ np.conj(abs_d))
    rep.add("fundamental:conjugation_smoothness", 0.0, np.inf,
            f"|[|D|, J]| = {smooth:.6e}")

    reg_inv = herm_apply(lambda x: (1.0 + x * x) ** -0.5, d, tol)
    f_d = d @ reg_inv
    rep.add("fundamental:phase_anticommutes_grading",
            rel_residual(f_d @ eps + eps @ f_d, operator_norm(f_d), operator_norm(eps)), tol.rel)
    details = []
    for i, a in enumerate(gens):
        details.append(f"|[F,a{i}]|={operator_norm(f_d @ a - a @ f_d):.3e}")
    for i, mb in enumerate(m_comms):
        details.append(f"|[F,db{i}]+|={operator_norm(f_d @ mb + mb @ f_d):.3e}")
    rep.add("fundamental:phase_commutators", 0.0, np.inf, " ".join(details))

    worst = 0.0
    for b in gens:
        x = j.conjugate(adjoint(d @ b - b @ d))  # [D,b]^op
        lhs = -1j * (f_d @ x - x @ f_d) @ eps
        mb = d_mirror @ opposite_action(j, b) - opposite_action(j, b) @ d_mirror
        rhs = f_d @ mb + mb @ f_d
        worst = max(worst, rel_residual(lhs - rhs, operator_norm(f_d), operator_norm(x)))
    rep.add("fundamental:phase_mirror_identity", worst, max(tol.rel, 1e-9))
    return rep
