"""Built-in example geometries used by tests and the command line."""
from __future__ import annotations

import numpy as np

from .linalg import random_hermitian
from .triples import HochschildChain, SpectralTripleData

__all__ = ["build_example", "EXAMPLE_KINDS"]

EXAMPLE_KINDS = ("trivial_points", "two_point", "matrix_geometry")

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def trivial_points(n_points: int) -> SpectralTripleData:
    """N commuting points: diagonal algebra, zero Dirac operator."""
    if n_points < 1:
        raise ValueError("need at least one point")
    n = n_points
    gens = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        gens.append(e)
    eye = np.eye(n, dtype=complex)
    phi = np.ones(n, dtype=complex) / np.sqrt(n)
    cycle = HochschildChain(0, [(eye,)], generalized=False)
    return SpectralTripleData(
        hilbert_dim=n,
        algebra_gens=gens,
        dirac=np.zeros((n, n), dtype=complex),
        grading=eye.copy(),
        declared_p=0,
        right_action_gens=[g.copy() for g in gens],
        orientation_cycle=cycle,
        riemann_vector=phi,
    )


def two_point(coupling: complex) -> SpectralTripleData:
    """Two points coupled through an off-diagonal Dirac operator."""
    if coupling == 0:
        raise ValueError("coupling must be nonzero")
    lam = complex(coupling)
    gens = [np.diag([1.0 + 0j, 0.0]), np.diag([0.0j, 1.0])]
    dirac = np.array([[0.0, lam], [np.conj(lam), 0.0]], dtype=complex)
    cycle = HochschildChain(0, [(np.diag([1.0 + 0j, -1.0]),)], generalized=False)
    return SpectralTripleData(
        hilbert_dim=2,
        algebra_gens=gens,
        dirac=dirac,
        grading=SIGMA3.copy(),
        declared_p=0,
        right_action_gens=[g.copy() for g in gens],
        orientation_cycle=cycle,
    )


def matrix_geometry(n: int, seed: int) -> SpectralTripleData:
    """Full matrix algebra acting on itself tensor a spinor factor.

    The Hilbert space is M_n (x) C^2 with the algebra multiplying from the
    left, the right multiplication as the commuting action, and a Dirac
    operator built from two seeded Hermitian generators through their
    adjoint action.
    """
    if n < 2:
        raise ValueError("matrix geometry needs n >= 2")
    rng = np.random.default_rng(seed)
    t1 = random_hermitian(rng, n)
    t2 = random_hermitian(rng, n)
    eye_n = np.eye(n, dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    def left(a):
        return np.kron(np.kron(a, eye_n), eye2)

    def right(b):
        return np.kron(np.kron(eye_n, b.T), eye2)

    def ad(tmat):
        return np.kron(tmat, eye_n) - np.kron(eye_n, tmat.T)

    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    gens = [left(u) for u in units]
    right_gens = [right(u) for u in units]
    dirac = np.kron(ad(t1), SIGMA1) + np.kron(ad(t2), SIGMA2)
    grading = np.kron(np.eye(n * n, dtype=complex), SIGMA3)
    cycle = HochschildChain(0, [(grading.copy(),)], generalized=True)
    return SpectralTripleData(
        hilbert_dim=2 * n * n,
        algebra_gens=gens,
        dirac=dirac,
        grading=grading,
        declared_p=0,
        right_action_gens=right_gens,
        orientation_cycle=cycle,
    )


def build_example(kind: str, **params) -> SpectralTripleData:
    if kind == "trivial_points":
        return trivial_points(int(params.get("n", 3)))
    if kind == "two_point":
        return two_point(params.get("coupling", 1.0))
    if kind == "matrix_geometry":
        return matrix_geometry(int(params.get("n", 2)), int(params.get("seed", 0)))
    raise ValueError(f"unknown example kind {kind!r}; choose from {EXAMPLE_KINDS}")
