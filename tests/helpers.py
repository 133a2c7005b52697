"""Operators and triples the tests build their references and inputs from."""
import dataclasses

import numpy as np

from ncgeo import modules
from ncgeo.algebra import AlgebraBasis
from ncgeo.examples import SIGMA1, SIGMA2, matrix_geometry
from ncgeo.linalg import adjoint, from_blocks, max_span_residual, random_complex, random_hermitian
from ncgeo.modules import ProjectiveModule
from ncgeo.tomita import AntiunitaryMap, opposite_action
from ncgeo.triples import SpectralTripleData


def block_diag(op, n: int) -> np.ndarray:
    """The operator op repeated n times down the diagonal, kron(1_n, op)."""
    return np.kron(np.eye(n, dtype=complex), op)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random n x n unitary: the Q factor of a complex Gaussian matrix,
    its columns' phases fixed by R's diagonal."""
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def dense_module_projector(module: ProjectiveModule) -> np.ndarray:
    """The module-size projector Q = sum_k C_k (x) O_k of a module, rebuilt
    from its factors as the block matrix of sum_k coords[i, j, k] ops[k]."""
    return from_blocks(np.tensordot(module.coords, module.ops, 1))


def projector_gap(q, u) -> float:
    """|Q - U U^*|_F for an (N, N) matrix Q and an (N, r) matrix U, r rows
    at a time, so no temporary is larger than U.

    The Frobenius norm bounds the 2-norm from above (and for a difference of
    two rank-r projectors is at most sqrt(2r) times it), so
    `projector_gap <= tol` implies |Q - U U^*|_2 <= tol with no SVD.
    """
    q, u = np.asarray(q), np.asarray(u)
    uh = adjoint(u)
    step = max(1, u.shape[1])
    total = 0.0
    for start in range(0, q.shape[0], step):
        rows = q[start:start + step] - u[start:start + step] @ uh
        total += float(np.vdot(rows, rows).real)
    return float(np.sqrt(total))


def spans_equal(a, b, tol=1e-9) -> bool:
    """Whether two orthonormal stacks of equal length span the same space:
    the larger of their relative span residuals against each other is
    below tol."""
    return len(a) == len(b) and max(max_span_residual(a, b), max_span_residual(b, a)) < tol


def barrett_triple(n: int, kind: str) -> SpectralTripleData:
    """Barrett's type (1,1) or (2,0) fuzzy geometry on M_n (x) C^2, in closed form.

    The algebra, right action, grading and cycle are those of
    matrix_geometry(n, 0), and t1, t2 are drawn as there.  Type (1,1) has
    D = {t1, .} (x) s1 + ad(t2) (x) s2, type (2,0) D = {t1, .} (x) s1 +
    {t2, .} (x) s2, with ad(t) X = t X - X t and {t, .} X = t X + X t.
    """
    rng = np.random.default_rng(0)
    t1 = random_hermitian(rng, n)
    t2 = random_hermitian(rng, n)
    eye = np.eye(n)

    def ad(t):
        return np.kron(t, eye) - np.kron(eye, t.T)

    def anti(t):
        return np.kron(t, eye) + np.kron(eye, t.T)

    second = {"11": ad, "20": anti}[kind](t2)
    dirac = np.kron(anti(t1), SIGMA1) + np.kron(second, SIGMA2)
    return dataclasses.replace(matrix_geometry(n, 0), dirac=dirac)


def record_table_builds(monkeypatch) -> list:
    """Patch `modules.bimodule_from_actions`, as the library calls it, to
    record each bimodule it builds; returns the list it appends to."""
    built = []
    build = modules.bimodule_from_actions

    def spy(*args, **kwargs):
        bi, lam = build(*args, **kwargs)
        built.append(bi)
        return bi, lam

    monkeypatch.setattr(modules, "bimodule_from_actions", spy)
    return built
