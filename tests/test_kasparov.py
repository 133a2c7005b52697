import re

import numpy as np
import pytest

from helpers import block_diag, dense_module_projector, opposite_algebra
from ncgeo import kasparov
from ncgeo.algebra import AlgebraBasis, generate_algebra
from ncgeo.convert import spinc_to_riemannian
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.kasparov import (
    BimoduleConnection,
    compress_to_range,
    connection_condition_check,
    connection_decomposition,
    grassmann_connection,
    index_pairing,
    one_form_span,
    product_triple,
    twisted_operator,
)
from ncgeo.linalg import (
    DEFAULT_TOL,
    adjoint,
    from_blocks,
    herm_apply,
    operator_norm,
    project_onto_span,
    random_complex,
    random_hermitian,
    span_basis,
    span_residual,
)
from ncgeo.modules import ProjectiveModule, parseval_frame, validate_module
from ncgeo.tomita import tomita_conjugation
from ncgeo.triples import SpectralTripleData, first_order_residuals

from test_algebra import block_algebra_generators
from test_convert import assert_rel_close, spy_eigh_shapes, spy_norm_shapes
from test_triples import two_qubit_triple


def trivial_module(t, n=1):
    right = t.right_algebra()
    q = np.eye(n * t.hilbert_dim, dtype=complex)
    return ProjectiveModule.from_projector(right, n, q)


def random_module(t, n, rng):
    """Random projector with blocks in the right-action algebra."""
    right = t.right_algebra()
    nh = t.hilbert_dim
    h = np.zeros((n * nh, n * nh), dtype=complex)
    for i in range(n):
        for j in range(n):
            blk = sum((rng.standard_normal() + 1j * rng.standard_normal()) * b
                      for b in right.basis)
            h[i * nh:(i + 1) * nh, j * nh:(j + 1) * nh] = blk
    h = (h + adjoint(h)) / 2.0
    vals, _ = np.linalg.eigh(h)
    cut = float(np.median(vals))
    q = herm_apply(lambda x: 1.0 if x > cut else 0.0, h)
    return ProjectiveModule.from_projector(right, n, q)


def random_potential(t, module, rng):
    basis = one_form_span(t.dirac, module.base)
    n, nh = module.size, module.block_dim
    q = dense_module_projector(module)
    raw = [[sum((rng.standard_normal() + 1j * rng.standard_normal()) * b for b in basis)
            for _ in range(n)] for _ in range(n)]
    big = np.zeros((n * nh, n * nh), dtype=complex)
    for i in range(n):
        for j in range(n):
            big[i * nh:(i + 1) * nh, j * nh:(j + 1) * nh] = raw[i][j]
    big = q @ ((big + adjoint(big)) / 2.0) @ q
    table = [[project_onto_span(big[j * nh:(j + 1) * nh, i * nh:(i + 1) * nh], basis)
              for j in range(n)] for i in range(n)]
    return table


def direct_twist_oracle(t, conn):
    """Independent evaluation of the connection twist on simple tensors.

    Computes the coefficient-linear remainder of the Dirac operator over
    the right action, then assembles the twist from the Leibniz rule of the
    frame presentation and the potential, column by column.
    """
    module = conn.module
    right = module.base
    n, nh = module.size, module.block_dim
    d = t.dirac
    _, t_rem, _ = connection_decomposition(t, Tolerance_like())
    eps = t.grading if t.grading is not None else np.eye(nh, dtype=complex)
    gamma_rem = eps @ t_rem  # remainder was computed against eps D
    q = dense_module_projector(module)

    out = np.zeros((n * nh, n * nh), dtype=complex)
    basis_h = np.eye(nh, dtype=complex)
    for slot in range(n):
        for col in range(nh):
            xi = basis_h[col]
            # simple tensor xi (x) u_slot, compressed into the module
            vec = np.zeros((n * nh,), dtype=complex)
            vec[slot * nh + col] = 1.0
            vec = q @ vec
            v_blocks = [vec[k * nh:(k + 1) * nh] for k in range(n)]
            comp = []
            for k in range(n):
                acc = (d - gamma_rem) @ v_blocks[k]
                qkk = [q[k * nh:(k + 1) * nh, j * nh:(j + 1) * nh] for j in range(n)]
                acc2 = np.zeros(nh, dtype=complex)
                for j in range(n):
                    acc2 += qkk[j] @ (gamma_rem @ v_blocks[j])
                pot = np.zeros(nh, dtype=complex)
                if conn.potential is not None:
                    for j in range(n):
                        pot += conn.potential[j][k] @ v_blocks[j]
                comp.append(acc + acc2 + pot)
            out[:, slot * nh + col] = q @ np.concatenate(comp)
    return out @ q


def forward_module(seed):
    """matrix_geometry(2, seed) and the module of its spin^c -> Riemannian
    conversion: block (i, j) of the projector is the pairing (x_i|x_j) of a
    tight frame of the right action."""
    t = matrix_geometry(2, seed=seed)
    right = t.right_algebra()
    xs = parseval_frame(right)
    return t, ProjectiveModule(right, right.pair_coords(xs, xs), right.basis)


def Tolerance_like():
    from ncgeo.linalg import Tolerance
    return Tolerance()


def product_stack_span(dirac, ops):
    """The span of the products [D, b] b' over a stack, from one SVD of the
    stack of all of them, the way `one_form_span` used to build it; ranks
    are cut at 1e-10 max(s_0, |D|), so roundoff commutators span nothing."""
    comms = dirac @ ops - ops @ dirac
    products = (comms[:, None] @ ops[None]).reshape(-1, dirac.size)
    u, s, _ = np.linalg.svd(products.T, full_matrices=False)
    keep = s > 1e-10 * max(s[0] if s.size else 0.0, operator_norm(dirac))
    return u[:, keep].T.reshape((-1,) + ops.shape[1:])


def assert_same_span(span, ref, tol=1e-12):
    """Equal rank and |P - P_ref|_2 <= tol for the orthogonal projectors onto
    the two spans; for equal ranks that is |(1 - P_ref) P|_2."""
    assert len(span) == len(ref)
    if len(ref) == 0:
        return
    flat = span.reshape(len(span), -1).T
    ref_flat = ref.reshape(len(ref), -1).T
    assert operator_norm(flat - ref_flat @ (adjoint(ref_flat) @ flat)) <= tol


def forward_output(seed):
    return spinc_to_riemannian(matrix_geometry(2, seed=seed)).output


def dirac_and(t, algebra):
    return t.dirac, getattr(t, algebra)()


def opposite_case(seed):
    tri = forward_output(seed)
    return tri.dirac, opposite_algebra(tomita_conjugation(tri), tri.cda())


def several_components():
    """A random Hermitian D with the trivial_points(4) algebra, and one with
    a random W(+ M_{n_k} (x) 1_{m_k})W* of three unequal components."""
    rng = np.random.default_rng(31)
    alg = trivial_points(4).algebra()
    blocks = generate_algebra(block_algebra_generators(((1, 2), (2, 1), (2, 2)), rng))
    return [(random_hermitian(rng, 4), alg), (random_hermitian(rng, 8), blocks)]


def roundoff_component():
    """B = C + M_2 on C^3 and a D that couples the two blocks at 1e-13 only:
    the commutators of the C component are roundoff against those of M_2,
    and the rank cut is taken against the largest of all of them."""
    rng = np.random.default_rng(13)
    d = np.zeros((3, 3), dtype=complex)
    d[0, 0] = 1.0
    d[1:, 1:] = random_hermitian(rng, 2)
    e = np.zeros((3, 3, 3), dtype=complex)
    e[0, 0, 0] = 1.0
    e[1, 1:, 1:] = random_complex(rng, (2, 2))
    e[2, 1:, 1:] = random_complex(rng, (2, 2))
    return d + 1e-13 * random_hermitian(rng, 3), generate_algebra(e)


SPAN_CASES = {
    "right_algebra-n2": lambda: dirac_and(matrix_geometry(2, seed=0), "right_algebra"),
    "cda-n2": lambda: dirac_and(matrix_geometry(2, seed=0), "cda"),
    "algebra-n2": lambda: dirac_and(matrix_geometry(2, seed=0), "algebra"),
    "cda-n3": lambda: dirac_and(matrix_geometry(3, seed=0), "cda"),
    "algebra-n3": lambda: dirac_and(matrix_geometry(3, seed=0), "algebra"),
    "forward-cda": lambda: dirac_and(forward_output(0), "cda"),
    "opposite-seed0": lambda: opposite_case(0),
    "opposite-seed7": lambda: opposite_case(7),
    "trivial_points4": lambda: dirac_and(trivial_points(4), "algebra"),
    "trivial_points4-random-dirac": lambda: several_components()[0],
    "three-components": lambda: several_components()[1],
    "two_point": lambda: dirac_and(two_point(1.0), "algebra"),
    "roundoff-component": roundoff_component,
}


class TestOneFormSpan:
    def test_matches_product_loop(self):
        t = matrix_geometry(2, seed=11)
        alg = t.right_algebra()
        span = one_form_span(t.dirac, alg)
        # reference: the list of products [D, b] b' the span used to be built
        # from; a span basis is fixed only up to a unitary, so compare ranks
        # and projectors
        ops = alg.basis
        mats = [(t.dirac @ b - b @ t.dirac) @ b2 for b in ops for b2 in ops]
        assert isinstance(span, np.ndarray) and span.shape[1:] == ops.shape[1:]
        assert_same_span(span, span_basis(mats))

    @pytest.mark.parametrize("case", list(SPAN_CASES))
    def test_module_span_is_product_stack_span(self, case):
        dirac, alg = SPAN_CASES[case]()
        assert alg.wedderburn is not None
        span = one_form_span(dirac, alg)
        flat = span.reshape(len(span), dirac.size)
        assert operator_norm(flat.conj() @ flat.T - np.eye(len(span))) < 1e-12
        assert_same_span(span, product_stack_span(dirac, alg.basis))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_span_residual_is_exactly_zero(self, seed):
        # the one-forms of M_n under a generic Hermitian D are every operator
        rng = np.random.default_rng(seed)
        n = 4
        alg = generate_algebra(random_complex(rng, (2, n, n)))
        dirac = random_hermitian(rng, n)
        assert alg.dim == n * n and alg.wedderburn is not None
        assert len(one_form_span(dirac, alg)) == n * n

    def test_several_components_span_something(self):
        # the module path is exercised beyond a single component
        for dirac, alg in several_components():
            assert len(alg.wedderburn[1]) > 1
            assert len(one_form_span(dirac, alg)) > 0

    def test_data_less_copy_takes_the_product_stack(self):
        # a hand-built copy of an algebra has no Wedderburn data: its span is
        # the product stack's, and the same span as the factored one
        t = matrix_geometry(2, seed=11)
        alg = t.right_algebra()
        hand_built = AlgebraBasis(alg.hilbert_dim, alg.basis)
        span = one_form_span(t.dirac, hand_built)
        assert np.array_equal(span, product_stack_span(t.dirac, alg.basis))
        assert_same_span(span, one_form_span(t.dirac, alg))

    def test_fallback_to_product_stack_when_generation_grows_the_algebra(self):
        # span{E_11} is a non-unital algebra; the unital algebra its basis
        # generates also holds E_22 + E_33, so its data would span more, and
        # the hand-built basis takes the product stack
        rng = np.random.default_rng(5)
        dirac = random_hermitian(rng, 3)
        e11 = np.zeros((1, 3, 3), dtype=complex)
        e11[0, 0, 0] = 1.0
        span = one_form_span(dirac, AlgebraBasis(3, e11))
        assert np.array_equal(span, product_stack_span(dirac, e11))
        assert len(span) == 1

    def test_empty_stack(self):
        span = one_form_span(np.eye(3), AlgebraBasis(3, np.zeros((0, 3, 3))))
        assert span.shape == (0, 3, 3)


class TestTwistedOperator:
    def test_trivial_module_reproduces_dirac(self):
        t = matrix_geometry(2, seed=11)
        conn = grassmann_connection(trivial_module(t, 1))
        dhat, ahat = twisted_operator(t, conn)
        assert np.array_equal(dhat, t.dirac)
        assert operator_norm(ahat) == 0.0

    def test_free_rank_two(self):
        t = matrix_geometry(2, seed=11)
        conn = grassmann_connection(trivial_module(t, 2))
        dhat, _ = twisted_operator(t, conn)
        expected = np.kron(np.eye(2), t.dirac)
        assert operator_norm(dhat - expected) < 1e-12

    def test_matches_direct_evaluation_oracle(self):
        t = matrix_geometry(2, seed=3)
        rng = np.random.default_rng(17)
        for trial in range(4):
            module = random_module(t, 2, rng)
            pot = random_potential(t, module, rng) if trial % 2 else None
            conn = BimoduleConnection(module, pot)
            dhat, _ = twisted_operator(t, conn)
            oracle = direct_twist_oracle(t, conn)
            scale = max(1.0, operator_norm(dhat))
            assert operator_norm(dhat - oracle) / scale < 1e-10

    def test_hermitian_and_square_identity(self):
        t = matrix_geometry(2, seed=5)
        rng = np.random.default_rng(23)
        module = random_module(t, 2, rng)
        q = dense_module_projector(module)
        d_n = np.kron(np.eye(2), t.dirac)
        comp = q @ d_n @ q
        assert operator_norm(comp - adjoint(comp)) < 1e-12 * max(1.0, operator_norm(comp))
        comm = d_n @ q - q @ d_n
        lhs = comp @ comp
        rhs = q @ comm @ comm + q @ d_n @ d_n @ q
        # sign: q [D,q][D,q] q with [D,q] = Dq - qD gives -(q comm comm q)? expand directly
        rhs = q @ (d_n @ q - q @ d_n) @ (d_n @ q - q @ d_n) @ q + q @ d_n @ d_n @ q
        assert operator_norm(lhs - (rhs)) < 1e-10 * max(1.0, operator_norm(lhs))

    def test_bad_potential_rejected(self):
        t = matrix_geometry(2, seed=5)
        module = trivial_module(t, 2)
        nh = t.hilbert_dim
        bad = [[np.zeros((nh, nh), dtype=complex) for _ in range(2)] for _ in range(2)]
        bad[0][0] = np.eye(nh, dtype=complex)  # identity is not a one-form
        with pytest.raises(ValueError):
            twisted_operator(t, BimoduleConnection(module, bad))

    @pytest.mark.parametrize("break_", ["hermiticity", "span"])
    def test_potential_gate_matches_block_loop(self, break_):
        # the batched gate reports the value of the old per-block loop
        t = matrix_geometry(2, seed=3)
        rng = np.random.default_rng(41)
        module = random_module(t, 2, rng)
        table = np.array(random_potential(t, module, rng))
        if break_ == "hermiticity":
            table[0, 1] = table[0, 1] + 1e-3 * (table[0, 1] + np.eye(t.hilbert_dim))
            table[0, 1] = project_onto_span(table[0, 1], one_form_span(t.dirac, module.base))
        else:
            table[1, 1] = table[1, 1] + 1e-3 * np.eye(t.hilbert_dim)
        span = one_form_span(t.dirac, module.base)
        mem = herm = 0.0
        for i in range(2):
            for j in range(2):
                p = table[i, j]
                mem = max(mem, span_residual(p, span))
                herm = max(herm, operator_norm(adjoint(p) - table[j, i]) / max(1.0, operator_norm(p)))
        expected = f"hermiticity (residual {herm:.3e})" if break_ == "hermiticity" \
            else f"one-form span (residual {mem:.3e})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            twisted_operator(t, BimoduleConnection(module, list(table)))

    def test_non_projector_rejected(self):
        t = matrix_geometry(2, seed=5)
        right = t.right_algebra()
        q = 0.5 * np.eye(2 * t.hilbert_dim, dtype=complex)
        with pytest.raises(ValueError):
            twisted_operator(t, grassmann_connection(ProjectiveModule.from_projector(right, 2, q)))

    def test_rejection_names_failing_entries(self):
        t = matrix_geometry(2, seed=5)
        right = t.right_algebra()
        half = 0.5 * np.eye(2 * t.hilbert_dim, dtype=complex)
        with pytest.raises(ValueError, match="module:idempotent") as info:
            twisted_operator(t, grassmann_connection(ProjectiveModule.from_projector(right, 2, half)))
        assert "module:blocks_in_base" not in str(info.value)
        # a rank-one projector whose blocks leave the right action
        v = np.zeros(t.hilbert_dim, dtype=complex)
        v[0] = 1.0
        with pytest.raises(ValueError, match="module:blocks_in_base"):
            twisted_operator(t, grassmann_connection(ProjectiveModule.from_projector(right, 1, np.outer(v, v))))
        with pytest.raises(ValueError, match="shape mismatch"):
            twisted_operator(t, grassmann_connection(ProjectiveModule.from_projector(right, 2, np.eye(3))))

    def test_product_triple_runs_the_same_gate(self):
        t = matrix_geometry(2, seed=5)
        right = t.right_algebra()
        half = 0.5 * np.eye(2 * t.hilbert_dim, dtype=complex)
        with pytest.raises(ValueError, match="module:idempotent"):
            product_triple(t, grassmann_connection(ProjectiveModule.from_projector(right, 2, half)))
        nh = t.hilbert_dim
        bad = [[np.zeros((nh, nh), dtype=complex) for _ in range(2)] for _ in range(2)]
        bad[0][0] = np.eye(nh, dtype=complex)
        with pytest.raises(ValueError, match="one-form span"):
            product_triple(t, BimoduleConnection(trivial_module(t, 2), bad))
        with pytest.raises(ValueError, match="shape mismatch"):
            product_triple(t, grassmann_connection(ProjectiveModule.from_projector(right, 2, np.eye(3))))


class TestRangeBasis:
    """compress_to_range is Q applied to a seeded probe and orthonormalized:
    an isometry onto the range that moves continuously with Q."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_isometry_onto_the_range(self, seed):
        _, module = forward_module(seed)
        q = dense_module_projector(module)
        u = compress_to_range(module)
        assert u.shape == (q.shape[0], round(np.trace(q).real))
        assert operator_norm(adjoint(u) @ u - np.eye(u.shape[1])) <= 1e-12
        assert operator_norm(q - u @ adjoint(u)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    def test_continuous_in_the_projector(self, seed):
        # a 1e-16 move inside the range; an eigenbasis of the degenerate
        # eigenvalue 1 rotates by O(1) under it
        _, module = forward_module(seed)
        q = dense_module_projector(module)
        h = random_hermitian(np.random.default_rng(seed), q.shape[0])
        moved = q + 1e-16 * (q @ h @ q)
        moved = ProjectiveModule.from_projector(module.base, module.size, moved)
        assert np.linalg.norm(compress_to_range(moved) - compress_to_range(module)) <= 1e-12


class TestProductTriple:
    @pytest.mark.parametrize("make", [lambda: trivial_points(3), lambda: matrix_geometry(2, seed=7)],
                             ids=["points3", "mg2-7"])
    def test_rank_zero_module_is_refused(self, make):
        # the zero projector passes the module gate, but its range is empty
        t = make()
        module = ProjectiveModule.from_projector(t.right_algebra(), 1, np.zeros((t.hilbert_dim,) * 2))
        assert validate_module(module).passed
        with pytest.raises(ValueError, match=re.escape("module projector has trace Tr Q = 0.000e+00")):
            product_triple(t, grassmann_connection(module))

    def test_free_module_reproduces_input(self):
        t = matrix_geometry(2, seed=2)
        out, basis, rep = product_triple(t, grassmann_connection(trivial_module(t, 1)))
        assert rep.passed, rep.as_text()
        assert out.hilbert_dim == t.hilbert_dim
        # compressed in an eigenbasis of the identity projector: same triple up to unitary
        assert operator_norm(basis @ out.dirac @ adjoint(basis) - t.dirac) < 1e-10

    def test_rank_one_twist_commutators(self):
        t = matrix_geometry(2, seed=2)
        rng = np.random.default_rng(5)
        module = random_module(t, 2, rng)
        out, basis, rep = product_triple(t, grassmann_connection(module), right_ops=None)
        assert rep.passed, rep.as_text()
        assert rep.entry("product:commutators_descend").residual < 1e-10


def random_twist(seed, with_potential):
    t = matrix_geometry(2, seed=seed)
    rng = np.random.default_rng(31)
    module = random_module(t, 2, rng)
    return t, module, random_potential(t, module, rng) if with_potential else None


PRODUCT_CASES = {
    "forward-0": lambda: forward_module(0) + (None,),
    "forward-7": lambda: forward_module(7) + (None,),
    "random": lambda: random_twist(2, False),
    "random-potential": lambda: random_twist(4, True),
}


@pytest.fixture(scope="module", params=sorted(PRODUCT_CASES))
def product_case(request):
    return PRODUCT_CASES[request.param]()


class TestCarrierSizeProduct:
    """product_triple against the module-size compressions U^* Q X Q U it
    assembled before it worked on the range basis U."""

    def test_outputs_are_the_module_size_compressions(self, product_case):
        t, module, pot = product_case
        out, u, rep = product_triple(t, BimoduleConnection(module, pot))
        assert rep.passed, rep.as_text()
        q, n = dense_module_projector(module), module.size
        d_big = block_diag(t.dirac, n)
        if pot is not None:
            d_big = d_big + from_blocks(np.asarray(pot).swapaxes(0, 1))
        assert_rel_close(out.dirac, adjoint(u) @ q @ d_big @ q @ u)
        for a, b in zip(t.algebra_gens, out.algebra_gens):
            assert_rel_close(b, adjoint(u) @ block_diag(a, n) @ u)
        assert_rel_close(out.grading, adjoint(u) @ block_diag(t.grading, n) @ u)

    def test_right_ops_are_the_module_size_compressions(self):
        t = matrix_geometry(2, seed=8)
        module = trivial_module(t, 2)
        ops = [block_diag(b, 2) for b in module.base.basis]
        out, u, rep = product_triple(t, grassmann_connection(module), right_ops=ops)
        assert rep.passed, rep.as_text()
        q = dense_module_projector(module)
        for c, c_out in zip(ops, out.right_action_gens):
            assert_rel_close(c_out, adjoint(u) @ q @ c @ q @ u)

    def test_rotated_projector_fails_descent(self):
        # rotated by exp(1e-8 i H) the projector still passes the module gate,
        # but the left action no longer keeps its range
        t, module = forward_module(0)
        q = dense_module_projector(module)
        h = random_hermitian(np.random.default_rng(11), q.shape[0])
        rot = herm_apply(lambda x: np.exp(1e-8j * x), h / operator_norm(h))
        moved = ProjectiveModule.from_projector(module.base, module.size, rot @ q @ adjoint(rot))
        assert validate_module(moved).passed
        _, _, rep = product_triple(t, grassmann_connection(moved))
        entry = rep.entry("product:commutators_descend")
        assert entry.status == "fail" and entry.residual > 1e-9

    def test_odd_projector_drops_grading(self):
        # (1 + s2 (x) 1) / 2 has blocks in the right action span{1, s2} (x) 1
        # but does not commute with the grading s3 (x) 1
        t = two_qubit_triple(["1", "s2"])
        q = (np.eye(4) + t.right_action_gens[1]) / 2.0
        out, _, rep = product_triple(t, grassmann_connection(ProjectiveModule.from_projector(t.right_algebra(), 1, q)))
        assert out.grading is None
        assert rep.entry("product:grading_dropped").status == "pass"
        assert rep.entry("product:commutators_descend").residual < 1e-12

    def test_three_module_size_norms(self, monkeypatch):
        t, module = forward_module(7)
        size = module.size * module.block_dim
        shapes, eighs = spy_norm_shapes(monkeypatch), spy_eigh_shapes(monkeypatch)
        out, _, _ = product_triple(t, grassmann_connection(module))
        assert out.hilbert_dim < size
        # all three in validate_module; the default metric needs no eigh
        assert shapes.count((size, size)) == 3
        assert eighs == []


class TestConnectionCondition:
    def test_unit_frame_trivial_module(self):
        t = matrix_geometry(2, seed=2)
        conn = grassmann_connection(trivial_module(t, 1))
        rep = connection_condition_check(t, conn)
        assert rep.passed
        assert rep.entry("connection_condition:bounded_pair").residual < 1e-12

    def test_full_frame_random_module(self):
        t = matrix_geometry(2, seed=9)
        rng = np.random.default_rng(41)
        module = random_module(t, 2, rng)
        conn = BimoduleConnection(module, random_potential(t, module, rng))
        rep = connection_condition_check(t, conn)
        assert rep.passed, rep.as_text()
        assert rep.entry("connection_condition:bounded_pair").residual < 1e-9

    def test_sign_error_detected(self):
        t = matrix_geometry(2, seed=9)
        rng = np.random.default_rng(41)
        module = random_module(t, 2, rng)
        conn = grassmann_connection(module)
        rep = connection_condition_check(t, conn, sign_flip=True)
        assert not rep.passed
        assert rep.entry("connection_condition:bounded_pair").residual > 0.1


class TestConnectionDecomposition:
    def test_remainder_is_coefficient_linear(self):
        t = matrix_geometry(2, seed=6)
        gamma_table, t_rem, rep = connection_decomposition(t)
        assert rep.passed
        assert rep.entry("decomposition:remainder_coefficient_linear").residual < 1e-10

    def test_perturbation_recovered(self):
        # a coefficient-linear perturbation lives in the commutant of the
        # right action; the left action algebra provides such elements
        t = matrix_geometry(2, seed=6)
        _, t_base, _ = connection_decomposition(t)
        left = t.algebra()
        rng = np.random.default_rng(12)
        m = sum(rng.standard_normal() * b for b in left.basis)
        m = (m + adjoint(m)) / 2.0
        shifted = SpectralTripleData(
            t.hilbert_dim, t.algebra_gens, t.dirac + m, t.grading, 0,
            right_action_gens=t.right_action_gens,
            orientation_cycle=t.orientation_cycle,
        )
        _, t_shift, _ = connection_decomposition(shifted)
        eps = t.grading
        assert operator_norm((t_shift - t_base) - eps @ m) < 1e-10 * max(1.0, operator_norm(m))

    def test_rejects_missing_right_action(self):
        t = SpectralTripleData(2, [np.eye(2)], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            connection_decomposition(t)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: matrix_geometry(2, seed=6), id="mgeom2"),
        pytest.param(lambda: matrix_geometry(3, seed=0), id="mgeom3"),
        pytest.param(lambda: two_qubit_triple(["1", "s2"]), id="two_qubit"),
    ])
    def test_remainder_matches_expectation_loop(self, make):
        t = make()
        _, t_rem, _ = connection_decomposition(t)
        ref = looped_remainder(t)
        assert np.linalg.norm(t_rem - ref) <= 1e-12 * np.linalg.norm(ref)


def looped_remainder(t):
    """Reference: eps D minus the connection part, column k of which is
    sum_x [eps D, E(|e_k><x|)] x with one expectation per (k, x)."""
    right = t.right_algebra()
    n = t.hilbert_dim
    eps = t.grading if t.grading is not None else np.eye(n, dtype=complex)
    ed = eps @ t.dirac
    d_gamma = np.zeros((n, n), dtype=complex)
    for k, e in enumerate(np.eye(n, dtype=complex)):
        for x in parseval_frame(right):
            coeff = right.expectation(np.outer(e, np.conj(x)))
            d_gamma[:, k] += (ed @ coeff - coeff @ ed) @ x
    return ed - d_gamma


class TestGradedFirstOrder:
    """The twisting data follow the graded first-order rule of
    check_first_order: on H = C^2 (x) C^2 with grading s3 (x) 1 the right
    algebra span{1, s2} (x) 1 has the odd element s2 (x) 1, which
    anticommutes with the odd [D, a]."""

    def test_residual_of_odd_right_element_vanishes(self):
        t = two_qubit_triple(["1", "s2"])
        assert max(first_order_residuals(t, t.right_algebra().basis)) < 1e-12

    def test_decomposition_accepts_odd_right_element(self):
        _, _, rep = connection_decomposition(two_qubit_triple(["1", "s2"]))
        entry = rep.entry("decomposition:remainder_coefficient_linear")
        assert entry.status == "pass"
        assert entry.residual < 1e-12

    def test_graded_violation_detected(self):
        # s1 (x) 1 commutes with [D, a] but is odd, so the graded rule fails it
        t = two_qubit_triple(["1", "s1"])
        assert max(first_order_residuals(t, t.right_algebra().basis)) > 0.1
        with pytest.raises(ValueError, match="first-order condition fails"):
            connection_decomposition(t)


class TestTwistGate:
    """The twisting core gates the first-order condition at max(rel, 1e-7)
    Frobenius first; where the Frobenius bound misses the gate the exact
    residual decides, and a failure names it."""

    GATE = 1e-7

    def twisting(self, ratio):
        # the right basis of matrix_geometry(2, 0) moved along a Hermitian x
        # so that the exact first-order residual is ratio times the gate
        t = matrix_geometry(2, seed=0)
        right = t.right_algebra().basis
        x = random_hermitian(np.random.default_rng(4), t.hilbert_dim)
        slope = max(first_order_residuals(t, right + 1e-6 * x)) / 1e-6
        base = AlgebraBasis(t.hilbert_dim, right + ratio * self.GATE / slope * x)
        conn = BimoduleConnection(ProjectiveModule.from_projector(base, 1, np.eye(t.hilbert_dim)))
        return t, conn, max(first_order_residuals(t, base.basis))

    def test_just_above_the_gate_raises_with_the_exact_value(self, monkeypatch):
        t, conn, fo = self.twisting(1.2)
        assert self.GATE < fo < 1.3 * self.GATE
        # one evaluation, under the gate as its floor, decides and reports
        floors = []
        real = kasparov.first_order_residuals
        monkeypatch.setattr(kasparov, "first_order_residuals",
                            lambda *args, floor: floors.append(floor) or real(*args, floor=floor))
        with pytest.raises(ValueError, match=re.escape(f"first-order condition fails "
                                                       f"for the twisting data ({fo:.3e})")):
            kasparov._twist(t, conn, DEFAULT_TOL, compress_to_range)
        assert floors == [self.GATE]

    def test_just_below_the_gate_passes_on_the_2_norms(self):
        t, conn, fo = self.twisting(0.8)
        assert fo < self.GATE
        assert not first_order_within_frobenius(t, conn.module.base.basis, self.GATE)
        u, _, _ = kasparov._twist(t, conn, DEFAULT_TOL, compress_to_range)
        assert u.shape == (t.hilbert_dim, t.hilbert_dim)


def first_order_within_frobenius(t, right, bound):
    """Whether every first-order commutator has Frobenius norm within bound."""
    gens = np.asarray(t.algebra_gens)
    das = t.dirac @ gens - gens @ t.dirac
    right = np.asarray(right)
    comms = [gens[:, None] @ right[None] - right[None] @ gens[:, None],
             das[:, None] @ right[None] - (t.grading @ right @ t.grading)[None] @ das[:, None]]
    return all(np.max(np.linalg.norm(c, axis=(-2, -1))) <= bound for c in comms)


def kernel_rank_index(t, p):
    """Reference index: ranks of the odd block of the compressed Dirac
    operator between the grading's eigenspaces on the range of p."""
    scalars = AlgebraBasis(len(p), np.eye(len(p), dtype=complex)[None] / np.sqrt(len(p)))
    u = compress_to_range(ProjectiveModule.from_projector(scalars, 1, p))
    vals, vecs = np.linalg.eigh(adjoint(u) @ t.grading @ u)
    plus = vecs[:, vals > 0]
    minus = vecs[:, vals < 0]
    block = adjoint(minus) @ (adjoint(u) @ t.dirac @ u) @ plus
    svals = np.linalg.svd(block, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * max(svals[0], 1e-300))) if svals.size else 0
    return (plus.shape[1] - rank) - (minus.shape[1] - rank)


def random_graded_projector(grading, rng):
    """A random projector commuting with the grading: a random projector
    of random rank inside each eigenspace of the grading."""
    vals, vecs = np.linalg.eigh(grading)
    cols = []
    for side in (vecs[:, vals > 0], vecs[:, vals < 0]):
        k = int(rng.integers(0, side.shape[1] + 1))
        q, _ = np.linalg.qr(random_complex(rng, (side.shape[1], max(k, 1))))
        cols.append(side @ q[:, :k])
    v = np.hstack(cols)
    return v @ adjoint(v)


PAIRING_CASES = {
    "two_point": lambda: two_point(1.0),
    "trivial_points_3_forward": lambda: spinc_to_riemannian(trivial_points(3)).output,
    "mgeom2_s13": lambda: matrix_geometry(2, seed=13),
}


class TestIndexPairing:
    def test_zero_dirac_graded_dimensions(self):
        t = SpectralTripleData(5, [np.eye(5)], np.zeros((5, 5)),
                               np.diag([1.0, 1.0, 1.0, -1.0, -1.0]).astype(complex))
        assert index_pairing(t, np.eye(5, dtype=complex)) == 1  # 3 - 2

    def test_zero_projector(self):
        t = SpectralTripleData(4, [np.eye(4)], np.zeros((4, 4)),
                               np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        assert index_pairing(t, np.zeros((4, 4), dtype=complex)) == 0

    def test_matches_kernel_rank_oracle(self):
        t = matrix_geometry(2, seed=13)
        # rank-one projector in the left action algebra
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        p = np.kron(np.kron(e11, np.eye(2)), np.eye(2))
        assert index_pairing(t, p) == kernel_rank_index(t, p)

    @pytest.mark.parametrize("name", sorted(PAIRING_CASES))
    def test_trace_of_graded_projector(self, name):
        # the index is Tr(g P) whatever D is: with D replaced by 0 or moved
        # by an odd perturbation it stays Tr(g P), the kernel-rank oracle's value
        t = PAIRING_CASES[name]()
        rng = np.random.default_rng(17)
        for _ in range(8):
            p = random_graded_projector(t.grading, rng)
            idx = index_pairing(t, p)
            assert idx == round(float(np.trace(t.grading @ p).real)) == kernel_rank_index(t, p)
            h = random_hermitian(rng, t.hilbert_dim)
            h = (h - t.grading @ h @ t.grading) / 2.0
            for dirac in (np.zeros_like(t.dirac), t.dirac + h, t.dirac + 1e-3 * h):
                moved = SpectralTripleData(t.hilbert_dim, t.algebra_gens, dirac, t.grading, 0)
                assert index_pairing(moved, p) == idx == kernel_rank_index(moved, p)

    def test_homotopy_stability(self):
        t = matrix_geometry(2, seed=13)
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        p = np.kron(np.kron(e11, np.eye(2)), np.eye(2))
        base = index_pairing(t, p)
        rng = np.random.default_rng(29)
        for _ in range(5):
            h = random_hermitian(rng, t.hilbert_dim)
            h = (h - t.grading @ h @ t.grading) / 2.0  # keep the perturbation odd
            shifted = SpectralTripleData(
                t.hilbert_dim, t.algebra_gens, t.dirac + 1e-3 * h, t.grading, 0)
            assert index_pairing(shifted, p) == base

    def test_rejects_non_commuting_projector(self):
        t = matrix_geometry(2, seed=13)
        nh = t.hilbert_dim
        v = np.zeros(nh, dtype=complex)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        p = np.outer(v, v.conj())
        if operator_norm(p @ t.grading - t.grading @ p) > 1e-6:
            with pytest.raises(ValueError):
                index_pairing(t, p)


class TestProductRightAction:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_respects_module_is_the_projector_commutator(self, seed):
        # the carrier-size residual against |[Q, c]| / max(1, |c|) at module
        # size, for right ops that commute with Q and for random ones
        t, module = forward_module(seed)
        q = dense_module_projector(module)
        rng = np.random.default_rng(seed)
        commuting = [block_diag(a, module.size) for a in t.algebra_gens]
        generic = list(random_complex(rng, (2,) + q.shape))
        for ops in (commuting, generic):
            _, _, rep = product_triple(t, grassmann_connection(module), right_ops=ops)
            got = rep.entry("product:right_action_respects_module").residual
            ref = max(operator_norm(q @ c - c @ q) / max(1.0, operator_norm(c)) for c in ops)
            if ops is commuting:
                assert got < 1e-13 and ref < 1e-13
            else:
                assert abs(got - ref) <= 1e-12 * ref and ref > 0.1

    def test_right_action_transported(self):
        # twist by a free rank-one module carrying a commuting right action
        t = matrix_geometry(2, seed=8)
        right = t.right_algebra()
        module = ProjectiveModule.from_projector(right, 1, np.eye(t.hilbert_dim, dtype=complex))
        conn = grassmann_connection(module)
        ops = [b.copy() for b in right.basis]
        out, basis, rep = product_triple(t, conn, right_ops=ops)
        assert rep.passed, rep.as_text()
        assert rep.entry("product:first_order_for_right_action").residual < 1e-10
        assert out.right_action_gens is not None
        # transported action still commutes with the transported algebra
        worst = max(operator_norm(a @ b - b @ a)
                    for a in out.algebra_gens for b in out.right_action_gens)
        assert worst < 1e-10
