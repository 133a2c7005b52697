import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_diag, projector_gap
from ncgeo.linalg import (
    Tolerance,
    adjoint,
    commutator_residual,
    from_blocks,
    herm_eig,
    is_hermitian,
    max_frobenius,
    max_operator_norm,
    max_span_residual,
    null_space,
    operator_norm,
    project_onto_span,
    projector_gap_bound,
    pull_back,
    random_complex,
    random_hermitian,
    rel_residual,
    scaled_residual,
    span_basis,
    span_coords,
    span_residual,
    to_blocks,
    unit_floor_norms,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def power_iteration_norm(m, iters=2000, seed=11):
    rng = np.random.default_rng(seed)
    g = adjoint(m) @ m
    v = random_complex(rng, g.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = g @ v
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(adjoint(vecs) @ vecs, np.eye(3))

    def test_diagonal(self):
        vals, _ = herm_eig(np.diag([2.0, -1.0]))
        assert np.allclose(vals, [-1.0, 2.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 12)
        vals, vecs = herm_eig(h)
        recon = vecs @ np.diag(vals) @ adjoint(vecs)
        assert operator_norm(recon - h) / operator_norm(h) < 1e-12

    def test_positive_matrix_eigenvalues(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, (9, 9))
        p = adjoint(g) @ g
        vals, _ = herm_eig(p)
        assert vals[0] >= -1e-10 * operator_norm(p)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSpanBasis:
    def test_multiples_collapse(self):
        basis = span_basis([np.eye(2), 2 * np.eye(2)])
        assert len(basis) == 1

    def test_pauli_words_gram_rank(self):
        mats = [SIGMA1, SIGMA3, SIGMA1 @ SIGMA3]
        basis = span_basis(mats)
        gram = np.array([[np.vdot(a, b) for b in mats] for a in mats])
        assert len(basis) == np.linalg.matrix_rank(gram)
        assert len(basis) == 3

    def test_empty(self):
        assert len(span_basis([])) == 0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        mats = [random_complex(rng, (3, 3)) for _ in range(5)]
        basis = span_basis(mats)
        again = span_basis(basis)
        assert len(again) == len(basis)

    def test_inputs_in_span(self):
        rng = np.random.default_rng(9)
        mats = [random_complex(rng, (4, 4)) for _ in range(3)]
        mats.append(mats[0] + 0.5 * mats[1])
        basis = span_basis(mats)
        assert len(basis) == 3
        for m in mats:
            assert span_residual(m, basis) < 1e-9

    def test_list_and_stacked_basis_agree(self):
        rng = np.random.default_rng(13)
        basis = span_basis([random_complex(rng, (3, 3)) for _ in range(4)])
        x = random_complex(rng, (3, 3))
        for b in (basis, []):
            stacked = np.asarray(b, dtype=complex).reshape(-1, 3, 3)
            coords = [np.vdot(m, x) for m in b]
            assert np.allclose(span_coords(x, b), coords, rtol=0, atol=1e-12)
            assert np.allclose(span_coords(x, stacked), coords, rtol=0, atol=1e-12)
            proj = sum((c * m for c, m in zip(coords, b)), np.zeros((3, 3), dtype=complex))
            assert np.allclose(project_onto_span(x, b), proj, rtol=0, atol=1e-12)
            assert np.allclose(project_onto_span(x, stacked), proj, rtol=0, atol=1e-12)
            assert abs(span_residual(x, b) - span_residual(x, stacked)) < 1e-12
        assert span_coords(x, []).shape == (0,)
        assert np.array_equal(project_onto_span(x, []), np.zeros((3, 3)))
        assert span_residual(x, []) == pytest.approx(1.0)

    def test_batched_residuals_match_loop(self):
        rng = np.random.default_rng(17)
        basis = span_basis([random_complex(rng, (4, 4)) for _ in range(6)])
        inside = [sum(rng.standard_normal() * b for b in basis) for _ in range(3)]
        xs = np.stack(inside + [random_complex(rng, (4, 4)) for _ in range(5)])
        loop = [span_residual(x, basis) for x in xs]
        assert max(loop[:3]) < 1e-12 and min(loop[3:]) > 0.1
        for b in (basis, np.asarray(basis), []):
            for part in (xs, xs[:3], xs[3:]):
                worst = max_span_residual(part, b)
                assert worst == max(loop_span_residuals(part, b))
                assert abs(worst - max(span_residual(x, b) for x in part)) <= 1e-12
        assert max_span_residual(np.zeros((0, 4, 4)), basis) == 0.0

    @pytest.mark.parametrize("size", [1e-14, 1e-3, 10.0])
    def test_gate_is_the_residual_bound(self, size):
        # a membership gate reads max_span_residual(..., floor=bound) > bound:
        # the Frobenius norms settle it when they are within the bound, the
        # 2-norms otherwise, and the value is max(bound, the residual)
        rng = np.random.default_rng(19)
        basis = span_basis([random_complex(rng, (4, 4)) for _ in range(6)])
        xs = np.stack([sum(rng.standard_normal() * b for b in basis) + size * random_complex(rng, (4, 4))
                       for _ in range(5)])
        worst = max_span_residual(xs, basis)
        flat = xs.reshape(len(xs), -1)
        b = basis.reshape(len(basis), -1)
        fro = float(np.max(np.linalg.norm(flat - (flat @ b.conj().T) @ b, axis=1)))
        assert worst < fro
        for bound in (0.5 * worst, worst, 0.5 * (worst + fro), fro, 2.0 * fro):
            gated = max_span_residual(xs, basis, floor=bound)
            assert gated == max(bound, worst)
            assert (gated > bound) == (worst > bound)
        assert max_span_residual(np.zeros((0, 4, 4)), basis, floor=0.0) == 0.0


def loop_span_residuals(xs, basis):
    """Reference for max_span_residual: the residuals of the batched projection,
    then one 2-norm per element.  `span_residual` projects one matrix at a
    time (a matrix-vector product), which rounds differently."""
    flat = xs.reshape(len(xs), -1)
    b = np.asarray(basis, dtype=complex).reshape(-1, flat.shape[1])
    resid = (flat - (flat @ b.conj().T) @ b).reshape(xs.shape)
    return [operator_norm(r) / max(1.0, operator_norm(x)) for r, x in zip(resid, xs)]


class TestSpanFormat:
    """Spans and kernels are stacked arrays: one element per leading index."""

    def test_span_basis_shape(self):
        rng = np.random.default_rng(21)
        mats = random_complex(rng, (4, 2, 3))
        mats[3] = mats[0] - 2.0 * mats[1]
        basis = span_basis(mats)
        assert isinstance(basis, np.ndarray) and basis.shape == (3, 2, 3)
        gram = basis.reshape(3, -1).conj() @ basis.reshape(3, -1).T
        assert np.allclose(gram, np.eye(3), rtol=0, atol=1e-12)
        assert np.array_equal(span_basis(list(mats)), basis)

    def test_span_basis_empty_and_zero(self):
        assert span_basis(np.zeros((0, 2, 3))).shape == (0, 2, 3)
        assert span_basis(np.zeros((3, 2, 2))).shape == (0, 2, 2)

    def test_span_basis_rejects_bad_input(self):
        with pytest.raises(ValueError):
            span_basis([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            span_basis(np.full((1, 2, 2), np.nan))

    def test_null_space_rows(self):
        rng = np.random.default_rng(22)
        a = random_complex(rng, (3, 5))
        kern = null_space(a)
        assert isinstance(kern, np.ndarray) and kern.shape == (2, 5)
        assert np.allclose(a @ kern.T, 0.0, rtol=0, atol=1e-12)
        assert np.allclose(kern.conj() @ kern.T, np.eye(2), rtol=0, atol=1e-12)

    def test_null_space_empty_and_full(self):
        rng = np.random.default_rng(23)
        assert null_space(random_complex(rng, (6, 4))).shape == (0, 4)
        assert np.array_equal(null_space(np.zeros((0, 3))), np.eye(3))
        kern = null_space(np.zeros((2, 3)))
        assert kern.shape == (3, 3)
        assert np.allclose(kern.conj() @ kern.T, np.eye(3), rtol=0, atol=1e-12)


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(21)
        m = random_complex(rng, (8, 8))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), rel=1e-8)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(2)
        for k in range(5):
            m = random_complex(rng, (6, 6))
            assert abs(operator_norm(m) - operator_norm(adjoint(m))) <= 1e-12 * operator_norm(m)


def sweep_max_norm(stack, scale=None, floor=0.0):
    """Reference for max_operator_norm: every 2-norm of the stack, then the maximum."""
    norms = np.linalg.norm(stack, 2, axis=(-2, -1))
    if scale is not None:
        norms = norms / np.maximum(1.0, scale)
    return max(floor, float(np.max(norms))) if norms.size else floor


ELEMENT_KINDS = ("random", "rank_one", "zero", "rotated_copy")


@st.composite
def norm_stacks(draw):
    """A stack with leading shape `lead`, mixed element kinds, a scale that
    broadcasts against `lead` (or None) and a floor below or above the maximum.

    Nonzero elements have 2-norms within 20 % of one magnitude, while their
    Frobenius norms spread by the rank, so the Frobenius order is not the
    2-norm order.  At magnitude 1e-170 the squared entries underflow to zero.
    """
    lead = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=2)))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    magnitude = draw(st.sampled_from((1.0, 1e-170)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(lead))
    kinds = draw(st.lists(st.sampled_from(ELEMENT_KINDS), min_size=count, max_size=count))
    mats = []
    for kind in kinds:
        if kind == "rotated_copy" and mats:
            mats.append(-1j * mats[-1])
            continue
        if kind == "rank_one":
            m = np.outer(random_complex(rng, rows), random_complex(rng, cols))
        elif kind == "zero":
            m = np.zeros((rows, cols), dtype=complex)
        else:
            m = random_complex(rng, (rows, cols))
        if m.any():
            m = m * (magnitude * rng.uniform(0.8, 1.0) / np.linalg.norm(m, 2))
        mats.append(m)
    stack = np.array(mats, dtype=complex).reshape(lead + (rows, cols))
    scale_kind = draw(st.sampled_from(("none", "scalar", "per_element", "last_axis")))
    scale = {"none": None,
             "scalar": float(rng.uniform(0.0, 3.0)),
             "per_element": rng.uniform(0.0, 3.0, size=lead),
             "last_axis": rng.uniform(0.0, 3.0, size=lead[-1:])}[scale_kind]
    top = sweep_max_norm(stack, scale)
    floor = {"zero": 0.0, "below": 0.5 * top, "above": 1.5 * top + 1e-3}[
        draw(st.sampled_from(("zero", "below", "above")))]
    return stack, scale, floor


class TestMaxOperatorNorm:
    @settings(max_examples=300, deadline=None)
    @given(norm_stacks())
    def test_equals_full_sweep(self, case):
        stack, scale, floor = case
        assert max_operator_norm(stack, scale, floor) == sweep_max_norm(stack, scale, floor)

    def test_empty_stack_gives_floor(self):
        assert max_operator_norm(np.zeros((0, 3, 3), dtype=complex)) == 0.0
        assert max_operator_norm(np.zeros((0, 3, 3), dtype=complex), floor=0.25) == 0.25

    def test_nan_propagates(self):
        rng = np.random.default_rng(5)
        stack = random_complex(rng, (6, 4, 4))
        stack[3, 1, 2] = np.nan
        assert np.isnan(max_operator_norm(stack))
        assert np.isnan(max_operator_norm(stack, floor=1e6))
        scale = np.ones(6)
        scale[2] = np.nan
        assert np.isnan(max_operator_norm(random_complex(rng, (6, 4, 4)), scale))

    def test_prunes_dominated_elements(self, monkeypatch):
        rng = np.random.default_rng(8)
        stack = 1e-6 * random_complex(rng, (200, 6, 6))
        stack[117] *= 1e6
        measured = []
        real = np.linalg.norm

        def counted(x, *args, **kwargs):
            if args[:1] == (2,):
                measured.append(len(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        value = max_operator_norm(stack)
        monkeypatch.undo()
        assert value == sweep_max_norm(stack)
        assert sum(measured) < 10


UNIT_KINDS = ("random", "zero", "rank_one_unit", "unit_frobenius", "near_one")


@st.composite
def unit_floor_stacks(draw):
    """Stacks around the unit floor: random elements of 2-norm 0.1 to 10, the
    zero matrix, rank-one elements of unit Frobenius norm (2-norm 1 up to
    rounding), elements of unit Frobenius norm and any rank (the elements of
    an orthonormal basis), and elements of 2-norm 1 + k 1e-13 for |k| <= 20,
    just above and below 1, inside and outside the 1e-12 slack."""
    lead = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(lead))
    kinds = draw(st.lists(st.sampled_from(UNIT_KINDS), min_size=count, max_size=count))
    mats = [unit_kind_matrix(kind, rows, cols, rng) for kind in kinds]
    return np.array(mats, dtype=complex).reshape(lead + (rows, cols))


def unit_kind_matrix(kind, rows, cols, rng):
    """One (rows, cols) matrix of a kind of UNIT_KINDS."""
    if kind == "zero":
        return np.zeros((rows, cols), dtype=complex)
    if kind == "rank_one_unit" or (kind == "near_one" and rng.uniform() < 0.5):
        m = np.outer(random_complex(rng, rows), random_complex(rng, cols))
    else:
        m = random_complex(rng, (rows, cols))
    if kind in ("rank_one_unit", "unit_frobenius"):
        return m / np.linalg.norm(m)
    if kind == "near_one":
        return m * ((1.0 + 1e-13 * rng.integers(-20, 21)) / np.linalg.norm(m, 2))
    return m * (rng.uniform(0.1, 10.0) / np.linalg.norm(m, 2))


class TestUnitFloorNorms:
    @settings(max_examples=300, deadline=None)
    @given(unit_floor_stacks())
    def test_equals_the_floored_2_norms(self, stack):
        ref = np.maximum(1.0, np.linalg.norm(stack, 2, axis=(-2, -1)))
        assert np.array_equal(unit_floor_norms(stack), ref)

    def test_bounds_settle_orthonormal_and_small_elements(self, monkeypatch):
        rng = np.random.default_rng(12)
        basis = span_basis(random_complex(rng, (16, 4, 4)))
        small = 0.2 * random_complex(rng, (8, 4, 4)) / 4.0
        units = np.zeros((4, 4, 4), dtype=complex)
        units[np.arange(4), np.arange(4), np.arange(4)] = 1.0
        measured = []
        real = np.linalg.norm

        def counted(x, *args, **kwargs):
            if args[:1] == (2,):
                measured.append(len(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        settled = unit_floor_norms(np.concatenate([basis, small]))
        assert measured == []
        # rank-one units have 2-norm 1 to rounding: only an SVD tells
        assert np.array_equal(unit_floor_norms(units), np.ones(4))
        assert measured == [4]
        assert np.array_equal(settled, np.ones(24))

    def test_empty_and_nan(self):
        assert unit_floor_norms(np.zeros((0, 3, 3))).shape == (0,)
        # an element with a NaN is not floored to 1: it takes the 2-norm,
        # which LAPACK refuses or returns as NaN
        stack = np.eye(3, dtype=complex)[None].repeat(2, axis=0) / 3.0
        stack[1, 0, 1] = np.nan
        try:
            value = unit_floor_norms(stack)[1]
        except np.linalg.LinAlgError:
            return
        assert np.isnan(value)


class TestProjectorGap:
    @pytest.mark.parametrize("n, r", [(12, 5), (12, 4), (7, 7), (6, 0)])
    def test_is_the_frobenius_norm_of_the_difference(self, n, r):
        rng = np.random.default_rng(n + r)
        q = random_complex(rng, (n, n))
        u = random_complex(rng, (n, r))
        ref = np.linalg.norm(q - u @ adjoint(u))
        assert abs(projector_gap(q, u) - ref) <= 1e-14 * ref

    def test_bounds_the_2_norm_of_a_projector_difference(self):
        rng = np.random.default_rng(31)
        u = np.linalg.qr(random_complex(rng, (10, 3)))[0]
        v = np.linalg.qr(u + 1e-3 * random_complex(rng, (10, 3)))[0]
        q = v @ adjoint(v)
        two = operator_norm(q - u @ adjoint(u))
        assert two <= projector_gap(q, u) <= np.sqrt(6) * two
        assert projector_gap(u @ adjoint(u), u) < 1e-15


def random_isometry(rng, n, r):
    return np.linalg.qr(random_complex(rng, (n, r)))[0]


def rotated(rng, w, angle):
    """w moved by exp(i angle h) for a random Hermitian h of 2-norm 1."""
    vals, vecs = np.linalg.eigh(random_hermitian(rng, len(w)))
    return (vecs * np.exp(1j * angle * vals / np.max(np.abs(vals)))) @ adjoint(vecs) @ w


def gap_terms(q, v):
    """The arguments of projector_gap_bound, formed densely."""
    r = v.shape[1]
    return (np.linalg.norm(q @ v - v), np.linalg.norm(adjoint(v) @ v - np.eye(r)),
            abs(np.trace(q).real - r), np.linalg.norm(q @ q - q), len(q))


class TestProjectorGapBound:
    """The carrier-size bound on |Q - V V^*|_F against the dense Frobenius
    norm `projector_gap`, on rank-r projectors Q = W W^* and isometries V."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), data=st.data())
    def test_dominates_the_dense_gap_and_matches_it_for_a_projector(self, seed, n, data):
        r = data.draw(st.integers(1, n - 1), label="r")
        rng = np.random.default_rng(seed)
        w = random_isometry(rng, n, r)
        q = w @ adjoint(w)
        far, near = random_isometry(rng, n, r), rotated(rng, w, 1e-9)
        gaps = [(projector_gap(q, v), projector_gap_bound(*gap_terms(q, v))) for v in (far, near)]
        for dense, bound in gaps:
            # up to the rounding of the dense products, an ulp of |Q|_F = sqrt(r)
            assert bound >= dense - 1e-15
        (dense, bound), (dense_near, bound_near) = gaps
        # sqrt(2) |Q V - V|_F is the gap of two rank-r projectors; the other
        # terms are rounding
        assert abs(bound - dense) <= 1e-12 * dense
        assert bound_near - dense_near <= 1e-13

    def test_the_expanded_square_cancels(self):
        # |Q|_F^2 - 2 Re Tr(V^* Q V) + r cancels to about r eps, so its root
        # reads some 1e-8 to 1e-7 on pairs 1e-9 apart, above the 1e-8 gate of
        # convert:module_projector; the bound reads the gap
        errors = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            w = random_isometry(rng, 40, 7)
            q = w @ adjoint(w)
            v = rotated(rng, w, 1e-9)
            dense = projector_gap(q, v)
            square = np.linalg.norm(q) ** 2 - 2.0 * np.trace(adjoint(v) @ q @ v).real + 7
            errors.append(abs(np.sqrt(abs(square)) - dense))
            assert 0.0 <= projector_gap_bound(*gap_terms(q, v)) - dense <= 1e-13
        assert np.median(errors) > 1e-8

    @pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
    def test_each_defect_enters_with_its_stated_weight(self, delta):
        # V = (1 + delta) W has Q V = V and |Q - V V^*|_F = |V^* V - 1|_F =
        # ((1 + delta)^2 - 1) sqrt(r), the bound's isometry term alone;
        # Q = W W^* + delta x x^* with x off the range has
        # |Q - W W^*|_F = delta and |Q^2 - Q|_F = e = delta (1 - delta), and
        # its idempotency term reads (1 + sqrt(2)) e / (1 - 2 e)
        rng = np.random.default_rng(6)
        w = random_isometry(rng, 9, 4)
        q = w @ adjoint(w)
        v = (1.0 + delta) * w
        ratio = projector_gap_bound(*gap_terms(q, v)) / projector_gap(q, v)
        assert ratio == pytest.approx(1.0, rel=1e-5)
        x = (np.eye(9) - q) @ random_complex(rng, 9)
        x /= np.linalg.norm(x)
        moved = q + delta * np.outer(x, x.conj())
        ratio = projector_gap_bound(*gap_terms(moved, w)) / projector_gap(moved, w)
        e = delta * (1.0 - delta)
        assert ratio == pytest.approx((1.0 + np.sqrt(2.0)) * e / (1.0 - 2.0 * e) / delta, rel=1e-5)

    def test_a_projector_of_another_rank_is_not_certified(self):
        # V spans r of the r + 1 dimensions of the range of Q: Q V = V, but
        # |Q - V V^*|_F = 1, and only the trace defect tells
        w = random_isometry(np.random.default_rng(5), 9, 4)
        q, v = w @ adjoint(w), w[:, :3]
        residual, isometry, trace, idempotency, size = gap_terms(q, v)
        assert residual < 1e-14 and abs(trace - 1.0) < 1e-14
        assert projector_gap(q, v) == pytest.approx(1.0)
        assert projector_gap_bound(residual, isometry, trace, idempotency, size) == np.inf

    def test_outside_its_hypotheses_it_is_infinite(self):
        assert projector_gap_bound(0.0, 1.0, 0.0, 0.0, 4) == np.inf
        assert projector_gap_bound(0.0, 0.0, 0.0, 0.2, 4) == np.inf
        # idempotency 0.1 puts Tr Q within 2 * 0.125 of an integer
        assert projector_gap_bound(0.0, 0.0, 0.7, 0.1, 4) < np.inf
        assert projector_gap_bound(0.0, 0.0, 0.8, 0.1, 4) == np.inf
        assert projector_gap_bound(0.0, np.nan, 0.0, 0.0, 4) == np.inf


def loop_commutator_residual(xs, ys, twisted=None, floor=0.0):
    """Reference for commutator_residual: one rel_residual per pair."""
    worst = floor
    for x in xs:
        for y, yt in zip(ys, ys if twisted is None else twisted):
            worst = max(worst, rel_residual(x @ y - yt @ x, operator_norm(x), operator_norm(y)))
    return worst


def commutator_stacks(seed, n=4):
    """Random stacks whose pairs include commuting (diagonal), non-commuting,
    small-scale and exactly zero matrices."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([
        random_complex(rng, (3, n, n)),
        1e-3 * random_complex(rng, (1, n, n)),
        [np.diag(random_complex(rng, n))],
        np.zeros((1, n, n), dtype=complex),
    ])
    ys = np.concatenate([
        2.0 * random_complex(rng, (2, n, n)),
        [np.diag(random_complex(rng, n)), np.diag(random_complex(rng, n))],
        np.zeros((1, n, n), dtype=complex),
    ])
    return xs, ys


@st.composite
def commutator_scale_stacks(draw):
    """Square stacks xs and ys of the unit-floor kinds, plus rank-one elements
    of Frobenius norm sqrt(1 + k 1e-13) for |k| <= 20, whose pairs have
    |x|_2 |y|_2 = |x|_F |y|_F just above and below 1, and scalar and
    diagonal elements of 2-norm 1 to 10, whose commutators with scalars and
    with each other are exactly zero: with only those kinds, all are."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(UNIT_KINDS + ("root_near_one", "scalar", "diagonal"))
    stacks = []
    for _ in range(2):
        mats = []
        for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
            if kind == "root_near_one":
                m = np.outer(random_complex(rng, n), random_complex(rng, n))
                mats.append(m * (np.sqrt(1.0 + 1e-13 * rng.integers(-20, 21)) / np.linalg.norm(m)))
            elif kind in ("scalar", "diagonal"):
                m = np.diag(random_complex(rng, 1 if kind == "scalar" else n) * np.ones(n))
                mats.append(m * (rng.uniform(1.0, 10.0) / np.linalg.norm(m, 2)))
            else:
                mats.append(unit_kind_matrix(kind, n, n, rng))
        stacks.append(np.array(mats, dtype=complex))
    return tuple(stacks)


class TestCommutatorResidual:
    GRADING = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

    @settings(max_examples=300, deadline=None)
    @given(commutator_scale_stacks())
    def test_scales_equal_the_full_computation(self, stacks):
        # the float of every 2-norm of x and y taken for max(1, |x|_2 |y|_2)
        xs, ys = stacks
        comm = xs[:, None] @ ys[None] - ys[None] @ xs[:, None]
        full = np.linalg.norm(xs, 2, axis=(-2, -1))[:, None] * np.linalg.norm(ys, 2, axis=(-2, -1))
        ref = max_operator_norm(comm, full)
        assert commutator_residual(xs, ys) == ref
        assert commutator_residual(xs, ys, twisted=-ys) == max_operator_norm(
            xs[:, None] @ ys[None] + ys[None] @ xs[:, None], full)
        # a gate under the floor decides on the same float
        below = np.nextafter(ref, -np.inf)
        assert commutator_residual(xs, ys, floor=ref) == ref
        assert commutator_residual(xs, ys, floor=below) == ref > below

    def test_zero_pairs_take_no_scale_norm(self, monkeypatch):
        # 3 * 1 commutes exactly with every y, and the diagonal x and y with
        # each other: no factor that meets only zero commutators is 2-normed
        rng = np.random.default_rng(11)
        scalar = 3.0 * np.eye(3, dtype=complex)
        dx, dy = (np.diag(2.0 + random_complex(rng, 3)) for _ in range(2))
        full = 2.0 * random_complex(rng, (3, 3))
        normed = []
        real = np.linalg.norm

        def recorded(x, *args, **kwargs):
            if args[:1] == (2,):
                normed.extend(np.reshape(x, (-1, 3, 3)))
            return real(x, *args, **kwargs)

        def ref(xs, ys):
            comm = xs[:, None] @ ys[None] - ys[None] @ xs[:, None]
            scale = real(xs, 2, axis=(-2, -1))[:, None] * real(ys, 2, axis=(-2, -1))
            return max_operator_norm(comm, scale)

        for xs, ys, opened in ((np.stack([scalar, dx]), np.stack([dy, full]), [dx, full]),
                               (np.stack([scalar, dx]), np.stack([dy]), [])):
            expected = ref(xs, ys)
            monkeypatch.setattr(np.linalg, "norm", recorded)
            got = commutator_residual(xs, ys), commutator_residual(xs, ys, floor=0.5 * expected)
            monkeypatch.setattr(np.linalg, "norm", real)
            assert got == (expected, expected)
            for factor in (scalar, dy):
                assert not any(np.array_equal(factor, m) for m in normed)
            for factor in opened:
                assert any(np.array_equal(factor, m) for m in normed)
            normed.clear()

    def test_small_pairs_take_no_scale_norm(self, monkeypatch):
        # an orthonormal basis against elements of Frobenius norm under 1:
        # every pair is settled; a floor above every commutator's Frobenius
        # bound settles the residual before any scale or 2-norm is taken
        rng = np.random.default_rng(5)
        basis = span_basis(random_complex(rng, (6, 3, 3)))
        small = 0.9 * span_basis(random_complex(rng, (4, 3, 3)))
        measured = []
        real = np.linalg.norm

        def counted(x, *args, **kwargs):
            if args[:1] == (2,):
                measured.append(len(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        assert commutator_residual(basis, small, floor=10.0) == 10.0
        assert measured == []
        # one large x would open its pairs with every y, but the floor still
        # settles every commutator, so not even the scales are 2-normed
        assert commutator_residual(np.concatenate([basis, 2.0 * basis[:1]]), small, floor=10.0) == 10.0
        assert measured == []
        # under a floor of 0 the scales are needed: the 2-norms of that x
        # and of the ys it meets, one call per side, then the sweep's
        assert commutator_residual(np.concatenate([basis, 2.0 * basis[:1]]), small) > 0.0
        assert measured[:2] == [1, 4]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("twist", ["none", "anti", "graded"])
    def test_matches_pair_loop(self, seed, twist):
        xs, ys = commutator_stacks(seed)
        twisted = {"none": None, "anti": -ys, "graded": self.GRADING @ ys @ self.GRADING}[twist]
        ref = loop_commutator_residual(xs, ys, twisted)
        assert ref > 0.1
        assert commutator_residual(xs, ys, twisted) == pytest.approx(ref, rel=1e-12, abs=0.0)
        # lists work as well as stacks
        assert commutator_residual(list(xs), list(ys), twisted) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_commuting_and_zero_pairs_give_zero(self):
        xs, ys = commutator_stacks(1)
        diag, zero = xs[4:], ys[2:]
        assert loop_commutator_residual(diag, zero) == 0.0
        assert commutator_residual(diag, zero) == 0.0
        assert commutator_residual(np.zeros((2, 3, 3)), np.zeros((4, 3, 3))) == 0.0

    def test_anticommutator_of_graded_pairs(self):
        # odd x and odd y anticommute exactly: the graded form vanishes, the plain one does not
        rng = np.random.default_rng(3)
        odd = np.zeros((2, 4, 4), dtype=complex)
        odd[:, :2, 2:] = random_complex(rng, (2, 2, 2))
        odd[:, 2:, :2] = random_complex(rng, (2, 2, 2))
        graded = self.GRADING @ odd @ self.GRADING
        assert np.array_equal(graded, -odd)
        x = odd[:1] @ odd[1:] @ odd[:1]
        assert commutator_residual(x, odd, twisted=graded) == pytest.approx(
            loop_commutator_residual(x, odd, graded), rel=1e-12, abs=0.0)
        assert commutator_residual(x, odd) > 0.1

    def test_empty_stacks_give_floor(self):
        xs, ys = commutator_stacks(2)
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert commutator_residual(empty, ys) == 0.0
        assert commutator_residual(xs, [], floor=0.25) == 0.25
        assert commutator_residual([], [], floor=0.5) == 0.5

    def test_floor_above_every_value(self):
        xs, ys = commutator_stacks(4)
        ref = loop_commutator_residual(xs, ys)
        assert commutator_residual(xs, ys, floor=3.0 * ref) == 3.0 * ref
        assert commutator_residual(xs, ys, floor=0.5 * ref) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestFrobeniusFirstGates:
    """A gate reads `residual(..., floor=gate) > gate`.  Each residual
    returns max(floor, value), so the gate agrees with `residual(...) >
    gate`, and when every Frobenius bound is within the floor it returns the
    floor with no 2-norm taken, not even for the scales."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ratio", [0.5, 0.999, 1.001, 2.0])
    def test_matches_the_residual(self, seed, ratio):
        xs, ys = commutator_stacks(seed)
        twisted = -ys if seed % 2 else None
        ref = commutator_residual(xs, ys, twisted)
        gate = ratio * ref
        gated = commutator_residual(xs, ys, twisted, floor=gate)
        assert gated == max(gate, ref)
        assert (gated > gate) == (ref > gate) == (ratio < 1.0)

    def test_frobenius_pass_takes_no_2_norm(self, monkeypatch):
        xs, ys = commutator_stacks(1)
        comm = xs[:, None] @ ys[None] - ys[None] @ xs[:, None]
        # the scales 10 |x|_2 would each need a 2-norm
        resid, big = 1e-3 * xs, 10.0 * xs
        gates = (1.0 + 1e-6) * max_frobenius(comm), (1.0 + 1e-6) * max_frobenius(resid)
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x, *a, **k: calls.append(k.get("ord", a[0] if a else None))
                            or norm(x, *a, **k))
        assert commutator_residual(xs, ys, floor=gates[0]) == gates[0]
        assert scaled_residual(resid, big, floor=gates[1]) == gates[1]
        assert 2 not in calls
        # below the Frobenius bounds the 2-norms decide
        assert scaled_residual(resid, big, floor=1e-3 * gates[1]) > 1e-3 * gates[1]
        assert 2 in calls

    @pytest.mark.parametrize("ratio", [0.5, 0.999, 1.001, 2.0])
    def test_scaled_gate_matches_the_sweep(self, ratio):
        # scaled_residual is max_operator_norm(resid, unit_floor_norms(xs), floor)
        xs, _ = commutator_stacks(3)
        resid = 1e-3 * random_complex(np.random.default_rng(7), xs.shape)
        ref = max_operator_norm(resid, unit_floor_norms(xs))
        assert scaled_residual(resid, xs) == ref
        gated = scaled_residual(resid, xs, floor=ratio * ref)
        assert gated == max(ratio * ref, ref)
        assert (gated > ratio * ref) == (ratio < 1.0)

    def test_empty_stacks(self):
        xs, ys = commutator_stacks(2)
        assert commutator_residual(xs[:0], ys, floor=0.0) == 0.0
        assert commutator_residual(xs, [], floor=0.0) == 0.0
        assert scaled_residual(xs[:0], xs[:0], floor=0.5) == 0.5
        assert max_frobenius(xs[:0]) == 0.0

    def test_no_gate_twin_comes_back(self):
        # a gate is its residual under a floor: no module of the package
        # defines or calls a function named *_within, or membership_residual
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncgeo"
        files = sorted(src.glob("*.py"))
        assert len(files) > 1
        twins = [(f.name, name) for f in files
                 for name in re.findall(r"\b(\w+_within|membership_residual)\s*\(", f.read_text())]
        assert twins == []


class TestBlocks:
    def test_table_entries_are_the_blocks(self):
        rng = np.random.default_rng(4)
        m, d = 3, 2
        big = random_complex(rng, (m * d, m * d))
        table = to_blocks(big, m)
        assert table.shape == (m, m, d, d)
        for i in range(m):
            for j in range(m):
                assert np.array_equal(table[i, j], big[i * d:(i + 1) * d, j * d:(j + 1) * d])
        assert np.array_equal(from_blocks(table), big)

    def test_block_diagonal(self):
        op = random_complex(np.random.default_rng(5), (3, 3))
        table = to_blocks(block_diag(op, 4), 4)
        assert np.array_equal(np.trace(table), 4 * op)
        assert np.array_equal(from_blocks(np.eye(4)[:, :, None, None] * op), block_diag(op, 4))


class TestPullBack:
    @pytest.mark.parametrize("m, n, k", [(1, 3, 3), (3, 2, 4), (4, 3, 5)])
    def test_matches_block_diagonal_compression(self, m, n, k):
        rng = np.random.default_rng(m + n + k)
        u = random_complex(rng, (m * n, k))
        ops = random_complex(rng, (3, n, n))
        ref = np.stack([adjoint(u) @ block_diag(x, m) @ u for x in ops])
        got = pull_back(u, ops)
        assert got.shape == (3, k, k)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(pull_back(u, ops[1]) - ref[1]) <= 1e-13 * np.linalg.norm(ref[1])
        # a list of operators is a stack
        assert np.array_equal(pull_back(u, list(ops)), got)


class TestZeroShortcuts:
    @staticmethod
    def _forbid_norms(monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD norm was computed")
        monkeypatch.setattr(np.linalg, "norm", no_svd)

    def test_operator_norm_of_zero(self, monkeypatch):
        self._forbid_norms(monkeypatch)
        assert operator_norm(np.zeros((4, 4), dtype=complex)) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_exactly_hermitian_skips_norms(self, monkeypatch):
        x = random_complex(np.random.default_rng(6), (7, 7))
        h = (x + adjoint(x)) / 2.0
        self._forbid_norms(monkeypatch)
        assert is_hermitian(h)
        vals, _ = herm_eig(h)
        assert vals[0] <= vals[-1]

    def test_shortcuts_agree_with_the_norms(self):
        rng = np.random.default_rng(9)
        x = random_complex(rng, (5, 5))
        assert is_hermitian((x + adjoint(x)) / 2.0)
        assert not is_hermitian(x)
        nearly = (x + adjoint(x)) / 2.0
        nearly[0, 1] += 1e-13
        assert is_hermitian(nearly) and not is_hermitian(nearly, Tolerance(rel=1e-15))
        assert operator_norm(x) == float(np.linalg.norm(x, 2))
        assert operator_norm(np.zeros((3, 3))) == float(np.linalg.norm(np.zeros((3, 3)), 2))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_cut=-1.0)
