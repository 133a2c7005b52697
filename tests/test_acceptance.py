"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""
import numpy as np
import pytest

from ncgeo.algebra import generate_algebra
from ncgeo.convert import (
    appendix_equivalence_check,
    poincare_pairing_matrix,
    round_trip_check,
    spinc_to_riemannian,
)
from ncgeo.examples import matrix_geometry, trivial_points, two_point
from ncgeo.kasparov import (
    BimoduleConnection,
    connection_condition_check,
    grassmann_connection,
    twisted_operator,
)
from ncgeo.linalg import adjoint, operator_norm, random_hermitian
from ncgeo.modules import ProjectiveModule, linear_operator_bound
from ncgeo.tomita import AntiunitaryMap, check_fundamental_class, opposite_action
from ncgeo.triples import (
    HochschildChain,
    SpectralTripleData,
    chain_coefficient_norm,
    chain_mul,
    check_finiteness,
    check_first_order,
    check_orientability,
    check_riemannian,
    check_spinc,
    fit_orientation_cycle,
    hochschild_boundary,
    represent_chain,
    validate_triple,
)

from helpers import dense_module_projector
from test_kasparov import direct_twist_oracle, random_module, random_potential
from test_modules import l2_operator_norm, random_projective_module

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def forward_conversion():
    t = matrix_geometry(2, seed=7)
    return t, spinc_to_riemannian(t)


def test_criterion_01_two_point():
    t = two_point(1.0)
    val = validate_triple(t)
    orient = check_orientability(t, strict=True)
    worst = max(e.residual for e in val.entries + orient.entries if e.status != "skipped")
    chain, resid = fit_orientation_cycle(t, 0)
    rec = represent_chain(t, chain)
    sign = np.sign(np.real(rec[0, 0]))
    recovered = operator_norm(sign * rec - np.diag([1.0, -1.0]))
    sp, _ = check_spinc(t)
    entry = sp.entry("spinc:commutant_matches_right_action")
    documented = entry.status == "fail" and "commutant dim" in entry.details
    ok = (val.passed and orient.passed and worst < 1e-12
          and resid < 1e-12 and recovered < 1e-10 and documented)
    report_line(1, ok,
                f"two_point: validity+orientability residual {worst:.2e}, cycle recovered "
                f"{recovered:.2e}, spin^c fails with evidence ({entry.details})")


def test_criterion_02_matrix_geometry_suite():
    worst_fo, worst_orient, fit_min = 0.0, 0.0, np.inf
    all_ok = True
    for n in (2, 3):
        for seed in (1, 2, 3):
            t = matrix_geometry(n, seed=seed)
            fo = check_first_order(t)
            worst_fo = max(worst_fo, fo.entry("first_order:dirac_commutators").residual)
            fin, _ = check_finiteness(t)
            sp, _ = check_spinc(t)
            full_left = sp.entry("spinc:morita:left_full").status == "pass"
            full_right = sp.entry("spinc:morita:right_full").status == "pass"
            orient = check_orientability(t, strict=False)
            worst_orient = max(worst_orient, max(
                e.residual for e in orient.entries if e.status != "skipped"))
            _, fit_resid = fit_orientation_cycle(t, 0)
            fit_min = min(fit_min, fit_resid)
            all_ok = all_ok and fin.passed and sp.passed and orient.passed \
                and full_left and full_right
    ok = (all_ok and worst_fo < 1e-10 and worst_orient < 1e-12 and fit_min > 1e-9)
    report_line(2, ok,
                f"matrix_geometry n=2,3 x 3 seeds: first-order {worst_fo:.2e}, generalized "
                f"orientation {worst_orient:.2e}, strict fit infeasible (residual >= {fit_min:.2f})")


def test_criterion_03_forward_conversion(forward_conversion):
    t, res = forward_conversion
    tri = res.output
    rr, ctx = check_riemannian(tri)
    z = ctx["metric"]
    z_dev = operator_norm(z - np.eye(tri.hilbert_dim))
    eps = res.witness["epsilon"]
    anti = operator_norm(eps @ tri.dirac + tri.dirac @ eps) / max(1.0, operator_norm(tri.dirac))
    tracial = rr.entry("riemann:vector_state_tracial").residual
    cda = tri.cda()
    vecs = np.stack([w @ tri.riemann_vector for w in cda.basis], axis=1)
    svals = np.linalg.svd(vecs, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    bijective = rank == cda.dim == tri.hilbert_dim
    ok = (res.report.passed and rr.passed and z_dev < 1e-10 and anti < 1e-9
          and tracial < 1e-9 and bijective)
    report_line(3, ok,
                f"forward conversion: full Riemannian suite, |z-1|={z_dev:.2e}, grading anticommutes "
                f"{anti:.2e}, vector state tracial {tracial:.2e}, orbit rank {rank} exact")


def test_criterion_04_round_trip():
    t = matrix_geometry(2, seed=7)
    res = round_trip_check(t)
    dirac_res = res.report.entry("intertwine:dirac_residual").residual
    action_res = res.report.entry("intertwine:action_residual").residual
    ok = res.report.passed and dirac_res < 1e-8 and action_res < 1e-10
    report_line(4, ok,
                f"round trip: part of U* D2 U - D1 outside A', relative to |D1|, {dirac_res:.2e}, "
                f"action intertwining {action_res:.2e}")


def test_criterion_05_kasparov_product():
    t = matrix_geometry(2, seed=3)
    right = t.right_algebra()
    conn0 = grassmann_connection(ProjectiveModule.from_projector(right, 1, np.eye(t.hilbert_dim, dtype=complex)))
    dhat0, _ = twisted_operator(t, conn0)
    exact = np.array_equal(dhat0, t.dirac)
    rng = np.random.default_rng(505)
    worst_oracle, worst_sa, worst_sq = 0.0, 0.0, 0.0
    for _ in range(20):
        module = random_module(t, 2, rng)
        pot = random_potential(t, module, rng)
        conn = BimoduleConnection(module, pot)
        dhat, _ = twisted_operator(t, conn)
        oracle = direct_twist_oracle(t, conn)
        scale = max(1.0, operator_norm(dhat))
        worst_oracle = max(worst_oracle, operator_norm(dhat - oracle) / scale)
        q = dense_module_projector(module)
        d_n = np.kron(np.eye(2), t.dirac)
        comp = q @ d_n @ q
        worst_sa = max(worst_sa, operator_norm(comp - adjoint(comp)) / scale)
        comm = d_n @ q - q @ d_n
        lhs = comp @ comp
        rhs = q @ comm @ comm @ q + q @ d_n @ d_n @ q
        worst_sq = max(worst_sq, operator_norm(lhs - rhs) / max(1.0, operator_norm(lhs)))
    ok = exact and worst_oracle < 1e-10 and worst_sa < 1e-12 and worst_sq < 1e-12
    report_line(5, ok,
                f"product: trivial module exact, 20 random twists match oracle "
                f"({worst_oracle:.2e}), self-adjoint {worst_sa:.2e}, square identity {worst_sq:.2e}")


def test_criterion_06_connection_condition():
    t = matrix_geometry(2, seed=9)
    rng = np.random.default_rng(606)
    module = random_module(t, 2, rng)
    conn = BimoduleConnection(module, random_potential(t, module, rng))
    rep = connection_condition_check(t, conn)
    resid = rep.entry("connection_condition:bounded_pair").residual
    broken = connection_condition_check(t, conn, sign_flip=True)
    detected = broken.entry("connection_condition:bounded_pair").residual
    ok = rep.passed and resid < 1e-9 and detected > 0.1
    report_line(6, ok,
                f"connection condition: full frame residual {resid:.2e}, "
                f"injected sign error detected at {detected:.2f}")


def test_criterion_07_fundamental_class(forward_conversion):
    t, res = forward_conversion
    tri = res.output
    j = AntiunitaryMap(res.witness["conjugation_kernel"])
    eps = res.witness["epsilon"]
    rep = check_fundamental_class(tri, j, eps)
    anti = rep.entry("fundamental:anticommutation").residual
    lin = rep.entry("fundamental:bounded_part_left_linear").residual
    star = rep.entry("fundamental:twist_star_preserving").residual
    mirror = rep.entry("fundamental:phase_mirror_identity").residual
    ok = rep.passed and max(anti, lin, star, mirror) < 1e-10
    report_line(7, ok,
                f"fundamental class: anticommutation {anti:.2e}, module linearity {lin:.2e}, "
                f"twist star-preserving {star:.2e}, phase identity {mirror:.2e}")


def test_criterion_08_appendix():
    rng = np.random.default_rng(808)
    d = random_hermitian(rng, 5)
    t = SpectralTripleData(5, [np.eye(5)], d)
    rep = appendix_equivalence_check(t, samples=10)
    conj = rep.entry("appendix:conjugation_exact").residual
    hom = rep.entry("appendix:homotopy_identities").residual
    ends = rep.entry("appendix:endpoints_exact").residual
    ok = conj == 0.0 and hom < 1e-12 and ends == 0.0
    report_line(8, ok,
                f"appendix doublings: conjugation exact ({conj}), homotopy {hom:.2e}, "
                f"endpoints exact ({ends})")


def test_criterion_09_operator_bound():
    rng = np.random.default_rng(909)
    base = generate_algebra([SIGMA3, SIGMA1])
    violations = 0
    count = 0
    for _ in range(100):
        mod = random_projective_module(rng, base, 2)
        d, m = base.hilbert_dim, mod.size
        raw = np.zeros((m * d, m * d), dtype=complex)
        for i in range(m):
            for jj in range(m):
                raw[i * d:(i + 1) * d, jj * d:(jj + 1) * d] = sum(
                    (rng.standard_normal() + 1j * rng.standard_normal()) * b
                    for b in base.basis)
        q = dense_module_projector(mod)
        t_op = q @ raw @ q
        bound = linear_operator_bound(t_op, mod)
        true_norm = l2_operator_norm(t_op, mod)
        count += 1
        if bound < true_norm - 1e-9:
            violations += 1
    ok = violations == 0 and count == 100
    report_line(9, ok, f"operator bound: {count} seeded module maps, {violations} violations")


def test_criterion_10_hochschild():
    rng = np.random.default_rng(1010)
    alg = generate_algebra([SIGMA1, SIGMA3])

    def rand_elem():
        return sum((rng.standard_normal() + 1j * rng.standard_normal()) * b for b in alg.basis)

    worst_bb = 0.0
    for _ in range(50):
        c = HochschildChain(2, [(rand_elem(), rand_elem(), rand_elem()) for _ in range(2)])
        bb = hochschild_boundary(hochschild_boundary(c))
        worst_bb = max(worst_bb, chain_coefficient_norm(bb, alg))

    t = matrix_geometry(2, seed=4)
    big = t.algebra()

    def rand_big():
        return sum((rng.standard_normal() + 1j * rng.standard_normal()) * b for b in big.basis)

    worst_hom = 0.0
    for _ in range(20):
        c1 = HochschildChain(1, [(rand_big(), rand_big())])
        c2 = HochschildChain(1, [(rand_big(), rand_big())])
        lhs = represent_chain(t, chain_mul(c1, c2))
        rhs = represent_chain(t, c1) @ represent_chain(t, c2)
        worst_hom = max(worst_hom, operator_norm(lhs - rhs) / max(1.0, operator_norm(rhs)))
    ok = worst_bb < 1e-12 and worst_hom < 1e-10
    report_line(10, ok,
                f"hochschild: boundary squared {worst_bb:.2e} over 50 chains, "
                f"representation multiplicative {worst_hom:.2e}")


def test_criterion_11_poincare_pairing(forward_conversion):
    t3 = trivial_points(3)
    res3 = spinc_to_riemannian(t3)
    projs = []
    for k in range(3):
        p = np.zeros((3, 3), dtype=complex)
        p[k, k] = 1.0
        projs.append(p)
    mat, unimodular, _ = poincare_pairing_matrix(res3.output, projs, projs)
    signed_perm = (np.abs(mat).sum(axis=0) == 1).all() and (np.abs(mat).sum(axis=1) == 1).all()

    t, res = forward_conversion
    tri = res.output
    j = AntiunitaryMap(res.witness["conjugation_kernel"])
    eps = res.witness["epsilon"]
    u = res.witness["module_basis"]
    m = len(res.witness["frame"])
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    p_left = adjoint(u) @ np.kron(np.eye(m), np.kron(np.kron(e11, np.eye(2)), np.eye(2))) @ u
    cda = tri.cda()
    rng0 = np.random.default_rng(7)
    x = sum(rng0.standard_normal() * b for b in cda.basis)
    x = (x + adjoint(x) + eps @ (x + adjoint(x)) @ eps) / 4.0
    vals, vecs = np.linalg.eigh(x)
    keep = vecs[:, vals > np.median(vals)]
    q_right = opposite_action(j, keep @ adjoint(keep))
    rng = np.random.default_rng(111)
    mats = []
    for _ in range(3):
        noise = 1e-12 * random_hermitian(rng, tri.hilbert_dim)
        noisy = SpectralTripleData(tri.hilbert_dim, tri.algebra_gens,
                                   tri.dirac + noise, tri.grading, 0)
        mmat, _, _ = poincare_pairing_matrix(noisy, [p_left], [q_right])
        mats.append(mmat.copy())
    stable = np.array_equal(mats[0], mats[1]) and np.array_equal(mats[1], mats[2])
    ok = unimodular and signed_perm and stable
    report_line(11, ok,
                f"poincare pairing: trivial points give a signed permutation (|det|=1), "
                f"fundamental-class pairing {mats[0].tolist()} stable across noise seeds")
