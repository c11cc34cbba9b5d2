"""Aggregated verification suites behind the `hdt verify` command.

The exact suite re-proves the structural identities in exact arithmetic
on every catalog pair; the numeric suite drives the seeded matrix-model
residual checks, and it alone imports numpy and the matrix model.  Each
check reports its residual and the tolerance it was held to, so the CLI
can print one line per check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cascade import restricted_root_data, strongly_orthogonal_cascade, verify_rho_identities
from .criterion import HighestWeightInput, hc_condition, hc_threshold, reduction_trace
from .hermitian import catalog, partition_roots
from .rootsystem import StructuralError
from .weights import (
    compact_fundamental_weights,
    extend_compact_coords,
    lambda_one,
    rho_weight,
    verify_weight_bound,
    weight_on_coroot,
    weight_system,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _check(name, residual, tol, detail="") -> CheckResult:
    return CheckResult(name, bool(residual <= tol), float(residual), float(tol), detail)


def _zero_lambda0(pair):
    return extend_compact_coords(pair, [0] * (pair.root_system.rank - 1))


# -- exact suite --------------------------------------------------------------


def run_exact_suite() -> list[CheckResult]:
    """Exact checks are true or false: each counts its failures against
    tolerance 0, and no tolerance scale applies."""
    out: list[CheckResult] = []
    for pair in catalog():
        rs = pair.root_system
        rd = restricted_root_data(pair)
        cr = strongly_orthogonal_cascade(pair)
        part = partition_roots(pair)

        try:
            verify_rho_identities(pair)
            out.append(_check(f"{pair.label}: rho identities", 0, 0, "exact"))
        except StructuralError as exc:
            out.append(CheckResult(f"{pair.label}: rho identities", False, 1.0, 0.0, str(exc)))

        n_total = rd.r + rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r
        book_n = int(len(part.noncompact_pos) != n_total)
        n_c = rd.a * rd.r * (rd.r - 1) // 2 + rd.b * rd.r + rd.zero_compact_count
        book_c = int(len(part.compact_pos) != n_c)
        out.append(_check(f"{pair.label}: dimension bookkeeping", book_n + book_c, 0))

        lam1 = lambda_one(pair)
        bad = sum(1 for g in cr.gammas if weight_on_coroot(rs, lam1, g) != 1)
        out.append(_check(f"{pair.label}: Lambda_1(h_j) = 1", bad, 0))

        bad = sum(1 for c in rho_weight(pair) if c != 1)
        out.append(_check(f"{pair.label}: rho(h_alpha) = 1 on simple coroots", bad, 0))

        lambda0s = [_zero_lambda0(pair)]
        fw = compact_fundamental_weights(pair)
        if fw:
            lambda0s.append(fw[0])
        for i, lam0 in enumerate(lambda0s):
            ws = weight_system(pair, lam0)
            try:
                verify_weight_bound(pair, ws)
                out.append(_check(f"{pair.label}: weight bound (lambda0 #{i})", 0, 0,
                                  f"{len(ws.weights)} weights"))
            except StructuralError as exc:
                out.append(CheckResult(f"{pair.label}: weight bound (lambda0 #{i})",
                                       False, 1.0, 0.0, str(exc)))

            thr = hc_threshold(pair, lam0)
            bad = 0
            for off in (Fraction(-3), Fraction(-1), Fraction(-1, 4), Fraction(0),
                        Fraction(1, 4), Fraction(1), Fraction(3)):
                inp = HighestWeightInput(pair, lam0, thr + off)
                v = hc_condition(inp)  # raises if the two forms disagree
                if v.exists != (off < 0):
                    bad += 1
            # raises on a bad expansion; its checks are lambda-free, so one lambda will do
            reduction_trace(HighestWeightInput(pair, lam0, thr))
            out.append(_check(f"{pair.label}: criterion forms agree (lambda0 #{i})", bad, 0))
    return out


# -- numeric suite ------------------------------------------------------------


def run_numeric_suite(seed: int = 0, tol_scale: float = 1.0,
                      triples: int = 1000) -> list[CheckResult]:
    import numpy as np

    from . import matrixmodel as mm

    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    res = max(mm.verify_sl2_identity(t) for t in np.linspace(-5, 5, 41))
    out.append(_check("sl2 three-factor identity, |t| <= 5", res, 1e-12 * tol_scale))
    res = max(mm.verify_sl2_identity(t) for t in (10.0, 18.0, 30.0, 80.0))
    out.append(_check("sl2 three-factor identity, large t", res, 1e-8 * tol_scale))

    for (p, q) in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        # all triples of one (p, q) as one stack, drawn in the per-triple order
        g1, g2, z = mm.random_triples(rng, p, q, triples)
        f12 = mm.hc_factorize(g1 @ g2, z)
        f2 = mm.hc_factorize(g2, z)
        f1 = mm.hc_factorize(g1, f2.w)
        scale = np.maximum(1.0, np.max(np.abs(f12.k_plus), axis=(-2, -1), keepdims=True))
        worst_cocycle = max(
            float(np.max(np.abs(f1.k_plus @ f2.k_plus - f12.k_plus) / scale, initial=0.0)),
            float(np.max(np.abs(f1.k_minus @ f2.k_minus - f12.k_minus) / scale, initial=0.0)),
        )
        worst_reassembly = float(np.max([f12.residual, f1.residual, f2.residual], initial=0.0))
        out.append(_check(f"cocycle identity on su({p},{q}), {triples} triples",
                          worst_cocycle, 1e-10 * tol_scale))
        out.append(_check(f"factorization reassembly on su({p},{q})",
                          worst_reassembly, 1e-12 * tol_scale))

    # trivial actions: identity, translation, block-unitary rotation
    z = mm.random_domain_point(rng, 2, 2, max_norm=0.5)
    f = mm.hc_factorize(mm.identity_element(2, 2), z)
    res = float(np.max(np.abs(f.w - z)))
    u = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    trans = np.block([[np.eye(2), u], [np.zeros((2, 2)), np.eye(2)]])
    ft = mm.hc_factorize(mm.BlockMatrixElement(trans, 2, 2, check=False), z)
    res = max(res, float(np.max(np.abs(ft.w - (z + u)))))
    k = mm.random_block_unitary(rng, 2, 2)
    fk = mm.hc_factorize(k, z)
    res = max(res, float(np.max(np.abs(fk.w - k.A @ z @ np.linalg.inv(k.D)))),
              float(np.max(np.abs(fk.k_plus - k.A))), float(np.max(np.abs(fk.k_minus - k.D))))
    out.append(_check("identity / translation / rotation actions", res, 1e-12 * tol_scale))

    t = rng.uniform(-2, 2, size=2)
    w = mm.mobius_action(mm.torus_element(t, 2, 2), np.zeros((2, 2), complex))
    sv = np.linalg.svd(w, compute_uv=False)
    res = float(np.max(np.abs(np.sort(sv) - np.sort(np.abs(np.tanh(t))))))
    out.append(_check("torus orbit of 0 has singular values tanh t", res, 1e-12 * tol_scale))

    _, _, rel = mm.jacobian_at_origin(1, 1, [1.0])
    out.append(_check("jacobian at 0 vs closed form, su(1,1)", rel, 1e-6 * tol_scale))
    _, _, rel = mm.jacobian_at_origin(2, 2, rng.uniform(-1.5, 1.5, 2))
    out.append(_check("jacobian at 0 vs closed form, su(2,2)", rel, 1e-6 * tol_scale))

    # automorphy determinant convention against the numeric jacobian
    g = mm.random_su(rng, 2, 2)
    z = mm.random_domain_point(rng, 2, 2)
    fac = mm.hc_factorize(g, z)
    det_formula = np.linalg.det(fac.k_plus) ** 2 * np.linalg.det(fac.k_minus) ** (-2)
    det_fd = np.linalg.det(mm.jacobian_matrix(g, z))
    out.append(_check("det automorphy factor = jacobian determinant",
                      abs(det_formula - det_fd) / abs(det_fd), 1e-6 * tol_scale))

    z = mm.random_domain_point(rng, 2, 3)
    k = mm.random_block_unitary(rng, 2, 3)
    kz = mm.mobius_action(k, z)
    res = abs(mm.h_polynomial(kz, kz) - mm.h_polynomial(z, z))
    out.append(_check("h(z,z) invariance under rotations", res, 1e-12 * tol_scale))

    g = mm.random_su(rng, 1, 1)
    zz = mm.random_domain_point(rng, 1, 1)
    qres = mm.verify_Q_transformation(g, zz, 2, k_element=mm.random_block_unitary(rng, 1, 1))
    out.append(_check("weight transformation law, su(1,1) power 2",
                      max(qres["transform"], qres["k_conjugation"]), 1e-10 * tol_scale))
    g22 = mm.random_su(rng, 2, 2)
    z22 = mm.random_domain_point(rng, 2, 2)
    qres22 = mm.verify_Q_transformation(g22, z22, 1, k_element=mm.random_block_unitary(rng, 2, 2))
    out.append(_check("weight transformation law, su(2,2) power 1",
                      max(qres22["transform"], qres22["k_conjugation"]), 1e-10 * tol_scale))
    out.append(_check("invariant measure exponent is -(p+q)",
                      qres22["measure_exponent_minus"], 1e-6 * tol_scale,
                      f"+(p+q) exponent residual {qres22['measure_exponent_plus']:.3e} "
                      "(documented sign discrepancy)"))

    for power in (2, 3):
        kres = mm.verify_kernel_transformation(
            g, mm.random_domain_point(rng, 1, 1), mm.random_domain_point(rng, 1, 1), power
        )
        out.append(_check(f"kernel transformation law, su(1,1) power {power}",
                          max(kres.values()), 1e-10 * tol_scale))

    out.append(_check("Cayley rotation lands in the coroot span, r=1",
                      mm.cayley_verify(1, 1, 1), 1e-10 * tol_scale))
    out.append(_check("Cayley rotation lands in the coroot span, r=2 su(2,2)",
                      mm.cayley_verify(2, 2, 2), 1e-10 * tol_scale))

    n = mm.disc_order(0.3)
    est, exact, err = mm.verify_reproducing_kernel_disc(3, [0, 0, 1], 0.3, n_samples=n)
    out.append(_check("reproducing property on the disc (k=3, f=z^2, w=0.3)", err,
                      1e-12 * tol_scale,
                      f"integral {est.real:.8f} vs {exact.real:.8f}, disc rule order {n}"))

    # the disc rule's angular error decays like |c/d|^(2n) for g = [[a, b],
    # [c, d]], and g^-1 has the same |c/d|; scale 0.3 keeps |c/d| inside
    # what DISC_ORDER resolves
    g_mc = mm.random_su(rng, 1, 1, scale=0.3)
    n = mm.disc_order(abs(g_mc.C[0, 0] / g_mc.D[0, 0]))
    nf, nug = mm.multiplier_unitarity_mc(g_mc, 4, [1, 0.5, 0.25j], n=n)
    out.append(_check("multiplier representation unitarity",
                      abs(nf - nug) / nf, 1e-12 * tol_scale, f"disc rule order {n}"))
    ef, eg = mm.measure_invariance_mc(g_mc, n=n)
    out.append(_check("invariant measure pushforward",
                      abs(ef - eg) / ef, 1e-12 * tol_scale, f"disc rule order {n}"))
    return out


def run_suite(scope: str = "all", seed: int = 0, tol_scale: float = 1.0,
              fast: bool = False) -> list[CheckResult]:
    out: list[CheckResult] = []
    if scope in ("exact", "all"):
        out.extend(run_exact_suite())
    if scope in ("numeric", "all"):
        out.extend(run_numeric_suite(seed, tol_scale, triples=100 if fast else 1000))
    return out
