"""Block-matrix realization: factorization, cocycle, Jacobians, kernels."""

import math

import numpy as np
import pytest

from hdt.matrixmodel import (
    BlockMatrixElement,
    OutsideCellError,
    cayley_verify,
    eta,
    expm,
    h_polynomial,
    hc_factorize,
    identity_element,
    jacobian_at_origin,
    jacobian_matrix,
    measure_invariance_mc,
    mobius_action,
    multiplier_unitarity_mc,
    random_block_unitary,
    random_domain_point,
    random_su,
    random_triples,
    stratified_disc,
    torus_element,
    verify_Q_transformation,
    verify_kernel_transformation,
    verify_reproducing_kernel_disc,
    verify_sl2_identity,
)

RNG = np.random.default_rng(20240831)


def test_membership_invariant():
    for (p, q) in [(1, 1), (1, 2), (2, 3)]:
        e = eta(p, q)
        for _ in range(20):
            g = random_su(RNG, p, q)
            assert np.max(np.abs(g.mat.conj().T @ e @ g.mat - e)) < 1e-10
            assert abs(g.det - 1.0) < 1e-8
    with pytest.raises(ValueError):
        BlockMatrixElement(np.diag([2.0, 1.0]).astype(complex), 1, 1)


def test_sl2_identity_values():
    assert verify_sl2_identity(0.0) == 0.0
    assert verify_sl2_identity(1.0) < 1e-12
    assert verify_sl2_identity(5.0) < 1e-12
    assert verify_sl2_identity(10.0) < 1e-8
    assert verify_sl2_identity(50.0) < 1e-8  # log-space branch
    assert verify_sl2_identity(-3.0) < 1e-12


def test_factorize_identity():
    z = random_domain_point(RNG, 2, 3)
    f = hc_factorize(identity_element(2, 3), z)
    assert np.allclose(f.w, z)
    assert np.allclose(f.k_plus, np.eye(2))
    assert np.allclose(f.k_minus, np.eye(3))
    assert np.max(np.abs(f.y)) < 1e-14
    assert f.residual < 1e-14


def test_translation_action():
    p, q = 2, 2
    u = 0.1 * (RNG.standard_normal((p, q)) + 1j * RNG.standard_normal((p, q)))
    m = np.block([[np.eye(p), u], [np.zeros((q, p)), np.eye(q)]])
    g = BlockMatrixElement(m, p, q, check=False)  # upper unipotent, not in U(p,q)
    z = random_domain_point(RNG, p, q, max_norm=0.5)
    f = hc_factorize(g, z)
    assert np.allclose(f.w, z + u)


def test_rotation_action_preserves_singular_values():
    p, q = 2, 2
    k = random_block_unitary(RNG, p, q)
    z = random_domain_point(RNG, p, q)
    f = hc_factorize(k, z)
    assert np.allclose(f.w, k.A @ z @ np.linalg.inv(k.D))
    assert np.allclose(f.k_plus, k.A) and np.allclose(f.k_minus, k.D)
    sv_before = np.linalg.svd(z, compute_uv=False)
    sv_after = np.linalg.svd(f.w, compute_uv=False)
    assert np.allclose(sv_before, sv_after)


def test_outside_cell_error():
    # for g in SU(1,1) the lower block c z + d vanishes at z = -conj(a)/conj(b),
    # which lies outside the closed disc
    g = torus_element([1.0], 1, 1)
    a, b = g.mat[0, 0], g.mat[0, 1]
    z_bad = np.array([[-np.conj(a) / np.conj(b)]])
    assert abs(z_bad[0, 0]) > 1
    with pytest.raises(OutsideCellError):
        hc_factorize(g, z_bad)


def test_mobius_matches_factorization_and_composes():
    for (p, q) in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for _ in range(50):
            g1, g2 = random_su(RNG, p, q), random_su(RNG, p, q)
            z = random_domain_point(RNG, p, q)
            w = mobius_action(g1 @ g2, z)
            w2 = mobius_action(g1, mobius_action(g2, z))
            assert np.max(np.abs(w - w2)) < 1e-10
            assert np.linalg.norm(w, 2) < 1.0  # action preserves the domain


def test_cocycle_identity():
    for (p, q) in [(1, 1), (2, 3)]:
        for _ in range(100):
            g1, g2 = random_su(RNG, p, q), random_su(RNG, p, q)
            z = random_domain_point(RNG, p, q)
            f12 = hc_factorize(g1 @ g2, z)
            f2 = hc_factorize(g2, z)
            f1 = hc_factorize(g1, f2.w)
            assert np.max(np.abs(f1.k_plus @ f2.k_plus - f12.k_plus)) < 1e-10
            assert np.max(np.abs(f1.k_minus @ f2.k_minus - f12.k_minus)) < 1e-10


def test_torus_orbit_and_automorphy():
    p = q = 2
    t = [0.3, 1.2]
    a = torus_element(t, p, q)
    zero = np.zeros((p, q), dtype=complex)
    w = mobius_action(a, zero)
    assert np.allclose(w, np.diag(np.tanh(t)))
    f = hc_factorize(a, zero)
    # sech on the upper block, cosh on the lower block
    assert np.allclose(f.k_plus, np.diag([1 / math.cosh(x) for x in t]))
    assert np.allclose(f.k_minus, np.diag([math.cosh(x) for x in t]))
    # multiplying by a rotation multiplies the automorphy factor on the left
    k = random_block_unitary(RNG, p, q)
    fk = hc_factorize(k @ a, zero)
    assert np.allclose(fk.k_plus, k.A @ f.k_plus)
    assert np.allclose(fk.k_minus, k.D @ f.k_minus)


def test_jacobian_su11_closed_form():
    det_fd, formula, rel = jacobian_at_origin(1, 1, [1.0])
    assert formula == pytest.approx(1.0 / math.cosh(1.0) ** 2)
    assert rel < 1e-6


def test_jacobian_su22_random():
    t = RNG.uniform(-1.5, 1.5, size=2)
    _, _, rel = jacobian_at_origin(2, 2, t)
    assert rel < 1e-6
    assert jacobian_at_origin(2, 2, [0.0, 0.0])[0] == pytest.approx(1.0, abs=1e-9)


def test_automorphy_determinant_is_jacobian():
    g = random_su(RNG, 2, 3)
    z = random_domain_point(RNG, 2, 3)
    f = hc_factorize(g, z)
    det_formula = np.linalg.det(f.k_plus) ** 3 * np.linalg.det(f.k_minus) ** (-2)
    det_fd = np.linalg.det(jacobian_matrix(g, z))
    assert abs(det_formula - det_fd) / abs(det_fd) < 1e-6


def test_h_polynomial_values():
    z = np.zeros((2, 2), dtype=complex)
    assert h_polynomial(z, z) == 1.0
    x = [0.3, 0.7]
    zd = np.diag(x).astype(complex)
    assert h_polynomial(zd, zd) == pytest.approx((1 - 0.09) * (1 - 0.49))
    k = random_block_unitary(RNG, 2, 2)
    w = random_domain_point(RNG, 2, 2)
    kw = mobius_action(k, w)
    assert abs(h_polynomial(kw, kw) - h_polynomial(w, w)) < 1e-12


def test_Q_transformation_su11():
    g = random_su(RNG, 1, 1)
    z = random_domain_point(RNG, 1, 1)
    res = verify_Q_transformation(g, z, 2, k_element=random_block_unitary(RNG, 1, 1))
    assert res["transform"] < 1e-10
    assert res["k_conjugation"] < 1e-10
    # the multiplier-derived exponent for the invariant measure is -(p+q);
    # the opposite sign fails by orders of magnitude
    assert res["measure_exponent_minus"] < 1e-6
    assert res["measure_exponent_plus"] > 1e-3


def test_Q_transformation_identity_trivial():
    z = random_domain_point(RNG, 2, 2)
    res = verify_Q_transformation(identity_element(2, 2), z, 3)
    assert res["transform"] < 1e-14


def test_kernel_transformation_su11_classical():
    # (1 - gz conj(gw))^-k = (cz+d)^k (1 - z conj(w))^-k conj((cw+d))^k
    for power in (2, 3, 5):
        g = random_su(RNG, 1, 1)
        z = random_domain_point(RNG, 1, 1)
        w = random_domain_point(RNG, 1, 1)
        res = verify_kernel_transformation(g, z, w, power)
        assert res["transform"] < 1e-10
        assert res["hermitian"] < 1e-12
        assert res["kernel_at_zero"] == 0.0


def test_kernel_transformation_su22():
    g = random_su(RNG, 2, 2)
    z = random_domain_point(RNG, 2, 2)
    w = random_domain_point(RNG, 2, 2)
    res = verify_kernel_transformation(g, z, w, 4)
    assert res["transform"] < 1e-9
    assert res["hermitian"] < 1e-12


def test_cayley_quarter_rotation():
    assert cayley_verify(1, 1, 1) < 1e-10
    assert cayley_verify(2, 2, 2) < 1e-10
    assert cayley_verify(2, 2, 3) < 1e-10
    with pytest.raises(ValueError):
        cayley_verify(3, 2, 2)


def test_cayley_fixes_commuting_elements():
    # an element commuting with all e_j - e_{-j} is fixed by the conjugation
    p = q = 2
    n = p + q
    gen = np.zeros((n, n))
    for j in range(2):
        gen[j, p + j] = 1.0
        gen[p + j, j] = -1.0
    u = expm((np.pi / 4) * gen)
    x = gen.copy()  # commutes with itself
    assert np.allclose(u @ x @ np.linalg.inv(u), x)


def test_expm_closed_forms():
    # exp of sum t_j (e_j + e_{-j}) is the cosh/sinh torus element
    p, q, t = 2, 3, [0.4, -2.5]
    x = np.zeros((p + q, p + q))
    for j, tj in enumerate(t):
        x[j, p + j] = x[p + j, j] = tj
    assert np.max(np.abs(expm(x) - torus_element(t, p, q).mat)) < 1e-14 * math.cosh(2.5)
    # exp((pi/4)(e_{j,p+j} - e_{p+j,j})) is the quarter rotation in that plane
    gen = np.zeros((4, 4))
    gen[0, 2], gen[2, 0] = 1.0, -1.0
    c = math.sqrt(0.5)
    want = np.array([[c, 0, c, 0], [0, 1, 0, 0], [-c, 0, c, 0], [0, 0, 0, 1]])
    assert np.max(np.abs(expm((np.pi / 4) * gen) - want)) < 1e-15
    assert np.max(np.abs(expm(np.zeros((3, 3))) - np.eye(3))) < 1e-15


def test_expm_group_laws_on_stacks():
    rng = np.random.default_rng(17)
    for (p, q) in [(1, 1), (2, 3)]:
        n, e = p + q, eta(p, q)
        y = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        # X^* eta + eta X = 0 and tr X = 0: random elements of su(p,q)
        alg = (y - e @ np.swapaxes(y, -2, -1).conj() @ e) / 2
        alg -= (np.trace(alg, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
        g, ginv = expm(alg), expm(-alg)
        assert np.max(np.abs(g @ ginv - np.eye(n))) < 1e-12
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-12
        assert np.max(np.abs(np.swapaxes(g, -2, -1).conj() @ e @ g - e)) < 1e-12
        # a stack gives what its matrices give one at a time
        assert np.array_equal(g, np.stack([expm(a) for a in alg]))


def test_stacked_factorization_matches_single():
    rng = np.random.default_rng(23)
    for (p, q) in [(1, 1), (1, 2), (2, 3)]:
        g1, g2, z = random_triples(rng, p, q, 40)
        g = g1 @ g2
        f = hc_factorize(g, z)
        w = mobius_action(g, z)
        assert f.residual.shape == (40,)
        for i in range(40):
            gi = BlockMatrixElement(g.mat[i], p, q)
            fi = hc_factorize(gi, z[i])
            for got, want in ((f.w, fi.w), (f.k_plus, fi.k_plus), (f.k_minus, fi.k_minus),
                              (f.y, fi.y), (w, mobius_action(gi, z[i]))):
                assert np.max(np.abs(got[i] - want)) <= 1e-14
            assert abs(f.residual[i] - fi.residual) <= 1e-14


def test_stacked_checks_cover_every_element():
    rng = np.random.default_rng(29)
    g1, _, z = random_triples(rng, 1, 1, 5)
    mats = g1.mat.copy()
    mats[3] *= 2.0  # leaves U(1,1)
    with pytest.raises(ValueError):
        BlockMatrixElement(mats, 1, 1)
    # one point outside the disc where c z + d vanishes
    g = torus_element([1.0], 1, 1)
    a, b = g.mat[0, 0], g.mat[0, 1]
    stack = BlockMatrixElement(np.stack([g.mat] * 5), 1, 1)
    z = z.copy()
    z[2] = -np.conj(a) / np.conj(b)
    with pytest.raises(OutsideCellError):
        hc_factorize(stack, z)
    with pytest.raises(OutsideCellError):
        mobius_action(stack, z)


def test_random_triples_follow_the_sequential_stream():
    for (p, q) in [(1, 1), (2, 2), (2, 3)]:
        batched, sequential = np.random.default_rng(5), np.random.default_rng(5)
        g1, g2, z = random_triples(batched, p, q, 30)
        for i in range(30):
            assert np.array_equal(g1.mat[i], random_su(sequential, p, q).mat)
            assert np.array_equal(g2.mat[i], random_su(sequential, p, q).mat)
            assert np.array_equal(z[i], random_domain_point(sequential, p, q))
        assert batched.random() == sequential.random()


def test_reproducing_kernel_normalization():
    est, exact, err = verify_reproducing_kernel_disc(2, [1.0], 0.0, n_samples=200_000, seed=3)
    assert exact == 1.0
    assert err < 1e-3  # the constant function is reproduced


def test_reproducing_kernel_monomial():
    est, exact, err = verify_reproducing_kernel_disc(3, [0, 1], 0.3, n_samples=200_000, seed=3)
    assert exact == pytest.approx(0.3)
    assert err < 1e-3


def test_reproducing_kernel_rejects_small_k():
    with pytest.raises(ValueError):
        verify_reproducing_kernel_disc(1, [1.0], 0.0)


def test_stratified_matches_rejection_sampling():
    # uniform on the disc: E z = 0, E|z|^2 = 1/2, E|z|^4 = 1/3 in closed form
    z = stratified_disc(np.random.default_rng(12), 200_000)
    assert abs(np.mean(z)) < 1e-12
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1 / 2, abs=1e-6)
    assert np.mean(np.abs(z) ** 4) == pytest.approx(1 / 3, abs=1e-6)


def test_multiplier_unitarity():
    rng = np.random.default_rng(5)
    g = random_su(rng, 1, 1, scale=0.3)
    nf, nug = multiplier_unitarity_mc(g, 3, [1.0, 0.2j, -0.1], rng, n=200_000)
    assert abs(nf - nug) / nf < 1e-2


def test_measure_invariance():
    rng = np.random.default_rng(6)
    g = random_su(rng, 1, 1, scale=0.3)
    ef, eg = measure_invariance_mc(g, rng, n=200_000)
    assert abs(ef - eg) / ef < 1e-2
