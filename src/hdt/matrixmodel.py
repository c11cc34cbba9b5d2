"""Concrete block-matrix realization on SU(p,q) and its bounded domain.

Group elements are (p+q) x (p+q) complex matrices preserving the signature
form diag(I_p, -I_q); domain points are p x q matrices of spectral norm
below 1.  Everything here is floating point: the factorization through
upper-triangular / block-diagonal / lower-triangular unipotent pieces, the
Moebius action, the canonical automorphy factor and its cocycle identity,
Jacobians, the determinant polynomial h, and the weighted reproducing
kernel on the unit disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

MEMBERSHIP_TOL = 1e-10
ANGULAR = 8  # systematic angles per radial stratum of stratified_disc
FD_STEP = 1e-5  # central-difference step of jacobian_matrix

DomainPoint = np.ndarray  # p x q complex, spectral norm < 1


class OutsideCellError(ValueError):
    """g . exp(z) left the open factorizable cell (singular lower block)."""


def eta(p: int, q: int) -> np.ndarray:
    return np.diag([1.0] * p + [-1.0] * q).astype(complex)


@dataclass
class BlockMatrixElement:
    mat: np.ndarray
    p: int
    q: int
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        n = self.p + self.q
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (n, n):
            raise ValueError(f"expected {n} x {n} matrix")
        if self.check:
            e = eta(self.p, self.q)
            res = np.max(np.abs(self.mat.conj().T @ e @ self.mat - e))
            scale = max(1.0, float(np.max(np.abs(self.mat))) ** 2)
            if res > MEMBERSHIP_TOL * scale:
                raise ValueError(f"not in U(p,q): invariance residual {res:.3e}")

    @property
    def A(self) -> np.ndarray:
        return self.mat[: self.p, : self.p]

    @property
    def B(self) -> np.ndarray:
        return self.mat[: self.p, self.p :]

    @property
    def C(self) -> np.ndarray:
        return self.mat[self.p :, : self.p]

    @property
    def D(self) -> np.ndarray:
        return self.mat[self.p :, self.p :]

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.mat))

    def __matmul__(self, other: "BlockMatrixElement") -> "BlockMatrixElement":
        return BlockMatrixElement(self.mat @ other.mat, self.p, self.q)

    def inverse(self) -> "BlockMatrixElement":
        e = eta(self.p, self.q)
        return BlockMatrixElement(e @ self.mat.conj().T @ e, self.p, self.q)


def identity_element(p: int, q: int) -> BlockMatrixElement:
    return BlockMatrixElement(np.eye(p + q, dtype=complex), p, q)


def random_su(rng: np.random.Generator, p: int, q: int, scale: float = 0.6) -> BlockMatrixElement:
    """exp of a random traceless element of the u(p,q) Lie algebra."""
    n = p + q
    a = _random_anti_hermitian(rng, p, scale)
    d = _random_anti_hermitian(rng, q, scale)
    b = scale * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
    x = np.zeros((n, n), dtype=complex)
    x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:] = a, b, b.conj().T, d
    x -= (np.trace(x) / n) * np.eye(n)
    return BlockMatrixElement(expm(x), p, q)


def _random_anti_hermitian(rng, n, scale):
    x = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (x - x.conj().T) / 2


def random_block_unitary(rng: np.random.Generator, p: int, q: int) -> BlockMatrixElement:
    """Random element of U(p) x U(q) with unit determinant."""
    n = p + q
    x = np.zeros((n, n), dtype=complex)
    x[:p, :p] = _random_anti_hermitian(rng, p, 1.0)
    x[p:, p:] = _random_anti_hermitian(rng, q, 1.0)
    x -= (np.trace(x) / n) * np.eye(n)
    return BlockMatrixElement(expm(x), p, q)


def torus_element(t, p: int, q: int) -> BlockMatrixElement:
    """exp of sum t_j (e_j + e_{-j}): cosh/sinh rotations in r disjoint planes."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if len(ts) > min(p, q):
        raise ValueError("too many torus coordinates")
    m = np.eye(p + q, dtype=complex)
    for j, tj in enumerate(ts):
        c, s = math.cosh(tj), math.sinh(tj)
        m[j, j] = c
        m[j, p + j] = s
        m[p + j, j] = s
        m[p + j, p + j] = c
    return BlockMatrixElement(m, p, q)


def random_domain_point(
    rng: np.random.Generator, p: int, q: int, max_norm: float = 0.8
) -> np.ndarray:
    z = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    target = max_norm * rng.uniform(0.1, 1.0)
    return z * (target / np.linalg.norm(z, 2))


# -- factorization and action -------------------------------------------------


@dataclass
class FactorizationResult:
    w: np.ndarray  # the image point g . z
    k_plus: np.ndarray  # p x p block of the automorphy factor
    k_minus: np.ndarray  # q x q block of the automorphy factor
    y: np.ndarray  # lower unipotent part
    residual: float  # reassembly error against g . exp(z)


def hc_factorize(g: BlockMatrixElement, z: np.ndarray) -> FactorizationResult:
    """Split g . exp(z) into upper / block-diagonal / lower factors.

    With M = g [[I, z], [0, I]] = [[A', B'], [C', D']] the pieces are
    w = B' D'^-1, k_minus = D', k_plus = A' - B' D'^-1 C', y = D'^-1 C'.
    Raises OutsideCellError when D' is singular, which cannot happen for
    group elements acting on interior points.
    """
    p, q = g.p, g.q
    z = np.asarray(z, dtype=complex)
    a, b = g.A, g.A @ z + g.B
    c, d = g.C, g.C @ z + g.D
    _require_invertible(d, g, z)
    try:
        dinv_c = np.linalg.solve(d, c)
        w = np.linalg.solve(d.T, b.T).T
    except np.linalg.LinAlgError as exc:
        raise OutsideCellError("lower-right block is singular") from exc
    k_plus = a - w @ c
    k_minus = d
    m = np.block([[a, b], [c, d]])
    upper = np.block([[np.eye(p), w], [np.zeros((q, p)), np.eye(q)]])
    diag = np.block([[k_plus, np.zeros((p, q))], [np.zeros((q, p)), k_minus]])
    lower = np.block([[np.eye(p), np.zeros((p, q))], [dinv_c, np.eye(q)]])
    res = np.max(np.abs(upper @ diag @ lower - m)) / max(1.0, float(np.max(np.abs(m))))
    return FactorizationResult(w, k_plus, k_minus, dinv_c, float(res))


def _require_invertible(d: np.ndarray, g: BlockMatrixElement, z: np.ndarray):
    # relative smallest singular value; g . exp(z) leaves the factorizable
    # cell exactly when this block degenerates
    scale = max(1.0, float(np.max(np.abs(g.mat)))) * max(1.0, float(np.max(np.abs(z))))
    if np.linalg.svd(d, compute_uv=False)[-1] <= 1e-13 * scale:
        raise OutsideCellError("lower-right block is singular: outside the open cell")


def mobius_action(g: BlockMatrixElement, z: np.ndarray) -> np.ndarray:
    """(A z + B)(C z + D)^-1."""
    z = np.asarray(z, dtype=complex)
    num = g.A @ z + g.B
    den = g.C @ z + g.D
    _require_invertible(den, g, z)
    try:
        return np.linalg.solve(den.T, num.T).T
    except np.linalg.LinAlgError as exc:
        raise OutsideCellError("lower-right block is singular") from exc


def multiplier(g: BlockMatrixElement, z: np.ndarray, power: int) -> complex:
    """Scalar multiplier det(C z + D)^power; integer powers only, so no
    branch cuts can appear."""
    if int(power) != power:
        raise ValueError("power must be an integer")
    return complex(np.linalg.det(g.C @ np.asarray(z, complex) + g.D)) ** int(power)


# -- identities ---------------------------------------------------------------


def verify_sl2_identity(t: float) -> float:
    """Residual of the 2 x 2 three-factor identity for exp t(e + f).

    Direct comparison up to |t| = 20; beyond that cosh would overflow in
    intermediate products, so entries are compared in log space.
    """
    if abs(t) <= 20.0:
        c, s, x = math.cosh(t), math.sinh(t), math.tanh(t)
        lhs = np.array([[c, s], [s, c]])
        rhs = (
            np.array([[1.0, x], [0.0, 1.0]])
            @ np.diag([1.0 / c, c])
            @ np.array([[1.0, 0.0], [x, 1.0]])
        )
        return float(np.max(np.abs(lhs - rhs)) / max(1.0, c))
    # log cosh = |t| + log1p(e^{-2|t|}) - log 2, log tanh from its own
    # series; entrywise the right side is [[1/c + x^2 c, x c], [x c, c]]
    at = abs(t)
    e2 = math.exp(-2 * at)
    logc = at + math.log1p(e2) - math.log(2.0)
    logs = at + math.log1p(-e2) - math.log(2.0)
    logx = math.log1p(-e2) - math.log1p(e2)
    res = abs(logx + logc - logs)  # off-diagonal: x c vs sinh
    corr = math.log1p(math.exp(-2 * logc - 2 * logx))  # adds the 1/c term
    res = max(res, abs(2 * logx + logc + corr - logc))  # diagonal vs cosh
    return res


def jacobian_matrix(g: BlockMatrixElement, z: np.ndarray) -> np.ndarray:
    """Complex Jacobian of the Moebius action at z by central differences.

    The map is holomorphic, so differences along real coordinate directions
    determine the full complex derivative.
    """
    p, q = g.p, g.q
    z = np.asarray(z, dtype=complex)
    jac = np.zeros((p * q, p * q), dtype=complex)
    col = 0
    for k in range(p):
        for l in range(q):
            dz = np.zeros((p, q), dtype=complex)
            dz[k, l] = FD_STEP
            wp = mobius_action(g, z + dz)
            wm = mobius_action(g, z - dz)
            jac[:, col] = ((wp - wm) / (2.0 * FD_STEP)).ravel()
            col += 1
    return jac


def jacobian_at_origin(p: int, q: int, t) -> tuple[float, float, float]:
    """Finite-difference Jacobian determinant of the torus action at 0
    against the closed form prod (1 - tanh^2 t_j)^((p+q)/2).

    Returns (numerical, formula, relative error).
    """
    g = torus_element(t, p, q)
    det_fd = complex(np.linalg.det(jacobian_matrix(g, np.zeros((p, q), complex))))
    formula = 1.0
    for tj in np.atleast_1d(np.asarray(t, dtype=float)):
        formula *= (1.0 - math.tanh(tj) ** 2) ** ((p + q) / 2.0)
    return float(det_fd.real), formula, abs(det_fd - formula) / abs(formula)


def h_polynomial(z: np.ndarray, w: np.ndarray) -> complex:
    """det(I - z w*): holomorphic in z, antiholomorphic in w; on the diagonal
    torus it reduces to prod (1 - x_j^2)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return complex(np.linalg.det(np.eye(z.shape[0], dtype=complex) - z @ w.conj().T))


def verify_Q_transformation(
    g: BlockMatrixElement,
    z: np.ndarray,
    power: int,
    k_element: BlockMatrixElement | None = None,
) -> dict[str, float]:
    """Residuals of the weight-function transformation law in the scalar model
    Q(z) = h(z,z)^power with multiplier det(C z + D)^power.

    Also measures which sign of the exponent makes h^(sign (p+q)) dlambda
    invariant under the action: the minus sign is the one forced by the
    multiplier definition, and the plus-sign residual is reported alongside
    to document the discrepancy.
    """
    p, q = g.p, g.q
    w = mobius_action(g, z)
    m = multiplier(g, z, power)
    q_z = h_polynomial(z, z).real ** power
    q_w = h_polynomial(w, w).real ** power
    res_transform = abs(q_w - q_z / abs(m) ** 2) / abs(q_w)

    out = {"transform": float(res_transform)}
    if k_element is not None:
        zk = mobius_action(k_element, z)
        q_zk = h_polynomial(zk, zk).real ** power
        out["k_conjugation"] = float(abs(q_zk - q_z) / abs(q_z))

    genus = p + q
    jac = complex(np.linalg.det(jacobian_matrix(g, z)))
    h_z = h_polynomial(z, z).real
    h_w = h_polynomial(w, w).real
    inv_minus = h_w ** (-genus) * abs(jac) ** 2 / h_z ** (-genus)
    inv_plus = h_w ** (genus) * abs(jac) ** 2 / h_z ** (genus)
    out["measure_exponent_minus"] = float(abs(inv_minus - 1.0))
    out["measure_exponent_plus"] = float(abs(inv_plus - 1.0))
    return out


def verify_kernel_transformation(
    g: BlockMatrixElement, z: np.ndarray, w: np.ndarray, power: int
) -> dict[str, float]:
    """Residuals of K(gz, gw) = m(g,z) K(z,w) m(g,w)* for K = h^(-power),
    of Hermitian symmetry, and of constancy of K(., 0)."""
    gz, gw = mobius_action(g, z), mobius_action(g, w)
    k_zw = h_polynomial(z, w) ** (-power)
    lhs = h_polynomial(gz, gw) ** (-power)
    rhs = multiplier(g, z, power) * k_zw * np.conj(multiplier(g, w, power))
    herm = abs(k_zw - np.conj(h_polynomial(w, z) ** (-power)))
    zero = np.zeros_like(np.asarray(z))
    const = abs(h_polynomial(z, zero) ** (-power) - 1.0)
    return {
        "transform": float(abs(lhs - rhs) / abs(lhs)),
        "hermitian": float(herm / abs(k_zw)),
        "kernel_at_zero": float(const),
    }


def verify_reproducing_kernel_disc(
    k: int,
    coeffs,
    w: complex,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> tuple[complex, complex, float]:
    """Monte Carlo check of the reproducing property on the unit disc.

    Estimates ((k-1)/pi) Int_D f(z) (1 - w conj(z))^(-k) (1-|z|^2)^(k-2)
    dlambda against f(w) for a polynomial f.  Sampling is uniform on the
    disc, stratified in radius with systematic random-offset angles, which
    suppresses the Monte Carlo noise far below the percent level at 10^6
    samples.  Returns (estimate, exact, |difference|).
    """
    if k < 2:
        raise ValueError("need k >= 2 for a finite weighted space")
    z = stratified_disc(np.random.default_rng(seed), n_samples)

    fz = np.polynomial.polynomial.polyval(z, np.asarray(coeffs, dtype=complex))
    kernel = (1.0 - w * np.conj(z)) ** (-k)
    weight = (1.0 - np.abs(z) ** 2) ** (k - 2)
    estimate = (k - 1.0) * float(np.mean((fz * kernel * weight).real))
    est_imag = (k - 1.0) * float(np.mean((fz * kernel * weight).imag))
    exact = complex(np.polynomial.polynomial.polyval(w, np.asarray(coeffs, dtype=complex)))
    return estimate + 1j * est_imag, exact, abs(estimate + 1j * est_imag - exact)


def cayley_verify(r: int, p: int, q: int) -> float:
    """Conjugate each e_j + e_{-j} by exp((pi/4) sum (e_j - e_{-j})) and
    measure the distance to the span of the coroot matrices h_j.

    The planes are disjoint, so the generators commute and the conjugation
    acts as an independent quarter rotation in each plane.
    """
    if r > min(p, q):
        raise ValueError("rank exceeds min(p, q)")
    n = p + q
    gen = np.zeros((n, n))
    for j in range(r):
        gen[j, p + j] = 1.0
        gen[p + j, j] = -1.0
    u = expm((np.pi / 4.0) * gen)
    uinv = expm(-(np.pi / 4.0) * gen)

    worst = 0.0
    for j in range(r):
        x = np.zeros((n, n))
        x[j, p + j] = 1.0
        x[p + j, j] = 1.0
        img = u @ x @ uinv
        proj = np.zeros((n, n))
        for i in range(r):
            c = (img[i, i] - img[p + i, p + i]).real / 2.0
            proj[i, i] = c
            proj[p + i, p + i] = -c
        worst = max(worst, float(np.max(np.abs(img - proj))))
    return worst


# -- Monte Carlo checks on the disc -------------------------------------------


def sample_disc(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the unit disc by rejection from the square."""
    out = np.empty(0, dtype=complex)
    while out.size < n:
        m = int((n - out.size) * 1.4) + 16
        z = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        out = np.concatenate([out, z[np.abs(z) < 1.0]])
    return out[:n]


def stratified_disc(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the disc, stratified in r^2 with systematic angles.

    Same distribution as sample_disc but with far lower variance for smooth
    integrands, which keeps the percent-level Monte Carlo checks stable.
    """
    strata = max(1, n // ANGULAR)
    u = (np.arange(strata) + rng.uniform(size=strata)) / strata
    radii = np.sqrt(u)
    angles = 2.0 * np.pi * (np.arange(ANGULAR)[None, :] + rng.uniform(size=strata)[:, None]) / ANGULAR
    return (radii[:, None] * np.exp(1j * angles)).ravel()


def measure_invariance_mc(
    g: BlockMatrixElement, rng: np.random.Generator, n: int = 200_000
) -> tuple[float, float]:
    """Compare Int f dnu with Int f(g .) dnu on the disc, dnu = h^-2 dlambda,
    for a fixed compactly supported bump f; equality is the invariance of
    the measure.  Returns the two Monte Carlo estimates."""
    if (g.p, g.q) != (1, 1):
        raise ValueError("disc check only")
    z = stratified_disc(rng, n)

    def bump(x):
        s = np.abs(x) ** 2
        return np.where(s < 0.49, (0.49 - s) ** 2, 0.0)

    dens = (1.0 - np.abs(z) ** 2) ** (-2.0)
    a, b, c, d = g.A[0, 0], g.B[0, 0], g.C[0, 0], g.D[0, 0]
    gz = (a * z + b) / (c * z + d)
    est_f = float(np.mean(bump(z) * dens) * np.pi)
    est_gf = float(np.mean(bump(gz) * dens) * np.pi)
    return est_f, est_gf


def multiplier_unitarity_mc(
    g: BlockMatrixElement,
    k: int,
    coeffs,
    rng: np.random.Generator,
    n: int = 400_000,
) -> tuple[float, float]:
    """Norms of f and of U_g f in the weight-(k) disc space, Monte Carlo.

    (U_g f)(z) = m(g^-1, z)^-1 f(g^-1 z) with m the k-th power multiplier;
    unitarity means the two norms agree."""
    if (g.p, g.q) != (1, 1):
        raise ValueError("disc check only")
    z = stratified_disc(rng, n)
    weight = (1.0 - np.abs(z) ** 2) ** (k - 2.0)
    cs = np.asarray(coeffs, dtype=complex)
    f = np.polynomial.polynomial.polyval(z, cs)
    ginv = g.inverse()
    a, b, c, d = ginv.A[0, 0], ginv.B[0, 0], ginv.C[0, 0], ginv.D[0, 0]
    gz = (a * z + b) / (c * z + d)
    ugf = (c * z + d) ** (-k) * np.polynomial.polynomial.polyval(gz, cs)
    norm_f = float(np.mean(np.abs(f) ** 2 * weight) * np.pi)
    norm_ugf = float(np.mean(np.abs(ugf) ** 2 * weight) * np.pi)
    return norm_f, norm_ugf
