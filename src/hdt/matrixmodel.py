"""Concrete block-matrix realization on SU(p,q) and its bounded domain.

Group elements are (p+q) x (p+q) complex matrices preserving the signature
form diag(I_p, -I_q); domain points are p x q matrices of spectral norm
below 1.  Everything here is floating point: the factorization through
upper-triangular / block-diagonal / lower-triangular unipotent pieces, the
Moebius action, the canonical automorphy factor and its cocycle identity,
Jacobians, the determinant polynomial h, and the weighted reproducing
kernel on the unit disc.

Group elements, domain points and factorizations may be stacks: a leading
batch shape in front of the matrix axes, (..., n, n) and (..., p, q).  A
single matrix is the 2-D case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MEMBERSHIP_TOL = 1e-10
ANGULAR = 8  # systematic angles per radial stratum of stratified_disc
FD_STEP = 1e-5  # central-difference step of jacobian_matrix
SU_SCALE = 0.6  # default spread of random_su's Lie algebra entries
MAX_NORM = 0.8  # default bound on random_domain_point's spectral norm

DomainPoint = np.ndarray  # p x q complex, spectral norm < 1


class OutsideCellError(ValueError):
    """g . exp(z) left the open factorizable cell (singular lower block)."""


def eta(p: int, q: int) -> np.ndarray:
    return np.diag([1.0] * p + [-1.0] * q).astype(complex)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix in a stack."""
    return np.max(np.abs(x), axis=(-2, -1))


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -2, -1).conj()


@dataclass
class BlockMatrixElement:
    """An element of U(p,q), or a stack of them when mat is (..., n, n)."""

    mat: np.ndarray
    p: int
    q: int
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        n = self.p + self.q
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape[-2:] != (n, n):
            raise ValueError(f"expected {n} x {n} matrix")
        if self.check:
            e = eta(self.p, self.q)
            res = _max_abs(_adjoint(self.mat) @ e @ self.mat - e)
            bad = res > MEMBERSHIP_TOL * np.maximum(1.0, _max_abs(self.mat) ** 2)
            if np.any(bad):
                raise ValueError(f"not in U(p,q): invariance residual {np.max(res[bad]):.3e}")

    @property
    def A(self) -> np.ndarray:
        return self.mat[..., : self.p, : self.p]

    @property
    def B(self) -> np.ndarray:
        return self.mat[..., : self.p, self.p :]

    @property
    def C(self) -> np.ndarray:
        return self.mat[..., self.p :, : self.p]

    @property
    def D(self) -> np.ndarray:
        return self.mat[..., self.p :, self.p :]

    @property
    def det(self) -> complex | np.ndarray:
        return np.linalg.det(self.mat)

    def __matmul__(self, other: "BlockMatrixElement") -> "BlockMatrixElement":
        return BlockMatrixElement(self.mat @ other.mat, self.p, self.q)

    def inverse(self) -> "BlockMatrixElement":
        e = eta(self.p, self.q)
        return BlockMatrixElement(e @ _adjoint(self.mat) @ e, self.p, self.q)


def identity_element(p: int, q: int) -> BlockMatrixElement:
    return BlockMatrixElement(np.eye(p + q, dtype=complex), p, q)


# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the [13/13] Pade
# coefficients, and the 1-norm up to which that approximant needs no scaling
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack (..., n, n).

    [13/13] Pade approximation with scaling and squaring (Higham 2005).  Each
    matrix is scaled by its own power of two, so a stack gives the same
    result as its matrices one at a time.
    """
    a = np.asarray(a)
    b = _PADE13
    # 2^s >= ||a||_1 / theta_13; frexp gives s without a log of zero
    s = np.maximum(0, np.frexp(np.max(np.sum(np.abs(a), axis=-2), axis=-1) / _THETA13)[1])
    x = a / (2.0 ** s)[..., None, None]
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _su_size(p: int, q: int) -> int:
    """Standard normals that one random_su draw consumes."""
    return 2 * (p * p + q * q + p * q)


def _su_algebra(x: np.ndarray, p: int, q: int, scale: float) -> np.ndarray:
    """Traceless u(p,q) elements from standard normals x (..., _su_size(p, q)).

    x holds, real parts before imaginary parts, the p x p and q x q blocks
    made anti-Hermitian and then the p x q off-diagonal block b (with b* below
    the diagonal), every entry scaled by scale.
    """
    lead, n = x.shape[:-1], p + q
    blocks, off = [], 0
    for rows, cols in ((p, p), (q, q), (p, q)):
        size = rows * cols
        re = x[..., off : off + size].reshape(lead + (rows, cols))
        im = x[..., off + size : off + 2 * size].reshape(lead + (rows, cols))
        blocks.append(scale * (re + 1j * im))
        off += 2 * size
    a, d, b = blocks
    out = np.zeros(lead + (n, n), dtype=complex)
    out[..., :p, :p] = (a - _adjoint(a)) / 2
    out[..., p:, p:] = (d - _adjoint(d)) / 2
    out[..., :p, p:], out[..., p:, :p] = b, _adjoint(b)
    out -= (np.trace(out, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)
    return out


def _domain_point(x: np.ndarray, u, p: int, q: int, max_norm: float) -> np.ndarray:
    """Domain points from standard normals x (..., 2pq), real parts first,
    rescaled to spectral norm max_norm * u."""
    lead = x.shape[:-1]
    z = x[..., : p * q].reshape(lead + (p, q)) + 1j * x[..., p * q :].reshape(lead + (p, q))
    target = max_norm * np.asarray(u)
    return z * (target / np.linalg.norm(z, 2, axis=(-2, -1)))[..., None, None]


def random_su(
    rng: np.random.Generator, p: int, q: int, scale: float = SU_SCALE
) -> BlockMatrixElement:
    """exp of a random traceless element of the u(p,q) Lie algebra."""
    x = _su_algebra(rng.standard_normal(_su_size(p, q)), p, q, scale)
    return BlockMatrixElement(expm(x), p, q)


def random_block_unitary(rng: np.random.Generator, p: int, q: int) -> BlockMatrixElement:
    """Random element of U(p) x U(q) with unit determinant."""
    # the random_su draw with unit spread and a zero off-diagonal block
    x = np.concatenate([rng.standard_normal(2 * (p * p + q * q)), np.zeros(2 * p * q)])
    return BlockMatrixElement(expm(_su_algebra(x, p, q, 1.0)), p, q)


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
    rng: np.random.Generator, p: int, q: int, max_norm: float = MAX_NORM
) -> np.ndarray:
    x = rng.standard_normal(2 * p * q)
    return _domain_point(x, rng.uniform(0.1, 1.0), p, q, max_norm)


def random_triples(
    rng: np.random.Generator, p: int, q: int, n: int
) -> tuple[BlockMatrixElement, BlockMatrixElement, np.ndarray]:
    """n triples (g1, g2, z) as two stacked group elements and a stack of
    domain points.

    Each triple takes from rng exactly what random_su, random_su and
    random_domain_point take in turn with their default spreads, and the
    arithmetic after the draws is theirs applied to the stacks, so the
    values are theirs bit for bit.
    """
    k = _su_size(p, q)
    normals = np.empty((n, 2 * k + 2 * p * q))
    uniforms = np.empty(n)
    for i in range(n):
        normals[i] = rng.standard_normal(normals.shape[1])
        uniforms[i] = rng.uniform(0.1, 1.0)
    g1 = BlockMatrixElement(expm(_su_algebra(normals[:, :k], p, q, SU_SCALE)), p, q)
    g2 = BlockMatrixElement(expm(_su_algebra(normals[:, k : 2 * k], p, q, SU_SCALE)), p, q)
    return g1, g2, _domain_point(normals[:, 2 * k :], uniforms, p, q, MAX_NORM)


# -- factorization and action -------------------------------------------------


@dataclass
class FactorizationResult:
    w: np.ndarray  # the image point g . z
    k_plus: np.ndarray  # p x p block of the automorphy factor
    k_minus: np.ndarray  # q x q block of the automorphy factor
    y: np.ndarray  # lower unipotent part
    residual: float | np.ndarray  # reassembly error against g . exp(z), per stacked element


def hc_factorize(g: BlockMatrixElement, z: np.ndarray) -> FactorizationResult:
    """Split g . exp(z) into upper / block-diagonal / lower factors.

    With M = g [[I, z], [0, I]] = [[A', B'], [C', D']] the pieces are
    w = B' D'^-1, k_minus = D', k_plus = A' - B' D'^-1 C', y = D'^-1 C'.
    Stacks of g and z broadcast against each other.  Raises
    OutsideCellError when some D' is singular, which cannot happen for
    group elements acting on interior points.
    """
    z = np.asarray(z, dtype=complex)
    a, b = g.A, g.A @ z + g.B
    c, d = g.C, g.C @ z + g.D
    _require_invertible(d, g, z)
    try:
        y = np.linalg.solve(d, c)
        w = _right_divide(b, d)
    except np.linalg.LinAlgError as exc:
        raise OutsideCellError("lower-right block is singular") from exc
    k_plus = a - w @ c
    # upper . diag . lower = [[k_plus + w D' y, w D'], [D' y, D']]
    wd = w @ d
    res = np.maximum(np.maximum(_max_abs(k_plus + wd @ y - a), _max_abs(wd - b)),
                     _max_abs(d @ y - c))
    scale = np.maximum(np.maximum(_max_abs(a), _max_abs(b)), np.maximum(_max_abs(c), _max_abs(d)))
    return FactorizationResult(w, k_plus, d, y, res / np.maximum(1.0, scale))


def _right_divide(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """b d^-1, through the transposed system."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(d, -2, -1), np.swapaxes(b, -2, -1)), -2, -1)


def _require_invertible(d: np.ndarray, g: BlockMatrixElement, z: np.ndarray):
    # relative smallest singular value of each stacked block; g . exp(z)
    # leaves the factorizable cell exactly when this block degenerates
    scale = np.maximum(1.0, _max_abs(g.mat)) * np.maximum(1.0, _max_abs(z))
    if np.any(np.linalg.svd(d, compute_uv=False)[..., -1] <= 1e-13 * scale):
        raise OutsideCellError("lower-right block is singular: outside the open cell")


def mobius_action(g: BlockMatrixElement, z: np.ndarray) -> np.ndarray:
    """(A z + B)(C z + D)^-1."""
    z = np.asarray(z, dtype=complex)
    num = g.A @ z + g.B
    den = g.C @ z + g.D
    _require_invertible(den, g, z)
    try:
        return _right_divide(num, den)
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
    # exp((pi/4)(e_{j,p+j} - e_{p+j,j})) is the rotation by pi/4 in plane j
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    u = np.eye(n)
    for j in range(r):
        u[j, j] = u[p + j, p + j] = c
        u[j, p + j], u[p + j, j] = s, -s
    uinv = u.T

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


def stratified_disc(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the disc, stratified in r^2 with systematic angles.

    Far lower variance than independent uniform draws for smooth
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
