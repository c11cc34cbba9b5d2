"""Concrete block-matrix realization on SU(p,q) and its bounded domain.

Group elements are (p+q) x (p+q) complex matrices preserving the signature
form diag(I_p, -I_q); domain points are p x q matrices of spectral norm
below 1.  Everything here is floating point: the factorization through
upper-triangular / block-diagonal / lower-triangular unipotent pieces, the
Moebius action, the canonical automorphy factor and its cocycle identity,
Jacobians and the determinant polynomial h.  On the unit disc, the
weighted reproducing kernel, the invariant measure and the unitary
multiplier representation are checked by integrating on disc_rule, a
deterministic product quadrature rule, against closed forms.

Group elements, domain points and factorizations may be stacks: a leading
batch shape in front of the matrix axes, (..., n, n) and (..., p, q).  A
single matrix is the 2-D case of the same code.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

MEMBERSHIP_TOL = 1e-10
DISC_ORDER = 256  # Gauss-Legendre nodes in |z|^2 of disc_rule; twice as many angles
FD_STEP = 1e-5  # central-difference step of jacobian_matrix
SU_SCALE = 0.6  # default spread of random_su's Lie algebra entries
MAX_NORM = 0.8  # default bound on random_domain_point's spectral norm


class OutsideCellError(ValueError):
    """g . exp(z) left the open factorizable cell (singular lower block)."""


def eta(p: int, q: int) -> np.ndarray:
    return np.diag([1.0] * p + [-1.0] * q).astype(complex)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix in a stack."""
    return np.max(np.abs(x), axis=(-2, -1))


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -2, -1).conj()


class BlockMatrixElement:
    """An element of U(p,q), or a stack of them when mat is (..., n, n)."""

    def __init__(self, mat: np.ndarray, p: int, q: int, check: bool = True):
        n = p + q
        self.mat, self.p, self.q = np.asarray(mat, dtype=complex), p, q
        if self.mat.shape[-2:] != (n, n):
            raise ValueError(f"expected {n} x {n} matrix")
        if check:
            e = eta(p, q)
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


class FactorizationResult(NamedTuple):
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
    a, c = g.A, g.C
    b, d, w, d_inv = _image(g, z)
    y = d_inv @ c
    k_plus = a - w @ c
    # upper . diag . lower = [[k_plus + w D' y, w D'], [D' y, D']]
    wd = w @ d
    res = np.maximum(np.maximum(_max_abs(k_plus + wd @ y - a), _max_abs(wd - b)),
                     _max_abs(d @ y - c))
    scale = np.maximum(np.maximum(_max_abs(a), _max_abs(b)), np.maximum(_max_abs(c), _max_abs(d)))
    return FactorizationResult(w, k_plus, d, y, res / np.maximum(1.0, scale))


def _image(g: BlockMatrixElement, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """A z + B, C z + D, the image point (A z + B)(C z + D)^-1 and (C z + D)^-1.

    Raises OutsideCellError when some C z + D is singular relative to g and
    z: when 1 / ||(C z + D)^-1||_F, a lower bound on its smallest singular
    value, is at most 1e-13 scale.
    """
    z = np.asarray(z, dtype=complex)
    num, den = g.A @ z + g.B, g.C @ z + g.D
    scale = np.maximum(1.0, _max_abs(g.mat)) * np.maximum(1.0, _max_abs(z))
    try:
        inv = np.linalg.inv(den)
    except np.linalg.LinAlgError as exc:
        raise OutsideCellError("lower-right block is singular") from exc
    # not (... < 1) refuses a NaN norm as well
    if not np.all(np.linalg.norm(inv, axis=(-2, -1)) * (1e-13 * scale) < 1.0):
        raise OutsideCellError("lower-right block is singular: outside the open cell")
    return num, den, num @ inv, inv


def mobius_action(g: BlockMatrixElement, z: np.ndarray) -> np.ndarray:
    """(A z + B)(C z + D)^-1."""
    return _image(g, z)[2]


def multiplier(g: BlockMatrixElement, z: np.ndarray, power: int) -> complex:
    """Scalar multiplier det(C z + D)^power; integer powers only, so no
    branch cuts can appear."""
    if int(power) != power:
        raise ValueError("power must be an integer")
    return complex(np.linalg.det(g.C @ np.asarray(z, complex) + g.D)) ** int(power)


# -- identities ---------------------------------------------------------------


def verify_sl2_identity(t: float) -> float:
    """Residual of the 2 x 2 three-factor identity for exp t(e + f),
    relative to cosh t.

    The matrix product is exact to rounding while cosh t is finite, up to
    |t| of about 710.
    """
    c, s, x = math.cosh(t), math.sinh(t), math.tanh(t)
    lhs = np.array([[c, s], [s, c]])
    rhs = (
        np.array([[1.0, x], [0.0, 1.0]])
        @ np.diag([1.0 / c, c])
        @ np.array([[1.0, 0.0], [x, 1.0]])
    )
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, c))


def jacobian_matrix(g: BlockMatrixElement, z: np.ndarray) -> np.ndarray:
    """Complex Jacobian of the Moebius action at z by central differences.

    The map is holomorphic, so differences along real coordinate directions
    determine the full complex derivative.
    """
    n = g.p * g.q
    z = np.asarray(z, dtype=complex)
    # dz[k q + l] steps the (k, l) entry; one stacked action over z + dz, z - dz
    dz = FD_STEP * np.eye(n, dtype=complex).reshape(n, g.p, g.q)
    w = mobius_action(g, np.concatenate([z + dz, z - dz]))
    return ((w[:n] - w[n:]) / (2.0 * FD_STEP)).reshape(n, n).T


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
    h_z = h_polynomial(z, z).real
    h_w = h_polynomial(w, w).real
    q_z, q_w = h_z ** power, h_w ** power
    res_transform = abs(q_w - q_z / abs(m) ** 2) / abs(q_w)

    out = {"transform": float(res_transform)}
    if k_element is not None:
        zk = mobius_action(k_element, z)
        q_zk = h_polynomial(zk, zk).real ** power
        out["k_conjugation"] = float(abs(q_zk - q_z) / abs(q_z))

    genus = p + q
    jac = complex(np.linalg.det(jacobian_matrix(g, z)))
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


# -- quadrature checks on the disc --------------------------------------------


@functools.cache
def disc_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a product rule for Int_D F dlambda on the disc.

    Gauss-Legendre with n nodes in t = |z|^2 times the trapezoidal rule at
    2n equally spaced angles; dlambda = dt dtheta / 2, so the weights sum
    to pi.  The rule is exact for polynomials of degree < 2n in t times
    trigonometric polynomials of degree < 2n, and it converges
    geometrically for integrands analytic near the closed disc (Trefethen
    and Weideman, SIAM Review 56 (2014)).  Cached arrays, read-only.
    """
    x, u = np.polynomial.legendre.leggauss(n)
    z = (np.sqrt((x[:, None] + 1.0) / 2.0) * np.exp(1j * np.pi * np.arange(2 * n) / n)).ravel()
    weights = np.repeat(u * (np.pi / (4.0 * n)), 2 * n)
    z.flags.writeable = weights.flags.writeable = False
    return z, weights


def disc_order(ratio: float) -> int:
    """The smallest power of two n >= 32, and at most DISC_ORDER, with
    ratio^(2n) <= 1e-17: disc_rule(n)'s trapezoidal error for an integrand
    whose angular modes decay like ratio^m, such as |c/d| of g = [[a, b],
    [c, d]] in the Moebius checks and |w| for the kernel at w."""
    n = 32
    while n < DISC_ORDER and ratio ** (2 * n) > 1e-17:
        n *= 2
    return n


def verify_reproducing_kernel_disc(
    k: int, coeffs, w: complex, n_samples: int = DISC_ORDER
) -> tuple[complex, complex, float]:
    """Check the reproducing property on the unit disc.

    Integrates ((k-1)/pi) Int_D f(z) (1 - w conj(z))^(-k) (1-|z|^2)^(k-2)
    dlambda for a polynomial f on disc_rule(n_samples) and compares it with
    f(w).  Returns (integral, f(w), |difference|).
    """
    if k < 2:
        raise ValueError("need k >= 2 for a finite weighted space")
    z, dz = disc_rule(n_samples)
    cs = np.asarray(coeffs, dtype=complex)
    integrand = (np.polynomial.polynomial.polyval(z, cs) * (1.0 - w * np.conj(z)) ** (-k)
                 * (1.0 - np.abs(z) ** 2) ** (k - 2))
    estimate = complex((k - 1.0) / np.pi * np.sum(integrand * dz))
    exact = complex(np.polynomial.polynomial.polyval(w, cs))
    return estimate, exact, abs(estimate - exact)


def measure_invariance_mc(g: BlockMatrixElement, n: int = DISC_ORDER) -> tuple[float, float]:
    """Int f dnu in closed form against Int f(g .) dnu on disc_rule(n), with
    dnu = h^-2 dlambda and f = (1 - |z|^2)^3, so Int f dnu = pi/2; equality
    is the invariance of the measure.  g . z is the Moebius formula."""
    if (g.p, g.q) != (1, 1):
        raise ValueError("disc check only")
    z, dz = disc_rule(n)
    a, b, c, d = g.A[0, 0], g.B[0, 0], g.C[0, 0], g.D[0, 0]
    gz = (a * z + b) / (c * z + d)
    est_gf = float(np.sum((1.0 - np.abs(gz) ** 2) ** 3 * (1.0 - np.abs(z) ** 2) ** (-2.0) * dz))
    return np.pi / 2.0, est_gf


def multiplier_unitarity_mc(
    g: BlockMatrixElement, k: int, coeffs, n: int = DISC_ORDER
) -> tuple[float, float]:
    """Norms of f and of U_g f in the weight-k disc space.

    (U_g f)(z) = m(g^-1, z)^-1 f(g^-1 z) with m the k-th power multiplier;
    unitarity means the two norms agree.  ||f||^2 is the closed form
    sum |c_j|^2 pi j! (k-2)! / (j+k-1)!, ||U_g f||^2 the integral on
    disc_rule(n)."""
    if (g.p, g.q) != (1, 1):
        raise ValueError("disc check only")
    z, dz = disc_rule(n)
    cs = np.asarray(coeffs, dtype=complex)
    norm_f = sum(abs(c) ** 2 * math.pi * math.factorial(j) * math.factorial(k - 2)
                 / math.factorial(j + k - 1) for j, c in enumerate(cs))
    ginv = g.inverse()
    a, b, c, d = ginv.A[0, 0], ginv.B[0, 0], ginv.C[0, 0], ginv.D[0, 0]
    ugf = (c * z + d) ** (-k) * np.polynomial.polynomial.polyval((a * z + b) / (c * z + d), cs)
    norm_ugf = float(np.sum(np.abs(ugf) ** 2 * (1.0 - np.abs(z) ** 2) ** (k - 2.0) * dz))
    return float(norm_f), norm_ugf
