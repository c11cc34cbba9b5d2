"""Weight systems, multiplicities, and the maximality bound."""

import random
import subprocess
import sys
from fractions import Fraction
from operator import add, mul

import pytest

from hdt.cascade import root_sum, strongly_orthogonal_cascade, verify_rho_identities
from hdt.hermitian import catalog, compact_nodes, pair_by_label, partition_roots
from hdt.rootsystem import StructuralError
from hdt.weights import (
    compact_fundamental_weights,
    extend_compact_coords,
    freudenthal_multiplicity,
    lambda_one,
    rho_weight,
    verify_weight_bound,
    weight_multiplicities,
    weight_on_coroot,
    weight_system,
    weyl_dimension,
)


def inner_weight_root(rs, w, alpha) -> Fraction:
    """(w | alpha) = w(alpha^vee) (alpha|alpha) / 2 for w in weight coordinates."""
    return Fraction(weight_on_coroot(rs, w, alpha) * rs.inner2(alpha, alpha), 4)


def compact_reflection(pair, node, w):
    """Simple reflection at a compact node, acting in weight coordinates."""
    row = pair.root_system.cartan[node]
    return tuple(m - w[node] * ri for m, ri in zip(w, row))


def test_rho_unit_coordinates_everywhere():
    for pr in catalog():
        assert all(c == 1 for c in rho_weight(pr))


def test_coroot_table_matches_gram_formula():
    # reference: 2 (phi|alpha) / (alpha|alpha) in Fractions from the Gram
    # entries (alpha_i|alpha_j), with phi in simple-root coordinates
    for pr in catalog():
        rs = pr.root_system
        n = rs.rank
        gram = [[Fraction(rs.sym[i][j], 2) for j in range(n)] for i in range(n)]

        def in_roots(w):
            return [sum(w[j] * rs.fundamental_weight(j)[i] for j in range(n)) for i in range(n)]

        rho_roots = [Fraction(sum(a[i] for a in rs.positive_roots), 2) for i in range(n)]
        phis = [(rho_weight(pr), rho_roots), (lambda_one(pr), in_roots(lambda_one(pr)))]
        phis += [(w, in_roots(w)) for w in compact_fundamental_weights(pr)]
        sq = {
            alpha: sum(alpha[i] * gram[i][j] * alpha[j] for i in range(n) for j in range(n))
            for alpha in rs.all_roots
        }
        for w, phi in phis:
            phi_gram = [sum(phi[i] * gram[i][j] for i in range(n)) for j in range(n)]
            for alpha in rs.all_roots:
                on_alpha = sum(g * c for g, c in zip(phi_gram, alpha))
                expected = 2 * on_alpha / sq[alpha]
                assert weight_on_coroot(rs, w, alpha) == expected, (pr.label, w, alpha)
                assert rs.coroot_pairing(phi, alpha) == expected
                assert inner_weight_root(rs, w, alpha) == on_alpha


def test_su11_rho_values():
    pr = pair_by_label("su11")
    assert rho_weight(pr) == (Fraction(1),)  # rho = alpha_1 / 2, so rho(h_1) = 1
    assert verify_rho_identities(pr).two_rho_n_on_h == (2,)  # 2 rho_n(h_1) = p


def test_sp2_rho_n():
    pr = pair_by_label("sp2")
    # 2 rho_n(h_j) = p = 3 on both cascade coroots
    assert verify_rho_identities(pr).two_rho_n_on_h == (3, 3)


def test_lambda_one_definition():
    for pr in catalog():
        lam1 = lambda_one(pr)
        assert lam1[pr.node] == 1
        assert all(lam1[i] == 0 for i in range(pr.root_system.rank) if i != pr.node)


def test_lambda_one_on_cascade_coroots():
    # every exponent E_{s,j} then falls by one per unit of lambda, the unit
    # slope that lets empirical_threshold step by the leading exponent to the
    # threshold, and that certifies the threshold it returns
    for pr in catalog():
        rs = pr.root_system
        lam1 = lambda_one(pr)
        for g in strongly_orthogonal_cascade(pr).gammas:
            assert weight_on_coroot(rs, lam1, g) == 1


def test_weight_system_trivial():
    pr = pair_by_label("sp3")
    ws = weight_system(pr, extend_compact_coords(pr, [0, 0]))
    assert ws.weights == (ws.highest,)
    assert ws.highest == (Fraction(0),) * 3


def test_weight_system_su11_always_singleton():
    pr = pair_by_label("su11")
    ws = weight_system(pr, (Fraction(0),))
    assert len(ws.weights) == 1


def test_weight_system_su22_fundamental():
    pr = pair_by_label("su22")
    lam0 = compact_fundamental_weights(pr)[0]
    ws = weight_system(pr, lam0)
    assert len(ws.weights) == 2  # defining rep of one A1 factor


def test_weight_system_walks_each_string_about_once():
    # a walk from every weight of a string is quadratic in its length:
    # about 100 s for these 20 001 weights, and minutes for their multiplicities
    code = (
        "from hdt.hermitian import pair_by_label\n"
        "from hdt.weights import extend_compact_coords, weight_multiplicities, weight_system\n"
        "pr = pair_by_label('su22')\n"
        "ws = weight_system(pr, extend_compact_coords(pr, [20000, 0]))\n"
        "print(len(ws.weights), sum(weight_multiplicities(pr, ws.highest).values()))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "20001 20001\n"


def test_weight_system_rejects_bad_input():
    pr = pair_by_label("su22")
    with pytest.raises(ValueError):
        weight_system(pr, extend_compact_coords(pr, [-1, 0]))
    with pytest.raises(ValueError):
        weight_system(pr, (Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        weight_system(pr, (Fraction(0), Fraction(1), Fraction(0)))  # nonzero on node


def test_lambda0_count_names_the_length_given():
    from hdt.criterion import HighestWeightInput

    pr = pair_by_label("su22")
    # full-rank Lambda0, as the library takes it
    with pytest.raises(ValueError) as exc:
        HighestWeightInput(pr, (0, 0), -5)
    assert str(exc.value) == ("su22 needs 3 lambda0 coordinates "
                              "(one per node, zero at node 2), got 2")
    # compact-node coordinates, as the CLI takes them
    with pytest.raises(ValueError) as exc:
        extend_compact_coords(pr, (0,))
    assert str(exc.value) == "su22 needs 2 lambda0 coordinates (compact nodes [1, 3]), got 1"


def test_freudenthal_highest_and_trivial():
    pr = pair_by_label("su23")
    lam0 = compact_fundamental_weights(pr)[0]
    ws = weight_system(pr, lam0)
    assert freudenthal_multiplicity(ws, ws.highest) == 1
    triv = weight_system(pr, extend_compact_coords(pr, [0, 0, 0]))
    assert freudenthal_multiplicity(triv, triv.highest) == 1
    with pytest.raises(ValueError):
        freudenthal_multiplicity(ws, extend_compact_coords(pr, [7, 7, 7]))


def test_freudenthal_a2_adjoint_zero_weight():
    # compact part of su(1,3) is A2; its adjoint has zero-weight multiplicity 2
    pr = pair_by_label("su13")
    lam0 = extend_compact_coords(pr, [1, 1])
    ws = weight_system(pr, lam0)
    assert len(ws.weights) == 7  # 8-dimensional adjoint, zero weight twice
    # the compact-zero weight: vanishes on the compact coroots (nodes 2, 3)
    zeros = [mu for mu in ws.weights if mu[1] == 0 and mu[2] == 0]
    assert len(zeros) == 1
    assert freudenthal_multiplicity(ws, zeros[0]) == 2
    mults = weight_multiplicities(pr, lam0)
    assert sum(mults.values()) == 8


@pytest.mark.parametrize("label,lam0,dim", [
    pytest.param("su13", (1, 0), 3, id="su13-0"),
    pytest.param("su23", (0, 1, 0), 3, id="su23-1"),
    pytest.param("sp3", (1, 0), 3, id="sp3-0"),
    pytest.param("so2_5", (0, 1), 4, id="so2_5-1"),
    pytest.param("so2_8", (1, 1, 1, 1), 4096, id="so2_8-1111"),
    pytest.param("su33", (2, 2, 2, 2), 729, id="su33-2222"),
    pytest.param("e7vii", (1, 0, 0, 0, 0, 1), 650, id="e7vii-100001"),
])
def test_multiplicities_sum_to_weyl_dimension(label, lam0, dim):
    # cross-oracle: recursive multiplicities against the dimension formula
    pr = pair_by_label(label)
    full = extend_compact_coords(pr, lam0)
    assert weyl_dimension(pr, full) == dim
    assert sum(weight_multiplicities(pr, full).values()) == dim


def reference_multiplicities(ws):
    """Freudenthal's recursion on every weight (the reference oracle for the
    dominant-weight recursion): a breadth-first walk down the compact simple
    roots from the highest weight, each weight's string sums run along the
    strings from the weight above it, scaled by 4 to stay in integers."""
    rs = ws.pair.root_system
    lam = ws.highest
    wset = set(ws.weights)
    compact_pos = partition_roots(ws.pair).compact_pos
    two_rho_c = rs.weight_coords(root_sum(rs, compact_pos))
    alphas = [(rs.weight_coords(a), rs.coroot(a), rs.inner2(a, a)) for a in compact_pos]
    diag = [rs.sym[i][i] for i in range(rs.rank)]
    memo = {lam: 1}
    # weight nu -> per compact positive root alpha, the alpha-string sum
    # T(nu) = sum_(k >= 0) m(nu + k alpha) (nu + k alpha)(alpha^vee)
    strings = {lam: [sum(map(mul, lam, coroot)) for _, coroot, _ in alphas]}
    frontier = [(lam, (0,) * rs.rank)]
    while frontier:
        nxt = []
        for mu, n in frontier:
            for i in compact_nodes(ws.pair):
                nu = tuple(m - c for m, c in zip(mu, rs.cartan[i]))
                if nu not in wset or nu in memo:
                    continue
                n_nu = tuple(nj + (j == i) for j, nj in enumerate(n))
                tail = [strings[up][k] if (up := tuple(map(add, nu, aw))) in strings else 0
                        for k, (aw, _, _) in enumerate(alphas)]
                rhs = sum(t * nsq2 for t, (_, _, nsq2) in zip(tail, alphas))
                x = (a + b + c for a, b, c in zip(lam, nu, two_rho_c))
                denom = sum(ni * xi * di for ni, xi, di in zip(n_nu, x, diag))
                val, rem = divmod(2 * rhs, denom)
                assert rem == 0 and val > 0, (nu, Fraction(2 * rhs, denom))
                memo[nu] = val
                strings[nu] = [val * sum(map(mul, nu, c)) + t for (_, c, _), t in zip(alphas, tail)]
                nxt.append((nu, n_nu))
        frontier = nxt
    assert len(memo) == len(wset)
    return memo


def _oracle_lambda0s(pr):
    """Lambda0 = 0, each compact fundamental weight, and three seeded random
    Lambda0 with entries <= 3 and dim tau <= 20 000."""
    k = len(compact_nodes(pr))
    lam0s = [extend_compact_coords(pr, [0] * k), *compact_fundamental_weights(pr)]
    rng = random.Random(pr.label)
    while len(lam0s) < k + 4:
        lam0 = extend_compact_coords(pr, [rng.randint(0, 3) for _ in range(k)])
        if weyl_dimension(pr, lam0) <= 20_000:
            lam0s.append(lam0)
    return lam0s


@pytest.mark.parametrize("label", [pr.label for pr in catalog()])
def test_multiplicities_match_the_per_weight_recursion(label):
    pr = pair_by_label(label)
    for lam0 in _oracle_lambda0s(pr):
        ws = weight_system(pr, lam0)
        mults = weight_multiplicities(pr, lam0)
        # the saturated support is the oracle for the orbits' support
        assert mults.keys() == set(ws.weights), lam0
        assert mults == reference_multiplicities(ws), lam0
        assert sum(mults.values()) == weyl_dimension(pr, lam0), lam0


def test_multiplicities_of_su44_twos():
    # 40 401 weights, dim tau = 3^12: about 1.8 s of per-weight walk alone
    code = (
        "from hdt.hermitian import pair_by_label\n"
        "from hdt.weights import extend_compact_coords, weight_multiplicities, weight_system\n"
        "pr = pair_by_label('su44')\n"
        "ws = weight_system(pr, extend_compact_coords(pr, [2] * 6))\n"
        "print(len(ws.weights), sum(weight_multiplicities(pr, ws.highest).values()))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "40401 531441\n"


@pytest.mark.parametrize("off", [-1, 1], ids=["dimension-minus-one", "dimension-plus-one"])
def test_multiplicities_refuse_a_wrong_weyl_dimension(monkeypatch, off):
    # the multiplicities must sum to the Weyl dimension: an off-by-one closed
    # form is refused, on an input the cache has not seen
    import hdt.weights

    weyl = hdt.weights.weyl_dimension
    monkeypatch.setattr(hdt.weights, "weyl_dimension", lambda pr, lam0: weyl(pr, lam0) + off)
    weight_multiplicities.cache_clear()
    pr = pair_by_label("su13")
    with pytest.raises(StructuralError, match="not the Weyl dimension"):
        weight_multiplicities(pr, extend_compact_coords(pr, [1, 1]))


def test_structure_integers_are_ints():
    # == would accept a Fraction with denominator 1
    for pr in catalog():
        for lam0 in [extend_compact_coords(pr, [0] * len(compact_nodes(pr))),
                     *compact_fundamental_weights(pr)]:
            assert type(weyl_dimension(pr, lam0)) is int
        assert all(type(c) is int for c in rho_weight(pr))
        assert type(verify_rho_identities(pr).rho_on_h_r) is int


def test_weyl_invariance_of_weight_set():
    pr = pair_by_label("su23")
    lam0 = compact_fundamental_weights(pr)[1]
    ws = weight_system(pr, lam0)
    wset = set(ws.weights)
    for node in compact_nodes(pr):
        assert {compact_reflection(pr, node, mu) for mu in wset} == wset


def test_weight_bound_trivial_rep():
    pr = pair_by_label("sp2")
    ws = weight_system(pr, extend_compact_coords(pr, [0]))
    rep = verify_weight_bound(pr, ws)
    assert rep.bound == 0
    assert rep.max_value == 0
    assert rep.equality_attained


def test_weight_bound_exhaustive_small():
    for label in ("su23", "sp3", "sostar10", "so2_7"):
        pr = pair_by_label(label)
        for lam0 in compact_fundamental_weights(pr)[:3]:
            ws = weight_system(pr, lam0)
            rep = verify_weight_bound(pr, ws)  # raises on violation
            assert rep.equality_attained


def test_weight_bound_max_is_lambda0_on_h_r():
    # the reduction that turns the family of inequalities into a single one
    for label in ("su22", "su23", "sp3", "e3iii"):
        pr = pair_by_label(label)
        rs = pr.root_system
        gammas = strongly_orthogonal_cascade(pr).gammas
        lam0 = compact_fundamental_weights(pr)[0]
        ws = weight_system(pr, lam0)
        vals = [
            weight_on_coroot(rs, mu, g) for mu in ws.weights for g in gammas
        ]
        assert max(vals) == weight_on_coroot(rs, lam0, gammas[-1])


def test_dominance_orbit_step():
    # explicit orbit computation: reflect each weight to the dominant chamber
    # of the compact part, apply the same word to gamma_j, and check
    # (lambda0 | w gamma_j) <= (lambda0 | gamma_r)
    pr = pair_by_label("sp3")
    rs = pr.root_system
    gammas = strongly_orthogonal_cascade(pr).gammas
    lam0 = compact_fundamental_weights(pr)[1]
    ws = weight_system(pr, lam0)
    nodes = compact_nodes(pr)
    for mu in ws.weights:
        word = []
        cur = mu
        while True:
            neg = next((i for i in nodes if cur[i] < 0), None)
            if neg is None:
                break
            word.append(neg)
            cur = compact_reflection(pr, neg, cur)
        assert cur == ws.highest  # dominant conjugate is the highest weight
        for g in gammas:
            img = tuple(Fraction(c) for c in g)
            for node in word:  # same word, applied in the same order
                alpha = rs.simple_roots[node]
                c = rs.coroot_pairing(img, alpha)
                img = tuple(v - c * a for v, a in zip(img, alpha))
            assert inner_weight_root(rs, lam0, img) <= inner_weight_root(
                rs, lam0, gammas[-1]
            )


def test_no_cache_keyed_by_lambda0_is_unbounded():
    # a caller may pass any number of Lambda0; each cache keyed by one keeps
    # at most 256 entries, more than `verify exact` (79) or the threshold
    # search benchmark (10) uses
    import importlib
    import inspect
    import pkgutil

    import hdt

    bounds = {}
    for info in pkgutil.iter_modules(hdt.__path__):
        module = importlib.import_module(f"hdt.{info.name}")
        for name, fn in vars(module).items():
            if (getattr(fn, "__module__", None) == module.__name__ and hasattr(fn, "cache_info")
                    and "lambda0" in inspect.signature(fn).parameters):
                bounds[f"{info.name}.{name}"] = fn.cache_parameters()["maxsize"]
    assert {"weights.weight_system", "weights.weight_multiplicities", "integral._coroot_rows",
            "criterion._trace_certificate"} <= bounds.keys()
    assert None not in bounds.values(), bounds
