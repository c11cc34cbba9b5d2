"""The four workloads: their op lists, and the inputs a seed picks for them.

Only the lambda of each `criterion`/`integrate` op and the `verify --seed`
values depend on the seed.  The op lists, pairs and lambda0 weights, and so
the weight-system sizes, are fixed.  Every lambda lies a fixed distance
range away from the pair's exact threshold, so each op stays on the same
side of it for every seed.

The facts below (restricted-root data and exact thresholds
lambda_c = 1 - p - Lambda0(h_r)) are the benchmark's own expected values,
recorded from the classification tables; the checker compares the program's
output against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("structure", "quadrature", "threshold", "matrix")

# (r, a, b, p) for every pair the benchmark touches; a = 0 stands for the
# undefined multiplicity at rank 1.
PAIR_FACTS = {
    "su11": (1, 0, 0, 2),
    "su22": (2, 2, 0, 4),
    "sp2": (2, 1, 0, 3),
    "sp3": (3, 1, 0, 4),
    "sp4": (4, 1, 0, 5),
    "sp7": (7, 1, 0, 8),
    "su33": (3, 2, 0, 6),
    "su44": (4, 2, 0, 8),
    "so2_5": (2, 3, 0, 5),
    "so2_8": (2, 6, 0, 8),
    "so2_13": (2, 11, 0, 13),
    "sostar10": (2, 4, 2, 8),
    "sostar14": (3, 4, 2, 12),
    "e3iii": (2, 6, 4, 12),
    "e7vii": (3, 8, 0, 18),
}

# Exact threshold for (pair, lambda0 on the compact nodes).
THRESHOLDS = {
    ("su11", ()): -1,
    ("su22", (0, 0)): -3,
    ("su22", (1, 0)): -4,
    ("sp2", (0,)): -2,
    ("sp2", (1,)): -3,
    ("sp3", (0, 0)): -3,
    ("sp3", (1, 0)): -4,
    ("so2_5", (0, 0)): -4,
    ("so2_5", (1, 0)): -6,
    ("sp4", (1, 1, 1)): -7,
    ("sp4", (2, 2, 2)): -10,
    ("su33", (2, 2, 2, 2)): -13,
    ("so2_8", (1, 1, 1, 1)): -13,
    ("sostar14", (0, 0, 0, 0, 0, 0)): -11,
    ("e7vii", (0, 0, 0, 0, 0, 0)): -17,
    ("e7vii", (1, 0, 0, 0, 0, 0)): -19,
    ("e7vii", (1, 0, 0, 0, 0, 1)): -21,
    ("so2_13", (0, 0, 0, 0, 0, 1)): -13,
    ("sp7", (1, 0, 0, 0, 0, 1)): -9,
    ("su44", (1, 0, 0, 0, 0, 1)): -9,
    ("e3iii", (1, 0, 0, 0, 1)): -14,
}

# Distance of a criterion lambda from the threshold: 1/4 .. 4 in quarters.
CRITERION_OFFSETS = tuple(Fraction(k, 4) for k in range(1, 17))
# Distance below the threshold of an integrate lambda: 3 .. 5 in eighths.
# The exponent E = lambda_c - lambda - 1 then lies in [2, 4]; see
# excluded_inputs in baseline.json for E <= 1.
INTEGRATE_OFFSETS = tuple(3 + Fraction(k, 8) for k in range(17))

GOLDEN = {
    ("catalog",): "catalog.txt",
    ("analyze", "su11"): "analyze_su11.txt",
    ("analyze", "sp3"): "analyze_sp3.txt",
    ("analyze", "e7vii"): "analyze_e7vii.txt",
}

CRITERION_CASES = (
    ("e7vii", (1, 0, 0, 0, 0, 1)),
    ("so2_13", (0, 0, 0, 0, 0, 1)),
    ("sp7", (1, 0, 0, 0, 0, 1)),
    ("su44", (1, 0, 0, 0, 0, 1)),
    ("e3iii", (1, 0, 0, 0, 1)),
)

# (pair, lambda0, why): Lambda0 = 0 rows are checked against Selberg.
INTEGRATE_CASES = (
    ("su11", (), "rank 1, one weight; Selberg"),
    ("sp3", (0, 0), "rank 3, one weight; Selberg"),
    ("e7vii", (0, 0, 0, 0, 0, 0), "rank 3, a = 8, one weight; Selberg, least accurate pair"),
    ("sostar14", (0, 0, 0, 0, 0, 0), "rank 3 with b = 2; Selberg"),
    ("e7vii", (1, 0, 0, 0, 0, 0), "27 weights: multiplicities by Freudenthal (<= 200 weights)"),
    ("sp4", (2, 2, 2), "201 weights, all rows distinct: no sharing"),
    ("su33", (2, 2, 2, 2), "361 weights sharing 61 rows"),
    ("so2_8", (1, 1, 1, 1), "601 weights sharing 7 rows"),
    ("e7vii", (1, 0, 0, 0, 0, 1), "343 weights sharing 19 rows, 205 monomials"),
)

# empirical_threshold cases: the nine acceptance-6 cases and sp4.
THRESHOLD_CASES = (
    ("su11", ()),
    ("su22", (0, 0)),
    ("su22", (1, 0)),
    ("sp2", (0,)),
    ("sp2", (1,)),
    ("sp3", (0, 0)),
    ("sp3", (1, 0)),
    ("so2_5", (0, 0)),
    ("so2_5", (1, 0)),
    ("sp4", (1, 1, 1)),
)
THRESHOLD_TOL = 0.05

# Known defects at the commit that defined the benchmark; run untimed, once
# per run.  A CLI probe fails when it crashes (a traceback, no exit) or exits
# with a code outside the ones listed with it.
_DOCUMENTED_EXITS = (0, 1, 2, 3)
CLI_DEFECT_PROBES = {
    "quadrature": (
        (("integrate", "su11", "--lambda", "-3", "--eps", "1e-2,1e-3"), _DOCUMENTED_EXITS),
        (("integrate", "su11", "--lambda", "-3", "--order", "0"), _DOCUMENTED_EXITS),
        (("integrate", "su11", "--lambda", "-3", "--eps", "1e-2,1e-2,1e-2"), _DOCUMENTED_EXITS),
    ),
    # The 50k-sample Monte Carlo checks of --fast are held to 1 %, which some
    # seeds miss: here the measure-invariance residual is 1.36 %.
    "matrix": ((("verify", "numeric", "--fast", "--seed", "584098"), (0,)),),
}
THRESHOLD_DEFECT_PROBES = (
    ("su33", (0, 0, 0, 0)),
    ("sostar10", (0, 0, 0, 0)),
    ("e3iii", (0, 0, 0, 0, 0)),
    ("e7vii", (0, 0, 0, 0, 0, 0)),
)

# S for `verify numeric --seed S` and `--fast --seed S+1`.  All 48 pass every
# check at the commit that defined the benchmark; a seed outside them may hit
# the Monte Carlo tolerance defect that the matrix probe above tracks.
VERIFY_SEEDS = tuple(range(1, 49))

# Fewest checks each `verify` scope must report, all passing.
VERIFY_MIN_CHECKS = {"exact": 318, "numeric": 26}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    kind: str  # golden | analyze | criterion | integrate | verify
    expect: dict = field(default_factory=dict, compare=False, hash=False)


def decimal(x: Fraction) -> str:
    """Plain decimal text for a dyadic rational (the CLI rejects exponents)."""
    text = f"{float(x):.6f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _lam0_arg(lam0: tuple[int, ...]) -> tuple[str, ...]:
    return ("--lambda0", ",".join(map(str, lam0))) if lam0 else ()


def _analyze(label: str) -> Op:
    if ("analyze", label) in GOLDEN:
        return Op(f"analyze {label}", ("analyze", label), "golden",
                  {"golden": GOLDEN[("analyze", label)]})
    return Op(f"analyze {label} json", ("analyze", label, "--output", "json"), "analyze",
              {"facts": PAIR_FACTS[label]})


def _criterion(label: str, lam0, lam: Fraction, side: str) -> Op:
    argv = ("criterion", label, "--lambda", decimal(lam), *_lam0_arg(lam0), "--output", "json")
    return Op(f"criterion {label} {side}", argv, "criterion",
              {"lambda": lam, "threshold": Fraction(THRESHOLDS[(label, lam0)])})


def _integrate(label: str, lam0, lam: Fraction, why: str) -> Op:
    tag = "0" if not any(lam0) else ",".join(map(str, lam0))
    argv = ("integrate", label, "--lambda", decimal(lam), *_lam0_arg(lam0), "--output", "json")
    return Op(f"integrate {label} lambda0={tag}", argv, "integrate",
              {"lambda": lam, "threshold": Fraction(THRESHOLDS[(label, lam0)]),
               "facts": PAIR_FACTS[label], "selberg": not any(lam0), "why": why})


def _verify(scope: str, seed: int, fast: bool) -> Op:
    argv = ("verify", scope, "--seed", str(seed), *(("--fast",) if fast else ()),
            "--output", "json")
    name = f"verify {scope}{' --fast' if fast else ''}"
    return Op(name, argv, "verify", {"min_checks": VERIFY_MIN_CHECKS[scope]})


def structure_ops(rng: random.Random) -> list[Op]:
    ops = [Op("catalog", ("catalog",), "golden", {"golden": GOLDEN[("catalog",)]})]
    ops += [_analyze(label) for label in ("su11", "sp3", "e7vii", "so2_13", "sostar14", "sp7")]
    for label, lam0 in CRITERION_CASES:
        thr = THRESHOLDS[(label, lam0)]
        ops.append(_criterion(label, lam0, thr - rng.choice(CRITERION_OFFSETS), "below"))
        ops.append(_criterion(label, lam0, thr + rng.choice(CRITERION_OFFSETS), "above"))
    ops.append(Op("verify exact", ("verify", "exact", "--output", "json"), "verify",
                  {"min_checks": VERIFY_MIN_CHECKS["exact"]}))
    return ops


def quadrature_ops(rng: random.Random) -> list[Op]:
    return [
        _integrate(label, lam0, THRESHOLDS[(label, lam0)] - rng.choice(INTEGRATE_OFFSETS), why)
        for label, lam0, why in INTEGRATE_CASES
    ]


def matrix_ops(rng: random.Random) -> list[Op]:
    seed = rng.choice(VERIFY_SEEDS)
    return [_verify("numeric", seed, False), _verify("numeric", seed + 1, True)]


def cli_ops(workload: str, seed: int) -> list[Op]:
    """The op list of a CLI workload for one seed."""
    rng = random.Random(seed)
    return {"structure": structure_ops, "quadrature": quadrature_ops,
            "matrix": matrix_ops}[workload](rng)
