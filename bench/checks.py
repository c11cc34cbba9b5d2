"""Output checks for every op; an op whose check fails counts as failed.

Each check takes what the op produced and returns (ok, detail).  The
reference values are independent of the program: golden bytes from
tests/golden, Selberg's closed form (math.lgamma only), the exact
thresholds in ops.THRESHOLDS and the restricted-root data in
ops.PAIR_FACTS.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from ops import THRESHOLD_TOL, Op

SELBERG_REL_TOL = 1e-8
MIN_EXPONENT_TOL = 1e-9


def selberg_integral(r: int, a: int, b: int, p: int, lam: float) -> float:
    """The Lambda0 = 0 integral over the ordered chamber, in closed form.

    With t_j = x_j^2 it is (1/(r! 2^r)) S_r(b+1, E+1, a/2), E = -lambda - p,
    where S_r is Selberg's integral.
    """
    alpha, beta, gamma = b + 1.0, -lam - p + 1.0, a / 2.0
    log_s = 0.0
    for j in range(r):
        log_s += (math.lgamma(alpha + j * gamma) + math.lgamma(beta + j * gamma)
                  + math.lgamma(1.0 + (j + 1) * gamma)
                  - math.lgamma(alpha + beta + (r + j - 1) * gamma)
                  - math.lgamma(1.0 + gamma))
    return math.exp(log_s - math.lgamma(r + 1.0) - r * math.log(2.0))


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except (ValueError, UnicodeDecodeError):
        return None


def _exit_ok(returncode: int, want: int) -> tuple[bool, str]:
    return returncode == want, f"exit {returncode}, want {want}"


def check_golden(op: Op, returncode: int, stdout: bytes, golden_dir: Path):
    if returncode != 0:
        return _exit_ok(returncode, 0)
    want = (golden_dir / op.expect["golden"]).read_bytes()
    return stdout == want, "matches golden bytes" if stdout == want else "differs from golden"


def check_analyze(op: Op, returncode: int, stdout: bytes):
    data = _json(stdout)
    if returncode != 0 or not isinstance(data, dict):
        return False, f"exit {returncode} or no JSON"
    r, a, b, p = op.expect["facts"]
    got = (data.get("r"), data.get("a") or 0, data.get("b"), data.get("p"))
    if got != (r, a, b, p):
        return False, f"(r, a, b, p) = {got}, want {(r, a, b, p)}"
    if data.get("rho_on_h_r") != str(p - 1):
        return False, f"rho(h_r) = {data.get('rho_on_h_r')}, want {p - 1}"
    if data.get("two_rho_n_on_h") != [str(p)] * r:
        return False, f"2 rho_n(h_j) = {data.get('two_rho_n_on_h')}, want {p} each"
    return True, "r, a, b, p and rho identities"


def check_criterion(op: Op, returncode: int, stdout: bytes):
    """The exit code must agree with lambda against the reported threshold,
    which must be the exact threshold."""
    data = _json(stdout)
    if not isinstance(data, dict) or "threshold" not in data:
        return False, f"exit {returncode}, no JSON"
    reported = Fraction(data["threshold"])
    if reported != op.expect["threshold"]:
        return False, f"threshold {reported}, want {op.expect['threshold']}"
    exists = op.expect["lambda"] < reported
    if data.get("exists") is not exists:
        return False, f"exists = {data.get('exists')} at lambda {op.expect['lambda']}"
    if not all(c.get("passed") for c in data.get("checks", [])):
        return False, "a form-agreement check failed"
    return _exit_ok(returncode, 0 if exists else 3)


def check_integrate(op: Op, returncode: int, stdout: bytes):
    """Returns (ok, detail, relative error against Selberg or None)."""
    data = _json(stdout)
    if returncode != 0 or not isinstance(data, dict):
        return False, f"exit {returncode} or no JSON", None
    lam = float(op.expect["lambda"])
    want_min = float(op.expect["threshold"]) - lam - 1.0
    if data.get("classification") != "convergent" or data.get("empirical") != "convergent":
        return False, f"classified {data.get('classification')}/{data.get('empirical')}", None
    if abs(data.get("min_exponent", math.inf) - want_min) > MIN_EXPONENT_TOL:
        return False, f"min exponent {data.get('min_exponent')}, want {want_min}", None
    value = data.get("formal_dimension_scalar")
    if not isinstance(value, float) or not math.isfinite(value) or value <= 0:
        return False, f"formal dimension scalar {value!r}", None
    if not op.expect["selberg"]:
        return True, "convergent, min exponent exact", None
    r, a, b, p = op.expect["facts"]
    if r == 1:
        value /= (-lam - 1.0) / math.pi  # undo the (k-1)/pi display factor
    exact = selberg_integral(r, a, b, p, lam)
    rel = abs(value - exact) / exact
    return rel <= SELBERG_REL_TOL, f"Selberg rel err {rel:.3e}", rel


def check_verify(op: Op, returncode: int, stdout: bytes):
    data = _json(stdout)
    if not isinstance(data, dict) or "checks" not in data:
        return False, f"exit {returncode}, no JSON"
    checks = data["checks"]
    failed = [c["name"] for c in checks if not c.get("passed")]
    if failed:
        return False, f"{len(failed)} checks failed, first {failed[0]!r}"
    if len(checks) < op.expect["min_checks"]:
        return False, f"{len(checks)} checks, want at least {op.expect['min_checks']}"
    ok, detail = _exit_ok(returncode, 0)
    return ok, f"{len(checks)} checks passed" if ok else detail


def check_cli_op(op: Op, returncode: int, stdout: bytes, golden_dir: Path):
    """Dispatch on the op kind; returns (ok, detail, Selberg rel err or None)."""
    if op.kind == "integrate":
        return check_integrate(op, returncode, stdout)
    if op.kind == "golden":
        return (*check_golden(op, returncode, stdout, golden_dir), None)
    check = {"analyze": check_analyze, "criterion": check_criterion,
             "verify": check_verify}[op.kind]
    return (*check(op, returncode, stdout), None)


def check_threshold(empirical, exact: int):
    """Returns (ok, detail, |empirical - exact| or None)."""
    if not isinstance(empirical, float) or not math.isfinite(empirical):
        return False, f"no threshold: {empirical!r}", None
    err = abs(empirical - exact)
    return err <= THRESHOLD_TOL, f"|{empirical:.4f} - ({exact})| = {err:.4f}", err


def cli_probe_failed(returncode: int, stderr: bytes, timed_out: bool, accepted) -> bool:
    """A known-defect probe fails when it crashes (a traceback, or no exit at
    all) or exits with a code outside its accepted ones."""
    return timed_out or returncode not in accepted or b"Traceback" in stderr
