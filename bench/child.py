"""Work that run.py starts in a fresh interpreter, one process at a time.

    python bench/child.py cli OUT ARGV...        hdt.cli.main(ARGV) under spans
    python bench/child.py threshold OUT [trace]  the threshold workload's pass
    python bench/child.py probes OUT             empirical_threshold defect probes
    python bench/child.py import MODULE [PRE]    seconds to import MODULE after PRE

Each mode writes its result as JSON to OUT (stdout stays the program's own)
and needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _write(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def traced_cli(out: str, argv: list[str]) -> int:
    import hdt.cli
    import spans

    rec = spans.install()
    code = 2
    try:
        code = hdt.cli.main(argv)
    finally:
        sys.stdout.flush()
        _write(out, {**rec.summary(), "spans": rec.spans})
    return code


def threshold_pass(out: str, trace: bool) -> int:
    from hdt.hermitian import pair_by_label
    from hdt.integral import empirical_threshold
    from hdt.weights import extend_compact_coords

    from ops import THRESHOLD_CASES, THRESHOLD_TOL

    rec = None
    if trace:
        import spans

        rec = spans.install()
        import hdt.integral
        empirical_threshold = hdt.integral.empirical_threshold
    cases = []
    for label, lam0 in THRESHOLD_CASES:
        pair = pair_by_label(label)
        weight = extend_compact_coords(pair, list(lam0))
        t0 = time.perf_counter()
        value = empirical_threshold(pair, weight, tol=THRESHOLD_TOL)
        cases.append({"label": label, "lambda0": list(lam0), "empirical": value,
                      "seconds": time.perf_counter() - t0})
    data = {"cases": cases}
    if rec is not None:
        data.update(rec.summary(), spans=rec.spans)
    _write(out, data)
    return 0


def threshold_probes(out: str) -> int:
    """Probes pass when they return or raise the documented
    ConfigurationError; any other exception is the known defect."""
    from hdt.hermitian import pair_by_label
    from hdt.integral import ConfigurationError, empirical_threshold
    from hdt.weights import extend_compact_coords

    from ops import THRESHOLD_DEFECT_PROBES, THRESHOLD_TOL

    results = []
    for label, lam0 in THRESHOLD_DEFECT_PROBES:
        pair = pair_by_label(label)
        try:
            empirical_threshold(pair, extend_compact_coords(pair, list(lam0)), tol=THRESHOLD_TOL)
            outcome, failed = "returned", False
        except ConfigurationError as exc:
            outcome, failed = f"ConfigurationError: {exc}", False
        except Exception as exc:  # the defect being probed: report, do not stop
            outcome, failed = f"{type(exc).__name__}: {exc}", True
        results.append({"probe": f"empirical_threshold {label} lambda0=0",
                        "failed": failed, "outcome": outcome})
    _write(out, results)
    return 0


def import_seconds(module: str, pre: str | None) -> int:
    if pre:
        importlib.import_module(pre)
    t0 = time.perf_counter()
    importlib.import_module(module)
    print(time.perf_counter() - t0)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    if mode == "threshold":
        return threshold_pass(rest[0], rest[1:] == ["trace"])
    if mode == "probes":
        return threshold_probes(rest[0])
    if mode == "import":
        return import_seconds(rest[0], rest[1] if len(rest) > 1 else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
