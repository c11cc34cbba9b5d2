"""The hdt benchmark: four workloads, end-to-end metrics and a traced run.

From the repository root:

    python3 bench/run.py --workload structure --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one op process at a time):
  structure   short CLI calls: catalog, analyze, criterion, verify exact
  quadrature  `integrate` at one lambda on weight systems of 1 to 601 weights
  threshold   hdt.integral.empirical_threshold on ten cases, one interpreter
  matrix      `verify numeric` and `verify numeric --fast`

CLI ops each start a fresh `python -m hdt.cli` process, so every op pays
start-up, imports and cold caches as a user does.  A run makes whole passes
over the op list until the next pass would overrun --seconds (at least one)
and reports medians over the passes.  Every output is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics (spans.py).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Full
reports and spans go to .bench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
PY = sys.executable

sys.path.insert(0, str(BENCH))
from checks import check_cli_op, check_threshold, cli_probe_failed  # noqa: E402
from ops import (  # noqa: E402
    CLI_DEFECT_PROBES, THRESHOLD_CASES, THRESHOLD_DEFECT_PROBES, THRESHOLDS, WORKLOADS, Op,
    cli_ops,
)

OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # one workload's run ends within 180 s, hung ops included
SETUP_STARTS = 7
IMPORT_STARTS = 3
ENTRY_MODULE = {"structure": "hdt.cli", "quadrature": "hdt.cli", "matrix": "hdt.cli",
                "threshold": "hdt.integral"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_max_s": "s",
              "peak_rss_mb": "MB"}
IMPORTS = {  # metric -> (module, module imported before the clock starts)
    "import.hdt_cli_s": ("hdt.cli", None),
    "import.hdt_integral_s": ("hdt.integral", None),
    "import.hdt_matrixmodel_s": ("hdt.matrixmodel", None),
    "import.scipy_linalg_s": ("scipy.linalg", "numpy"),
    "import.numpy_s": ("numpy", None),
}
_TIMED = ("rootsystem.build_root_system", "exact.solve_linear", "hermitian.partition_roots",
          "cascade.strongly_orthogonal_cascade", "cascade.restricted_root_data",
          "cascade.verify_rho_identities", "criterion.hc_condition",
          "criterion.hc_condition_original", "criterion.reduction_trace",
          "weights.weight_system", "weights.freudenthal_multiplicity",
          "weights.verify_weight_bound", "integral.build_integrand", "integral.integrate",
          "integral.classify_convergence", "integral.empirical_threshold",
          "matrixmodel.random_su", "matrixmodel.hc_factorize", "matrixmodel.mobius_action",
          "matrixmodel.jacobian_matrix", "matrixmodel.verify_reproducing_kernel_disc",
          "suite.run_exact_suite", "suite.run_numeric_suite", "cli.main")
_CALLS = ("criterion.hc_condition", "weights.freudenthal_multiplicity",
          "integral.build_integrand", "integral.integrate", "matrixmodel.random_su",
          "matrixmodel.hc_factorize", "matrixmodel.mobius_action")
_COUNTS = ("weights.weight_system.weights", "integral.probes", "integral.rows",
           "integral.distinct_rows", "integral.monomials", "integral.nodes", "integral.cells",
           "matrixmodel.mc_samples", "suite.checks")
PER_LAYER = {
    **{name: "s" for name in IMPORTS},
    **{f"{name}.self_s": "s" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _CALLS},
    **{name: "count" for name in _COUNTS},
    "trace.overhead_s": "s",
    "trace.coverage_p50": "1",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources to measure)."""


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


_deadline = float("inf")  # perf_counter time by which every child must end


def run_child(argv: list[str], timeout: float = OP_TIMEOUT_S) -> Proc:
    """Run one process to completion and return its exit code, wall time,
    peak RSS (from wait4, so it is this child's own) and output.  A child
    still running at its timeout or at the run's deadline is killed."""
    timeout = max(0.5, min(timeout, _deadline - time.perf_counter()))
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    state = {"reaped": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_env(), cwd=ROOT)

        def on_alarm(signum, frame):
            if not state["reaped"]:
                state["timed_out"] = True
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["reaped"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                out_path.read_bytes(), err_path.read_bytes(), state["timed_out"])


def _median_seconds(argv: list[str], starts: int) -> float:
    samples = []
    for _ in range(starts):
        p = run_child(argv)
        if p.returncode != 0:
            raise SetupError(f"{' '.join(argv[1:])} failed: {p.stderr.decode()[-500:]}")
        samples.append(p.seconds)
    return statistics.median(samples)


def setup_seconds(workload: str) -> float:
    """Median wall time to start an interpreter and import the entry module."""
    return _median_seconds([PY, "-c", f"import {ENTRY_MODULE[workload]}"], SETUP_STARTS)


def import_seconds() -> dict[str, float]:
    """In-process import time of each module, each in a fresh interpreter."""
    out = {}
    for name, (module, pre) in IMPORTS.items():
        samples = []
        for _ in range(IMPORT_STARTS):
            p = run_child([PY, str(BENCH / "child.py"), "import", module, *([pre] if pre else [])])
            if p.returncode != 0:
                raise SetupError(f"import {module} failed: {p.stderr.decode()[-500:]}")
            samples.append(float(p.stdout))
        out[name] = statistics.median(samples)
    return out


# -- passes -------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    seconds: float
    rss_mb: float
    ok: bool
    detail: str
    selberg_rel_err: float | None = None
    threshold_err: float | None = None
    coverage: float | None = None
    counts: dict | None = None


@dataclass
class PassResult:
    wall_s: float
    ops: list[OpResult]
    layer: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _add_layer(total: dict, summary: dict) -> None:
    for key, value in summary["metrics"].items():
        total[key] = total.get(key, 0.0) + value


def cli_pass(ops: list[Op], trace: bool) -> PassResult:
    procs = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if trace:
            argv = [PY, str(BENCH / "child.py"), "cli", str(WORK / f"spans_{i}.json"), *op.argv]
        else:
            argv = [PY, "-m", "hdt.cli", *op.argv]
        procs.append(run_child(argv))
    result = PassResult(time.perf_counter() - t0, [])
    for i, (op, p) in enumerate(zip(ops, procs)):
        if p.timed_out:
            ok, detail, rel = False, f"killed after {p.seconds:.0f} s", None
        else:
            ok, detail, rel = check_cli_op(op, p.returncode, p.stdout, GOLDEN)
        res = OpResult(op.name, p.seconds, p.rss_mb, ok, detail, selberg_rel_err=rel)
        if trace:
            summary = json.loads((WORK / f"spans_{i}.json").read_text())
            _add_layer(result.layer, summary)
            res.coverage = summary["root_s"] / p.seconds
            res.counts = {k: v for k, v in summary["metrics"].items() if k in _COUNTS}
            result.spans.append({"op": op.name, "wall_s": p.seconds, "spans": summary["spans"]})
        result.ops.append(res)
    return result


def threshold_pass(trace: bool) -> PassResult:
    out = WORK / "threshold.json"
    out.unlink(missing_ok=True)
    p = run_child([PY, str(BENCH / "child.py"), "threshold", str(out), *(["trace"] if trace else [])])
    result = PassResult(p.seconds, [])
    if p.returncode != 0 or not out.exists():
        detail = f"exit {p.returncode}: {p.stderr.decode()[-300:]}"
        result.ops = [OpResult(f"empirical_threshold {label}", p.seconds, p.rss_mb, False, detail)
                      for label, _ in THRESHOLD_CASES]
        return result
    data = json.loads(out.read_text())
    for case in data["cases"]:
        lam0 = tuple(case["lambda0"])
        ok, detail, err = check_threshold(case["empirical"], THRESHOLDS[(case["label"], lam0)])
        name = f"empirical_threshold {case['label']} lambda0={','.join(map(str, lam0)) or '-'}"
        result.ops.append(OpResult(name, case["seconds"], p.rss_mb, ok, detail,
                                   threshold_err=err))
    if trace:
        _add_layer(result.layer, data)
        share = data["root_s"] / p.seconds
        for op in result.ops:
            op.coverage = share
        result.spans.append({"op": "threshold pass", "wall_s": p.seconds, "spans": data["spans"]})
    return result


def one_pass(workload: str, ops: list[Op], trace: bool) -> PassResult:
    return threshold_pass(trace) if workload == "threshold" else cli_pass(ops, trace)


def defect_probes(workload: str) -> list[dict]:
    """Run the known-defect probes of a workload once, untimed."""
    if workload in CLI_DEFECT_PROBES:
        out = []
        for argv, accepted in CLI_DEFECT_PROBES[workload]:
            p = run_child([PY, "-m", "hdt.cli", *argv], timeout=60.0)
            last = ((p.stderr or p.stdout).decode(errors="replace").strip().splitlines() or [""])[-1]
            out.append({"probe": " ".join(argv), "outcome": f"exit {p.returncode}: {last}",
                        "failed": cli_probe_failed(p.returncode, p.stderr, p.timed_out, accepted)})
        return out
    if workload == "threshold":
        path = WORK / "probes.json"
        path.unlink(missing_ok=True)
        p = run_child([PY, str(BENCH / "child.py"), "probes", str(path)], timeout=120.0)
        if p.returncode != 0 or not path.exists():
            return [{"probe": f"empirical_threshold {label} lambda0=0", "failed": True,
                     "outcome": f"probe process: exit {p.returncode}, killed {p.timed_out}"}
                    for label, _ in THRESHOLD_DEFECT_PROBES]
        return json.loads(path.read_text())
    return []


# -- a run ----------------------------------------------------------------------


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), **versions,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def _passes(workload: str, ops: list[Op], seconds: float) -> list[PassResult]:
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 + passes[-1].wall_s <= seconds:
        passes.append(one_pass(workload, ops, trace=False))
    return passes


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    ops = [] if workload == "threshold" else cli_ops(workload, seed)
    setup = setup_seconds(workload)
    passes = _passes(workload, ops, seconds)
    probes = defect_probes(workload)
    every = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in every)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": statistics.median(statistics.median(op.seconds for op in p.ops)
                                      for p in passes),
        "op_max_s": statistics.median(max(op.seconds for op in p.ops) for p in passes),
        "peak_rss_mb": max(op.rss_mb for op in every),
    }
    extra = {"fail_ratio": (failed / len(every), "1")}
    rel = [op.selberg_rel_err for op in every if op.selberg_rel_err is not None]
    if workload == "quadrature":
        extra["quad_rel_err"] = (max(rel) if rel else float("nan"), "1")
    if workload == "threshold":
        errs = [op.threshold_err for op in every if op.threshold_err is not None]
        extra["threshold_err"] = (max(errs) if errs else float("nan"), "1")
    if probes:
        extra["defect_probes_failed"] = (sum(p["failed"] for p in probes), "count")
    return {"workload": workload, "seed": seed, "passes": len(passes),
            "ops_per_pass": len(passes[0].ops), "attempted": len(every), "failed": failed,
            "metrics": metrics, "units": END_TO_END, "extra": extra, "probes": probes,
            "ops": [vars(op) for op in passes[0].ops], "machine": machine()}


def per_layer(workload: str, seed: int) -> dict:
    ops = [] if workload == "threshold" else cli_ops(workload, seed)
    plain = one_pass(workload, ops, trace=False)
    traced = one_pass(workload, ops, trace=True)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({k: v for k, v in traced.layer.items() if k in PER_LAYER})
    layer.update(import_seconds())
    layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
    coverage = [op.coverage for op in traced.ops]
    layer["trace.coverage_p50"] = statistics.median(coverage)
    (WORK / f"trace_{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "ops": traced.spans}))
    every = plain.ops + traced.ops
    return {"workload": workload, "seed": seed, "attempted": len(every),
            "failed": sum(not op.ok for op in every), "metrics": layer, "units": PER_LAYER,
            "all_layer_metrics": traced.layer, "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "ops": [{"name": op.name, "seconds": op.seconds, "coverage": op.coverage,
                     "ok": op.ok, "detail": op.detail, "counts": op.counts}
                    for op in traced.ops]}


def print_report(rep: dict, trace: bool) -> None:
    shape = "traced pass" if trace else f"{rep['passes']} pass(es) of {rep['ops_per_pass']} ops"
    print(f"== {rep['workload']}  seed {rep['seed']}  {shape}"
          f"  failed {rep['failed']}/{rep['attempted']}")
    for name, value in rep["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {rep['units'][name]}")
    for name, (value, unit) in rep.get("extra", {}).items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for probe in rep.get("probes", []):
        print(f"  probe {'FAILS' if probe['failed'] else 'ok   '} {probe['probe']}: "
              f"{probe['outcome'][:100]}")
    for op in rep["ops"]:
        cov = f"  coverage {op['coverage']:.3f}" if op.get("coverage") is not None else ""
        rss = f"  {op['rss_mb']:.1f} MB" if "rss_mb" in op else ""
        print(f"  {'ok  ' if op['ok'] else 'FAIL'} {op['name']:<36} {op['seconds']:8.3f} s"
              f"{rss}{cov}  {op['detail']}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    global _deadline
    _deadline = time.perf_counter() + RUN_LIMIT_S
    rep = per_layer(workload, seed) if trace else end_to_end(workload, seed, seconds)
    (WORK / f"report_{workload}_{'trace' if trace else 'e2e'}.json").write_text(
        json.dumps(rep, indent=1, default=str))
    print_report(rep, trace)
    return rep


def prepare() -> None:
    if not (SRC / "hdt" / "cli.py").is_file() or not GOLDEN.is_dir():
        raise SetupError(f"no hdt sources under {SRC} or golden files under {GOLDEN}")
    WORK.mkdir(exist_ok=True)
    # byte-compile once, so no measured start-up pays for it
    p = run_child([PY, "-m", "compileall", "-q", str(SRC / "hdt"), str(BENCH)])
    if p.returncode != 0:
        raise SetupError(f"compileall failed: {p.stdout.decode()[-500:]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        prepare()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reps = [run(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(reps) > 1
    metrics = {f"{r['workload']}.{k}" if prefix else k: {"value": v, "unit": units[k]}
               for r in reps for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
