"""Run the `hdt` CLI in process over a fixed set of inputs and record each call.

    python tools/cli_sweep.py OUT.json              # sweep the checkout's src/
    python tools/cli_sweep.py --src DIR OUT.json    # sweep the package under DIR
    python tools/cli_sweep.py --diff A.json B.json  # list the calls that differ

A sweep writes, per call, its argv, exit code, stdout and stderr.  Two sweeps
of two versions of the code show every output a change alters; `--diff`
exits 1 when any call differs and 0 when none does.

The inputs are read off the CLI itself, so any version with the same
subcommands can be swept:
- `catalog`, and `analyze` on every pair, in both formats;
- `criterion` and `integrate` on every pair in both formats, at Lambda0 = 0
  and at the first compact fundamental weight, with lambda = lambda_c - 3
  and lambda_c + 1;
- three bad Lambda0 inputs, `integrate su11 --lambda -1000000`, and
  `verify all --seed 1..3` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

FORMATS = ("table", "json")


def call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def sweep(main) -> list[dict]:
    records = []

    def run(*argv: str) -> dict:
        records.append(call(main, list(argv)))
        return records[-1]

    for fmt in FORMATS:
        run("catalog", "--output", fmt)
    labels = [row["pair"] for row in json.loads(records[-1]["stdout"])]
    for label in labels:
        for fmt in FORMATS:
            run("analyze", label, "--output", fmt)
        n_compact = len(json.loads(records[-1]["stdout"])["compact_nodes"])
        lambda0s = [[0] * n_compact]
        if n_compact:
            lambda0s.append([1] + [0] * (n_compact - 1))
        for lam0 in lambda0s:
            lam0_arg = "--lambda0=" + ",".join(map(str, lam0))
            probe = call(main, ["criterion", label, "--lambda", "0", lam0_arg, "--output", "json"])
            threshold = Fraction(json.loads(probe["stdout"])["threshold"])
            for lam in (threshold - 3, threshold + 1):
                for cmd in ("criterion", "integrate"):
                    for fmt in FORMATS:
                        run(cmd, label, "--lambda", str(lam), lam0_arg, "--output", fmt)
    for bad in ("-1,0", "1", "a,0"):
        run("criterion", "su22", "--lambda", "-9", f"--lambda0={bad}")
    for fmt in FORMATS:
        run("integrate", "su11", "--lambda", "-1000000", "--output", fmt)
    for seed in (1, 2, 3):
        run("verify", "all", "--seed", str(seed), "--output", "json")
    return records


def diff(a_path: Path, b_path: Path) -> int:
    a = {" ".join(r["argv"]): r for r in json.loads(a_path.read_text())}
    b = {" ".join(r["argv"]): r for r in json.loads(b_path.read_text())}
    changed = 0
    for key in list(a) + [k for k in b if k not in a]:
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        changed += 1
        print(f"== {key}")
        if ra is None or rb is None:
            print(f"   only in {a_path if rb is None else b_path}")
            continue
        if ra["exit"] != rb["exit"]:
            print(f"   exit {ra['exit']} -> {rb['exit']}")
        for stream in ("stdout", "stderr"):
            lines = difflib.unified_diff(ra[stream].splitlines(), rb[stream].splitlines(),
                                         f"{a_path} {stream}", f"{b_path} {stream}", lineterm="", n=1)
            for line in lines:
                print(f"   {line}")
    print(f"{changed} of {len(set(a) | set(b))} calls differ")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A.json", "B.json"))
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the hdt package (default: this checkout's src)")
    ap.add_argument("out", nargs="?", type=Path, help="where to write the sweep")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.out is None:
        ap.error("give OUT.json, or --diff A.json B.json")
    sys.path.insert(0, str(args.src))
    from hdt.cli import main as hdt_main

    records = sweep(hdt_main)
    args.out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} calls written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
