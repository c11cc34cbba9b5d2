"""Run the `hdt` CLI in process over a fixed set of inputs and record each call.

    python tools/cli_sweep.py OUT.json              # sweep the checkout's src/
    python tools/cli_sweep.py --src DIR OUT.json    # sweep the package under DIR
    python tools/cli_sweep.py --diff A.json B.json  # list the calls that differ

A sweep writes, per call, its argv, exit code, stdout and stderr.  Two sweeps
of two versions of the code show every output a change alters; `--diff`
exits 1 when any call differs and 0 when none does.  A path ending in `.gz`
is read and written gzip-compressed.

`tests/golden/cli_sweep.json.gz` is the sweep of the current code, and
`tests/test_cli_sweep.py` compares a fresh in-process sweep with it.  A
change that alters an output regenerates it with

    python tools/cli_sweep.py tests/golden/cli_sweep.json.gz

The inputs are read off the CLI itself, so any version with the same
subcommands can be swept:
- `catalog`, and `analyze` on every pair, in both formats;
- `criterion` and `integrate` on every pair in both formats, at Lambda0 = 0
  and at the first compact fundamental weight, with lambda = lambda_c - 3
  and lambda_c + 1;
- three bad Lambda0 inputs, `integrate su11 --lambda -1000000`, and
  `verify all --seed 1..3` as JSON;
- as JSON, three eps ladders of note: su44 at lambda = -10 with Lambda0 =
  1,1,1,1,1,1 (the largest ladder within the budgets), su33 at lambda = 0
  (a divergent ladder that cancels heavily) and su11 at lambda = -1 (the
  logarithmic rungs).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import gzip
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
    for args in (("su44", "--lambda", "-10", "--lambda0", "1,1,1,1,1,1"),
                 ("su33", "--lambda", "0"), ("su11", "--lambda", "-1")):
        run("integrate", *args, "--output", "json")
    for seed in (1, 2, 3):
        run("verify", "all", "--seed", str(seed), "--output", "json")
    return records


def read(path: Path) -> list[dict]:
    with (gzip.open if path.suffix == ".gz" else open)(path, "rt") as f:
        return json.load(f)


def write(path: Path, records: list[dict]) -> None:
    text = (json.dumps(records, indent=1) + "\n").encode()
    # mtime=0 keeps the compressed bytes a function of the records alone
    path.write_bytes(gzip.compress(text, 9, mtime=0) if path.suffix == ".gz" else text)


def diff(a_records: list[dict], b_records: list[dict], a_name="A", b_name="B") -> int:
    """Print every call whose record differs between two sweeps; return how many."""
    a = {" ".join(r["argv"]): r for r in a_records}
    b = {" ".join(r["argv"]): r for r in b_records}
    changed = 0
    for key in list(a) + [k for k in b if k not in a]:
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        changed += 1
        print(f"== {key}")
        if ra is None or rb is None:
            print(f"   only in {a_name if rb is None else b_name}")
            continue
        if ra["exit"] != rb["exit"]:
            print(f"   exit {ra['exit']} -> {rb['exit']}")
        for stream in ("stdout", "stderr"):
            lines = difflib.unified_diff(ra[stream].splitlines(), rb[stream].splitlines(),
                                         f"{a_name} {stream}", f"{b_name} {stream}",
                                         lineterm="", n=1)
            for line in lines:
                print(f"   {line}")
    print(f"{changed} of {len(set(a) | set(b))} calls differ")
    return changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A.json", "B.json"))
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the hdt package (default: this checkout's src)")
    ap.add_argument("out", nargs="?", type=Path, help="where to write the sweep")
    args = ap.parse_args(argv)
    if args.diff:
        return 1 if diff(*map(read, args.diff), *args.diff) else 0
    if args.out is None:
        ap.error("give OUT.json, or --diff A.json B.json")
    sys.path.insert(0, str(args.src))
    from hdt.cli import main as hdt_main

    records = sweep(hdt_main)
    write(args.out, records)
    print(f"{len(records)} calls written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
