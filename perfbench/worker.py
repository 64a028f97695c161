#!/usr/bin/env python3
"""One workload in one fresh process; prints a single JSON line.

  python3 perfbench/worker.py --workload curve --seed 1 --warm-passes 4 [--check]
                              [--trace --spans PATH]
  python3 perfbench/worker.py --workload cli --seed 1 --warm-passes 4 --outdir DIR

The first pass after import is the cold pass (it fills the library's lazy
caches); the --warm-passes passes after it in the same process are warm.
Peak RSS is read before the checks, which load reference code the workload
itself never needs.  run.py starts this script; it is not meant to be run
by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from metrics import CLI_SUBCOMMANDS, span_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_library(args) -> dict:
    tracer = Tracer() if args.trace else None
    api = workloads.make_api(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    times, digests, first = [], [], None
    for index in range(1 + args.warm_passes):
        if tracer:
            tracer.pass_index = index
        t0 = time.perf_counter()
        out = wl.run_pass(api, tracer)
        times.append(time.perf_counter() - t0)
        digests.append(out.digest())
        if first is None:
            first = out
    rss = _maxrss_kb()
    result = {"cold_s": times[0], "warm_s": times[1:], "maxrss_kb": rss,
              "digest": digests[0], "warm_same": all(d == digests[0] for d in digests)}
    if tracer:
        result["layers"] = span_metrics(tracer.spans)
        result["replay_mismatches"] = workloads.replay_mismatches(first)
        result["replays"] = len(first.replays)
        if args.spans:
            tracer.write(args.spans)
    if args.check:
        chk = workloads.Check()
        wl.check(first, chk)
        result["check"] = chk.as_dict()
    return result


def run_cli_inprocess(args) -> dict:
    """The seven subcommands through corrqec.cli.main in one process."""
    from corrqec import cli
    cfg = os.path.join(args.outdir, "config.ini")

    def suite(tag: str) -> tuple[float, dict, list]:
        hashes, bad = {}, []
        t0 = time.perf_counter()
        for name in CLI_SUBCOMMANDS:
            path = os.path.join(args.outdir, f"inproc_{tag}_{name}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([name, "--config", cfg, "--seed", str(args.seed), "--out", path])
            if code != 0:
                bad.append(f"in-process {name} exited {code}")
                continue
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        return time.perf_counter() - t0, hashes, bad

    cold, hashes, bad = suite("cold")
    warm = []
    for _ in range(args.warm_passes):
        dt, h, b = suite("warm")
        warm.append(dt)
        bad += b + [f"in-process {k} bytes changed between passes"
                    for k in h if h[k] != hashes.get(k)]
    return {"cold_s": cold, "warm_s": warm, "maxrss_kb": _maxrss_kb(),
            "hashes": hashes, "problems": bad}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--warm-passes", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--outdir")
    args = ap.parse_args()
    import corrqec
    src = os.path.realpath(os.environ.get("PYTHONPATH", ""))
    if not os.path.realpath(corrqec.__file__).startswith(src + os.sep):
        print(f"corrqec imported from {corrqec.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = run_cli_inprocess(args) if args.workload == "cli" else run_library(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
