#!/usr/bin/env python3
"""corrqec benchmark: one seeded workload per call, every metric with its unit.

  python3 perfbench/run.py --workload {curve,oracle,verdict,cli} --seed N
                           --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/corrqec);
the library is imported from that checkout's src/ and nowhere else.  Every
measured process is fresh, single-threaded (BLAS/OpenMP pinned to 1 thread)
and started one at a time.  Scratch files go to .perfbench_run/ in the
checkout.  The last line of standard output is one JSON object:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {name: {value, unit}}}

--trace 0 reports the end-to-end metrics (setup_s, scan_s, rescan_s,
peak_rss_mb); --trace 1 makes a separate traced run and reports the
per-layer metrics, tracing overhead included.  fail_frac = failed/attempted
is printed on its own line.  DESIGN.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from metrics import CLI_JOBS2, CLI_SUBCOMMANDS, END_TO_END, UNITS, per_layer, span_metrics  # noqa: E402
from workloads import Check  # noqa: E402

WORKLOADS = ("curve", "oracle", "verdict", "cli")
BUDGET_S = 170.0          # a run must end within 180 s
# Timed metrics are the median of a fixed number of samples.  A count set by
# the time budget would tie what is measured to the build's speed; samples
# taken beyond these counts go to the run record only.
SETUP_PROBES = 3          # fresh `import corrqec` processes before the workload; one
                          # more follows each timed worker or cli suite
WORKERS = {"curve": 6, "oracle": 5, "verdict": 4}   # workload processes per untraced run
WARM_PASSES = {"curve": 4, "oracle": 1, "verdict": 1, "cli": 4}  # per worker
SUITES = 3                # cli suites per untraced run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


class Procs:
    """Runs child processes one at a time inside the run's time budget."""

    def __init__(self, root: str, env: dict, deadline: float):
        self.root, self.env, self.deadline = root, env, deadline

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str], extra_env: dict | None = None) -> tuple[float, int, str, str]:
        env = dict(self.env, **(extra_env or {}))
        timeout = self.left()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise BenchError(f"{' '.join(argv[1:4])} ran past the time budget") from None
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): take the child and its pool workers down too
            _kill_group(proc)
            raise
        return time.perf_counter() - t0, proc.returncode, out, err

    def worker(self, args: list[str], extra_env: dict | None = None) -> dict:
        dt, code, out, err = self.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                                      extra_env)
        if code != 0:
            raise BenchError(f"worker {' '.join(args[:2])} exited {code}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("CORRQEC_TOL", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_record(root: str, args) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        sha = got.stdout.strip() or None
    src_lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "blas_threads": 1, "src_lines": src_lines}


class SetupProbe:
    """Times fresh `python -c "import corrqec"` processes; setup_s is their median.

    Host contention comes in stretches of a few seconds, so the probes are
    spread over the run rather than taken back to back."""

    def __init__(self, procs: Procs, tally: Check):
        self.procs, self.tally, self.times = procs, tally, []

    def __call__(self, count: int = 1) -> None:
        for _ in range(count):
            dt, code, _, err = self.procs.run([sys.executable, "-c", "import corrqec"])
            self.tally.item(code == 0, f"import corrqec exited {code}: {err[-300:]}")
            self.times.append(dt)

    def median(self) -> float:
        return statistics.median(self.times)


# ----------------------------------------------------------- library workloads

def library_run(procs: Procs, args, tally: Check, rundir: str, probe: SetupProbe) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--warm-passes", str(WARM_PASSES[args.workload])]
    if args.trace:
        plain = [procs.worker(base) for _ in range(2)]
        traced = procs.worker(base + ["--trace", "--check", "--spans",
                                      os.path.join(rundir, "spans.jsonl")])
        tally.merge(traced["check"])
        tally.merge({"attempted": traced["replays"], "failed": len(traced["replay_mismatches"]),
                     "by_function": {}, "notes": traced["replay_mismatches"]})
        for res in plain:
            tally.item(res["digest"] == traced["digest"], "traced results differ from untraced")
        layers = traced["layers"]
        layers["residual.code_avg_residual.failed"] = \
            traced["check"]["by_function"].get("code_avg_residual", 0)
        layers["trace.overhead_s"] = traced["cold_s"] - min(r["cold_s"] for r in plain)
        return layers
    results = []
    count = WORKERS[args.workload]
    start = time.perf_counter()
    while len(results) < count or time.perf_counter() - start < args.seconds:
        res = procs.worker(base + (["--check"] if not results else []))
        if not results:
            tally.merge(res["check"])
        else:
            tally.item(res["digest"] == results[0]["digest"], "results differ between processes")
        tally.item(res["warm_same"], "warm passes differ from the cold pass")
        results.append(res)
        if len(results) <= count:
            probe()
        if procs.left() < 2.0 * (time.perf_counter() - start) / len(results):
            break
    if len(results) < count:
        raise BenchError(f"only {len(results)} of {count} workers fit in the time budget")
    timed = results[:count]
    return {
        "setup_s": None,
        "scan_s": statistics.median(r["cold_s"] for r in timed),
        "rescan_s": statistics.median(t for r in timed for t in r["warm_s"]),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in timed) / 1024.0,
        "detail": {"cold_s": [r["cold_s"] for r in results],
                   "warm_s": [r["warm_s"] for r in results]},
    }


# ----------------------------------------------------------- cli workload

def _sha(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def cli_suite(procs: Procs, args, tally: Check, rundir: str, tag: str,
              tracer=None) -> dict[str, float]:
    """The seven subcommands as fresh processes, then the fan-out three with
    --jobs 2; returns seconds per invocation and checks exit status and bytes."""
    cfg = os.path.join(rundir, "config.ini")
    times = {}
    runs = [(name, 1) for name in CLI_SUBCOMMANDS]
    if tracer is None:
        runs += [(name, 2) for name in CLI_JOBS2]
    for name, jobs in runs:
        out = os.path.join(rundir, f"{tag}_{name}_j{jobs}.csv")
        cli_args = [name, "--config", cfg, "--seed", str(args.seed), "--jobs", str(jobs),
                    "--out", out]
        if tracer is None:
            dt, code, _, err = procs.run([sys.executable, "-m", "corrqec.cli"] + cli_args)
        else:
            spans_path = os.path.join(rundir, f"{tag}_{name}_spans.json")
            with tracer.span(f"cli.{name}") as rec:
                dt, code, _, err = procs.run(
                    [sys.executable, os.path.join(HERE, "cli_child.py")] + cli_args,
                    {"PERFBENCH_SPANS": spans_path})
            with open(spans_path, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh), rec["id"])
        tally.item(code == 0, f"corrqec {name} --jobs {jobs} exited {code}: {err[-300:]}")
        times[name if jobs == 1 else f"{name}.jobs2"] = dt
        if jobs == 2:
            same = _sha(out) == _sha(os.path.join(rundir, f"{tag}_{name}_j1.csv"))
            tally.item(same, f"corrqec {name}: --jobs 2 CSV differs from --jobs 1")
    return times


def cli_run(procs: Procs, args, tally: Check, rundir: str, probe: SetupProbe) -> dict:
    config, info = workloads.cli_config(args.seed)
    with open(os.path.join(rundir, "config.ini"), "w", encoding="ascii") as fh:
        fh.write(config)

    def same_bytes(tag: str, ref_tag: str, names, what: str) -> None:
        for name in names:
            a = _sha(os.path.join(rundir, f"{tag}_{name}_j1.csv"))
            tally.item(a is not None and a == _sha(os.path.join(rundir, f"{ref_tag}_{name}_j1.csv")),
                      f"corrqec {name}: {what}")

    if args.trace:
        from tracing import Tracer
        plain = cli_suite(procs, args, tally, rundir, "plain")
        tracer = Tracer()
        traced = cli_suite(procs, args, tally, rundir, "traced", tracer)
        same_bytes("traced", "plain", CLI_SUBCOMMANDS, "traced CSV differs from untraced")
        layers = span_metrics(tracer.spans)
        layers.update({f"cli.{k}.s": v for k, v in plain.items()})
        layers["cli.floor_s"] = probe.median()
        layers["cli.failed"] = tally.failed
        layers["trace.overhead_s"] = sum(traced.values()) - sum(plain[n] for n in CLI_SUBCOMMANDS)
        return layers

    suites = []
    start = time.perf_counter()
    while len(suites) < SUITES or time.perf_counter() - start < args.seconds:
        suites.append(cli_suite(procs, args, tally, rundir, f"s{len(suites)}"))
        if len(suites) <= SUITES:
            probe()
        if len(suites) > 1:
            same_bytes(f"s{len(suites) - 1}", "s0", CLI_SUBCOMMANDS, "CSV differs between runs")
        if procs.left() < 3.0 * (time.perf_counter() - start) / len(suites):
            break
    if len(suites) < SUITES:
        raise BenchError(f"only {len(suites)} of {SUITES} cli suites fit in the time budget")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    inproc = procs.worker(["--workload", "cli", "--seed", str(args.seed),
                           "--warm-passes", str(WARM_PASSES["cli"]), "--outdir", rundir])
    for bad in inproc["problems"]:
        tally.item(False, bad)
    for name in CLI_SUBCOMMANDS:
        tally.item(inproc["hashes"].get(name) == _sha(os.path.join(rundir, f"s0_{name}_j1.csv")),
                  f"corrqec {name}: in-process CSV differs from the fresh process's")
    for name in ("fig1", "residual", "beta"):
        with open(os.path.join(rundir, f"s0_{name}_j1.csv"), encoding="ascii") as fh:
            workloads.check_cli_csv(name, fh.read(), info, tally)
    per_call = {k: statistics.median(s[k] for s in suites[:SUITES]) for k in suites[0]}
    return {"setup_s": None, "scan_s": sum(per_call.values()),
            "rescan_s": statistics.median(inproc["warm_s"]), "peak_rss_mb": peak_kb / 1024.0,
            "detail": {"suites": suites, "warm_s": inproc["warm_s"]}}


# ----------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description="corrqec benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "corrqec", "__init__.py")):
        print("perfbench: run from the root of a corrqec checkout (no src/corrqec here)",
              file=sys.stderr)
        return 2
    rundir = os.path.join(root, ".perfbench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    procs = Procs(root, pinned_env(root), time.perf_counter() + BUDGET_S)
    record = run_record(root, args)
    tally = Check()
    try:
        probe = SetupProbe(procs, tally)
        probe(SETUP_PROBES)
        if args.workload == "cli":
            values = cli_run(procs, args, tally, rundir, probe)
        else:
            values = library_run(procs, args, tally, rundir, probe)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(values)
    else:
        values["setup_s"] = probe.median()
        values["detail"]["setup_s"] = probe.times
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    record["detail"] = values.get("detail")
    record["attempted"], record["failed"], record["failures"] = \
        tally.attempted, tally.failed, tally.notes
    with open(os.path.join(rundir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
          f"scipy={record['scipy']} blas_threads=1 src_lines={record['src_lines']} "
          f"sha={record['git_sha']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {UNITS[name]}")
    print(f"  {'fail_frac':<36} {tally.failed / max(tally.attempted, 1):>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} items)")
    for note in tally.notes[:10]:
        print(f"  FAILED: {note}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
