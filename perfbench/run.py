"""eptl benchmark: time to a checked result, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {exact,relations,numeric,smoke}
        --seed N --seconds S --trace {0,1}

Each pass runs in a fresh single-threaded worker process (see worker.py),
one at a time, and checks every output (see workloads.py).  Passes repeat
while another one is expected to end within ``--seconds``; there is
always at least one.

``--trace 0`` reports the end-to-end metrics:

* ``pass_s``: median time of one pass, first task to last checked
  output, in reference seconds: CPU seconds corrected for the speed of
  the host by a calibration kernel run every 0.1 s (see speed.py).  A
  pass is single-threaded and does no I/O, so on an idle machine of the
  reference speed this is the time a user waits.  The medians of the
  raw CPU and wall times are in the record and the printed info line;
* ``setup_s``: median time from the start of a worker to its ``ready``
  line (interpreter, numpy and ``import eptl``), over every worker of
  the run, in reference seconds by the kernel run right after;
* ``peak_rss_mb``: median of the workers' maximum RSS at the end of a pass;
* ``pass_ratio``: tasks passed / tasks attempted.  The failed share is
  its complement; it is reported this way round because a metric that is
  0 has no ratio bound.  ``failed`` in the result line holds the count.

``--trace 1`` alternates untraced and traced passes (tracer.py) and
reports the per-layer metrics (medians over the traced passes), the
tracing overhead (``trace.overhead_s``: the median traced ``pass_s`` minus
the median untraced one) and the share of wall time outside the task
spans (``trace.uncovered_ratio``).  Traced and untraced passes are
checked against the same reference digests.

Every metric is printed by name with its unit; the last line of stdout is
the JSON result.  The full record of the run (per-task seconds, setup
samples, spans when traced) is written to ``.bench_out/``.  Exit code 2
means the program could not be started, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("exact", "relations", "numeric", "smoke")
# setup-only spawns at each end of a run, on top of one spawn per pass;
# spreading them out keeps one slow stretch of the machine from setting the median
SETUP_SPAWNS = 6
# a run starts no pass that would end after this many seconds
RUN_LIMIT_S = 165.0
# one BLAS thread, so a pass uses one core as the rest of eptl does
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class StartError(Exception):
    """A worker did not reach ``ready``: the program cannot be imported."""


def spawn(mode: str, workload: str, seed: int, timeout: float):
    """Start a worker; returns (setup reference seconds, pass record or None, detail)."""
    env = os.environ | SINGLE_THREAD
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline().split()
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out, err = "", f"worker killed after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if len(ready) != 3 or ready[0] != "ready":
        raise StartError((" ".join(ready) + "\n" + err).strip()[-2000:])
    setup = float(ready[1]) * REFERENCE_KERNEL_S / float(ready[2])
    if mode == "setup":
        return setup, None, None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup, None, f"worker exit code {proc.returncode}: {err.strip()[-500:]}"
    try:
        return setup, json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return setup, None, f"unreadable worker output: {lines[-1][:200]}"


def crashed_pass(expected_tasks: int, detail: str) -> dict:
    """A pass whose worker died counts every task it should have run as failed."""
    n = max(1, expected_tasks)
    return {"attempted": n, "failed": n, "crashed": detail, "tasks": []}


def run_passes(workload, seed, seconds, trace, started):
    """Untraced passes, or untraced and traced in turn; returns (passes, setups)."""
    passes, setups, expected = [], [], 0
    budget_start = time.perf_counter()
    modes = ["pass", "trace"] if trace else ["pass"]
    while True:
        mode = modes[len(passes) % len(modes)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        setup, record, detail = spawn(mode, workload, seed, remaining)
        setups.append(setup)
        if record is None:
            record = crashed_pass(expected, detail)
        expected = max(expected, record["attempted"])
        record["mode"] = mode
        passes.append(record)
        elapsed = time.perf_counter() - budget_start
        per_pass = elapsed / len(passes)
        if "crashed" in record:  # the next worker would crash the same way
            return passes, setups
        if len(passes) < len(modes):
            continue
        if elapsed + per_pass > seconds or time.perf_counter() - started + per_pass > RUN_LIMIT_S:
            return passes, setups


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "eptl" / "__init__.py").is_file():
        print(f"error: no eptl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [spawn("setup", args.workload, args.seed, 60)[0] for _ in range(SETUP_SPAWNS)]
        passes, pass_setups = run_passes(args.workload, args.seed, args.seconds, args.trace, started)
        setups += pass_setups
        setups += [spawn("setup", args.workload, args.seed, 60)[0] for _ in range(SETUP_SPAWNS)]
    except StartError as exc:
        print(f"error: worker did not start:\n{exc}", file=sys.stderr)
        return 2

    measured = [p for p in passes if "pass_s" in p]
    if not measured:
        print("error: no pass finished; " + passes[-1]["crashed"], file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in measured if p["mode"] == "pass"]
    traced = [p for p in measured if p["mode"] == "trace"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_s_samples": [p["pass_s"] for p in untraced],
        "cpu_s_samples": [p["cpu_s"] for p in untraced],
        "wall_s_samples": [p["wall_s"] for p in untraced],
        "setup_s_samples": setups,
        "cpu_s": statistics.median([p["cpu_s"] for p in untraced]),
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "failed_ratio": failed / attempted,
        "failures": [
            {"task": t["name"], "detail": t["detail"]} for p in passes for t in p["tasks"] if not t["ok"]
        ][:20] + [{"pass": p["crashed"]} for p in passes if "crashed" in p],
        "rejected_draws": measured[0]["rejected_draws"],
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": measured[0]["numpy"],
        "nproc": os.cpu_count(),
    }

    if args.trace:
        if not traced:
            print("error: no traced pass finished", file=sys.stderr)
            return 1
        names = list(traced[0]["trace"]["metrics"])
        metrics = {k: statistics.median([p["trace"]["metrics"][k] for p in traced]) for k in names}
        info["traced_pass_s_samples"] = [p["pass_s"] for p in traced]
        metrics["trace.overhead_s"] = (
            statistics.median(info["traced_pass_s_samples"]) - statistics.median(info["pass_s_samples"])
        )
        units = {k: unit_of(k) for k in metrics}
        for key in ("hook_s", "wrapper_s", "residual_s", "kernel_s", "spans_dropped"):
            info[key] = [p["trace"][key] for p in traced]
    else:
        metrics = {
            "pass_s": statistics.median([p["pass_s"] for p in untraced]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
            "pass_ratio": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS

    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"info": info, "metrics": metrics, "passes": passes}))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"tasks {attempted}  failed {failed}  record {record_path.relative_to(ROOT)}")
    samples = {
        "pass_s": f"median of {len(untraced)} passes",
        "setup_s": f"median of {len(setups)} spawns",
        "trace.overhead_s": f"{len(traced)} traced and {len(untraced)} untraced passes",
    }
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]:12s} {samples.get(name, '')}")
    print("info " + json.dumps({k: v for k, v in info.items() if not k.endswith("_samples")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_sector"):
        return "calls/sector"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
