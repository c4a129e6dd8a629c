"""dllab benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client drives the workload's jobs in
sequence (a closed loop), each job a real ``dllab`` argv run through
``dllab.cli.main``. Every pass over the jobs runs in a fresh interpreter,
started one at a time from this process, so module-level state such as the
distance memo starts empty each pass; within a pass that state is emptied
again after every job (see ``passrun.fresh_state_reset``), so each job costs
what a fresh ``dllab`` command costs, whichever jobs the seeded order put
before it.

``--trace 0`` runs one untimed pass under tracemalloc for the memory peak,
which also warms the machine, then a fixed number of timed passes that
follows from ``--seconds`` alone (one per NOMINAL_PASS_S, at least
MIN_PASSES). It reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones.

Host-corrected timings. A shared virtual machine (such as a 2-vCPU cloud VM)
runs at times up to ~2x slower for reasons outside the benchmark's
processes, in spells from under a second to over a minute, so a whole run can
fall inside a slow spell. Each timed pass therefore runs a fixed reference
loop that calls no dllab code (``passrun.host_probe``) right before and after
every job and right after set-up. Every end-to-end timing is divided by the
probe's reading next to it and multiplied by REFERENCE_PROBE_S: it reads as
the time the job would take while the probe takes REFERENCE_PROBE_S. A change
to dllab moves these timings as it moves wall time; the host's spells largely
cancel out. The raw line keeps the uncorrected timings and probe readings.

Every job's output is checked in every pass: exit status, its PASS summary
lines, the work items it reports, a payload byte-identical across passes,
and for the recorded seed-0 inputs the payload digest in ``digests.json``.
A job that fails any of these counts in ``failed``.

End-to-end metrics (``--trace 0``), from the host-corrected timings of
every job in every timed pass:

  wall_s       time of one pass: the sum over jobs of each job's median
  job_ms.p50   median job latency over all job samples
  job_ms.tail  the highest percentile of them that leaves ten samples beyond
               it (the raw line records the percentile and sample count)
  items_per_s  work items of one pass (box members, group elements, mapped
               vertices and sampled pairs, exported vertices and edges)
               divided by wall_s
  peak_mib     the largest tracemalloc peak of one job above what was
               allocated when it started, from the memory pass
  setup_s      median over the timed passes of the time to start the pass's
               interpreter, import dllab and make the workload's inputs,
               corrected by the probe run right after it
  fail_frac    failed / attempted jobs; printed in the table only, since it
               is 0 whenever the result is correct

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are a
readable table and a ``raw`` line with per-job timings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_SEED = 0
# The pass count follows from --seconds alone, never from how fast the
# program runs, so parent and change take the same number of samples: one
# pass per NOMINAL_PASS_S of budget, and at least MIN_PASSES. With eleven or
# more passes the tail rank (ten samples beyond it) always falls among the
# repeats of the workload's largest job.
NOMINAL_PASS_S = 0.75
MIN_PASSES = 12
MIN_TRACE_PAIRS = 4
# About what passrun.host_probe takes on a quiet 2-vCPU Xeon host; it sets
# only the scale of the host-corrected timings.
REFERENCE_PROBE_S = 0.001
JOB_LIMIT_S = 30.0
PASS_LIMIT_S = 60.0
RUN_LIMIT_S = 170.0
# tracemalloc slows a pass about fivefold; keep room for it within the limit
MEMORY_PASS_FACTOR = 6.0

END_TO_END = (
    ("wall_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("items_per_s", "1/s"),
    ("peak_mib", "MiB"),
    ("setup_s", "s"),
)


class Run:
    """One benchmark run: spawns passes and checks every job they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.jobs = workloads.make_jobs(workload, seed)
        self.started = time.perf_counter()
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.digest = {}
        self.items = {}
        self.require_digest = seed == DIGEST_SEED
        try:
            with open(DIGESTS, encoding="utf-8") as fh:
                self.recorded = json.load(fh).get(workload, {})
        except (OSError, ValueError):
            self.recorded = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _env(self) -> dict:
        # a different hash seed every pass: payloads must not depend on it
        self.passes += 1
        return dict(os.environ, PYTHONHASHSEED=str((self.seed * 7919 + self.passes) % 2**32))

    def _command(self, mode: str) -> list:
        return [sys.executable, os.path.join(HERE, "passrun.py"),
                "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
                "--spawned", repr(time.monotonic())]

    def run_pass(self, mode: str) -> "dict | None":
        """Run one pass; return its final record, or None if it did not finish."""
        limit = max(1.0, min(PASS_LIMIT_S, RUN_LIMIT_S - self.elapsed()))
        # its own process group, so a stopped pass takes the worker processes
        # of a --workers job with it
        proc = subprocess.Popen(self._command(mode), cwd=ROOT, env=self._env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\npass exceeded {limit:.0f} s and was stopped\n".encode()
        records, final = {}, None
        for line in out.decode(errors="replace").splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if "final" in rec:
                final = rec["final"]
            elif "job" in rec:
                records[rec["job"]] = rec
        if final is None or proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
        self._check(records)
        if final is not None and proc.returncode == 0:
            final["jobs"] = records
            return final
        return None

    def _check(self, records: dict) -> None:
        for job in self.jobs:
            self.attempted += 1
            problems = self._problems(job, records.get(job.name))
            if problems:
                self.failed += 1
                print(f"FAILED {job.name}: {'; '.join(problems)}", file=sys.stderr)

    def _problems(self, job, rec) -> "list[str]":
        if rec is None:
            return ["did not finish"]
        problems = list(rec.get("problems", []))
        if rec.get("status") != 0:
            problems.append(f"exit status {rec.get('status')}, expected 0")
        if rec.get("s", 0.0) > JOB_LIMIT_S:
            problems.append(f"took {rec['s']:.1f} s, limit {JOB_LIMIT_S:.0f} s")
        sha, items = rec.get("sha256"), rec.get("items")
        if sha is not None:
            if self.digest.setdefault(job.name, sha) != sha:
                problems.append("payload differs from an earlier pass")
            recorded = self.recorded.get(job.name)
            if recorded and recorded["argv"] == list(job.argv):
                if recorded["sha256"] != sha:
                    problems.append("payload digest differs from the recorded one")
            elif self.require_digest:
                problems.append("no recorded digest for these inputs")
        if items is not None:
            if self.items.setdefault(job.name, items) != items:
                problems.append("work item count differs from an earlier pass")
            if job.items is not None and items != job.items:
                problems.append(f"reports {items} work items, expected {job.items}")
        return problems


def _tail(samples: "list[float]") -> "tuple[float, float]":
    """Value and percentile of the highest rank with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def faster_half(values: list, key=None) -> list:
    """The faster half (rounded up) of repeated timings, fastest first."""
    return sorted(values, key=key)[: (len(values) + 1) // 2]


def corrected(seconds: float, probe_s: float) -> float:
    """A timing scaled to the host speed at which the probe reads REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def _limit_reached(run: Run, pass_s: float, factor: float) -> bool:
    return run.elapsed() + factor * pass_s > RUN_LIMIT_S


def measure(run: Run, seconds: float) -> "tuple[dict, dict]":
    # the tracemalloc pass is untimed, so it doubles as the warm-up pass
    memory = run.run_pass("memory")
    if memory is None:
        raise RuntimeError("the memory pass did not finish")
    timed = []
    estimate = memory["pass_s"] / MEMORY_PASS_FACTOR
    for _ in range(max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))):
        if _limit_reached(run, estimate, 3):
            break
        result = run.run_pass("time")
        if result is not None:
            timed.append(result)
            estimate = max(estimate, result["pass_s"])
    if not timed:
        raise RuntimeError("no complete timed pass")

    setups = [corrected(p["setup_s"], p["setup_probe_s"]) for p in timed]
    per_job = {job.name: [corrected(p["jobs"][job.name]["s"], p["jobs"][job.name]["probe_s"]) * 1000
                          for p in timed if job.name in p["jobs"]]
               for job in run.jobs}
    samples = [x for xs in per_job.values() for x in xs]
    tail, pct = _tail(samples)
    items = sum(run.items.values())
    wall = sum(statistics.median(xs) for xs in per_job.values() if xs) / 1000
    metrics = {
        "wall_s": wall,
        "job_ms.p50": statistics.median(samples),
        "job_ms.tail": tail,
        "items_per_s": items / wall,
        "peak_mib": memory["peak_mib"],
        "setup_s": statistics.median(setups),
    }
    raw = {
        "timed_passes": len(timed),
        "pass_s": [p["pass_s"] for p in timed],
        "job_samples": len(samples),
        "tail_percentile": pct,
        "items_per_pass": items,
        "uncorrected_wall_s": sum(statistics.median(p["jobs"][job.name]["s"] for p in timed
                                                    if job.name in p["jobs"]) for job in run.jobs),
        "setup_starts_s": [p["setup_s"] for p in timed],
        "setup_probe_ms": [round(p["setup_probe_s"] * 1000, 4) for p in timed],
        "per_job_ms": {job.name: [round(p["jobs"][job.name]["s"] * 1000, 3)
                                  for p in timed if job.name in p["jobs"]] for job in run.jobs},
        "per_job_probe_ms": {job.name: [round(p["jobs"][job.name]["probe_s"] * 1000, 4)
                                        for p in timed if job.name in p["jobs"]] for job in run.jobs},
        "per_job_peak_mib": {name: rec.get("peak_mib") for name, rec in memory["jobs"].items()},
        "job_argv": {job.name: list(job.argv) for job in run.jobs},
    }
    return metrics, raw


def measure_traced(run: Run, seconds: float) -> "tuple[dict, dict]":
    warm = run.run_pass("time")
    if warm is None:
        raise RuntimeError("the warm-up pass did not finish")
    plain, traced = [], []
    estimate = warm["pass_s"]
    for _ in range(max(MIN_TRACE_PAIRS, round(seconds / (3 * NOMINAL_PASS_S)))):
        if _limit_reached(run, estimate, 4):
            break
        a, b = run.run_pass("time"), run.run_pass("trace")
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
            estimate = max(estimate, a["pass_s"], b["pass_s"])
    if not traced:
        raise RuntimeError("no complete traced pass")
    by_time = lambda p: p["pass_s"]  # noqa: E731
    fast_traced, fast_plain = faster_half(traced, by_time), faster_half(plain, by_time)
    metrics = {name: statistics.median(p["layers"][name] for p in fast_traced)
               for name, _ in tracing.LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in fast_traced)
                                   - statistics.median(p["pass_s"] for p in fast_plain))
    raw = {
        "pairs": len(traced),
        "plain_pass_s": [p["pass_s"] for p in plain],
        "traced_pass_s": [p["pass_s"] for p in traced],
    }
    return metrics, raw


def record_digests() -> int:
    """Write digests.json from one seed-0 pass of every workload."""
    table = {}
    for name in workloads.WORKLOADS:
        run = Run(name, DIGEST_SEED)
        run.recorded, run.require_digest = {}, False
        if run.run_pass("time") is None or run.failed:
            print(f"{name}: pass failed, nothing written", file=sys.stderr)
            return 1
        table[name] = {job.name: {"argv": list(job.argv), "sha256": run.digest[job.name]}
                       for job in run.jobs}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dllab benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="write digests.json from seed-0 passes and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dllab", "cli.py")):
        print(f"error: no dllab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics, raw = measure_traced(run, args.seconds)
            units = dict(tracing.LAYER_METRICS)
        else:
            metrics, raw = measure(run, args.seconds)
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fail_frac = run.failed / run.attempted
    print(f"workload {run.workload}  seed {run.seed}  trace {args.trace}  run {run.elapsed():.1f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {fail_frac:14.6g} ({run.failed} of {run.attempted} jobs)")
    print("raw " + json.dumps(raw, separators=(",", ":")))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
