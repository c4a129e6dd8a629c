"""One pass over a workload's jobs, in a fresh interpreter.

Started by ``run.py``, one process per pass, so module-level state inside
``dllab`` starts empty every pass. Runs each job through ``dllab.cli.main``
in this process, captures its payload and summary lines, and writes one JSON
line per job and a final line to the original standard output. After each job
the module-level state that ``dllab`` starts with empty (its memo tables and
``functools`` caches) is emptied again, so every job starts from the state a
fresh ``dllab`` command starts from, whatever ran before it in the pass.

Every mode reports ``setup_s``: the time from when ``run.py`` started this
process (``--spawned``, a ``time.monotonic`` reading, which is shared by all
processes of the machine) until dllab is imported and the inputs are made.

In ``time`` mode each job is bracketed by the host probe (`host_probe`), a
fixed reference loop that involves no dllab code; ``run.py`` divides each
timing by the probe's reading to take out the host's own changes of speed.

Modes:
  time    plain pass, timing each job and probing the host around it;
  memory  the same pass under tracemalloc, reporting the largest peak
          allocation of any one job;
  trace   the same pass under the span tracer, reporting per-layer totals.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    """Import dllab from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dllab", "cli.py")):
        raise SystemExit(f"dllab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    from dllab import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dllab from {cli.__file__}, not from {SRC}")
    return cli


PROBE_LOOPS = 4000
PROBE_REPEATS = 2


def host_probe() -> float:
    """Seconds a fixed reference loop takes now; it tracks the host's speed.

    The loop uses the interpreter the way dllab does (tuple keys, dict
    updates, small-int arithmetic) but calls no dllab code, so a change to
    the program cannot move it. It runs with the collector off, so that
    objects a job left behind cannot slow it, and reports the fastest of
    PROBE_REPEATS runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            table = {}
            for i in range(PROBE_LOOPS):
                key = (i % 89, i // 89)
                table[key] = table.get(key, 0) + i * 3 % 7
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def fresh_state_reset(package: str = "dllab"):
    """A function that empties the package's module-level memo state again.

    Taken right after import: every module-level dict, list or set of the
    package that is empty then, and every ``functools`` cache it holds.
    """
    empty, cached = [], []
    for name, module in sorted(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for value in vars(module).values():
            if isinstance(value, (dict, list, set)) and not value:
                empty.append(value)
            elif callable(getattr(value, "cache_clear", None)):
                cached.append(value)

    def reset() -> None:
        for container in empty:
            container.clear()
        for fn in cached:
            fn.cache_clear()

    return reset


def _run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(job.argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job that raises is a failed job, not a crash
            status, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return status, elapsed, out.getvalue(), err.getvalue(), error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("time", "memory", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    cli = _import_cli()
    reset_state = fresh_state_reset()
    sys.path.insert(0, HERE)
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned
    probing = args.mode == "time"
    setup_probe_s = host_probe() if probing else None

    channel = sys.stdout
    recorder = None
    if args.mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        missing = tracing.install(recorder)
        if missing:
            print(f"untraced (not found): {', '.join(missing)}", file=sys.stderr)
    elif args.mode == "memory":
        import tracemalloc

        tracemalloc.start()

    pass_s = 0.0
    payload_bytes = 0
    peak = 0
    for job in jobs:
        if args.mode == "memory":
            gc.collect()  # what earlier jobs left must not depend on collector timing
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        probe_before = host_probe() if probing else None
        status, elapsed, out, err, error = _run_job(cli, job)
        reset_state()
        pass_s += elapsed
        record = {"job": job.name, "status": status, "s": elapsed}
        if probing:
            record["probe_s"] = (probe_before + host_probe()) / 2
        if args.mode == "memory":
            # the job's own peak above what earlier jobs left allocated, read
            # before the checks below allocate on their own account
            record["peak_mib"] = (tracemalloc.get_traced_memory()[1] - before) / 2**20
            peak = max(peak, record["peak_mib"])
        if error is not None:
            record["problems"] = [error]
        else:
            # with no --out the payload owns stdout and summaries go to
            # stderr; verify prints its check lines as its payload
            payload = out.encode()
            payload_bytes += len(payload)
            record["sha256"] = hashlib.sha256(payload).hexdigest()
            record["problems"] = workloads.output_problems(job, out, err)
            try:
                record["items"] = workloads.count_items(job, out, err)
            except (ValueError, KeyError, IndexError, AttributeError) as exc:
                record["problems"].append(f"cannot read work items: {exc!r}")
        channel.write(json.dumps(record) + "\n")
        channel.flush()

    final = {"pass_s": pass_s, "setup_s": setup_s, "setup_probe_s": setup_probe_s,
             "payload_bytes": payload_bytes}
    if args.mode == "memory":
        final["peak_mib"] = peak
    if recorder is not None:
        final["layers"] = tracing.layer_metrics(recorder.summary(), payload_bytes)
    channel.write(json.dumps({"final": final}) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
