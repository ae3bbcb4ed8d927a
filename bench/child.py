"""One workload run inside its own process: set up, say ``ready``, run jobs.

    python3 bench/child.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (stop after set-up), ``run`` (the timed, untraced phase)
or ``trace`` (alternating untraced and traced passes over a fixed prefix of
the stream).  Set-up is everything before the first job: interpreter start,
``import motivic`` and generating the seeded job list.  The parent times it
from process start to the ``ready`` line.  The model files are already in
WORKDIR/files: the parent writes them once, because creating thousands of
files here took anywhere from 0.1 to 1 s for the same job list.

Each job's record is appended to WORKDIR/records.jsonl as it completes, so
memory does not grow with the number of jobs run; the totals go to
WORKDIR/result.json.  The parent checks the outputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import motivic
import motivic.cli

import calib
import tracing
import workloads

JOB_CAP_S = 30.0  # a job running past this is stopped and counted as failed


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job ran past its {JOB_CAP_S:.0f} s cap")


def run_job(job, files: str, call=None) -> dict:
    """One closed-loop CLI call on the model files in ``files``; ``call``
    wraps motivic.cli.main for tracing."""
    argv = [a.replace("{dir}", files) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    rc, failure = None, None
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(motivic.cli.main, argv) if call else motivic.cli.main(argv)
    except Exception:  # the loop must go on; the traceback marks the job failed
        failure = traceback.format_exc(limit=4)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"rc": rc, "wall": wall, "out": out.getvalue(),
            "err": err.getvalue()[-500:], "failure": failure}


def timed_phase(jobs, files: str, seconds: float, log) -> dict:
    """Jobs until the time is up, with calibration chunks interleaved: WINDOW
    before the first job, one after every EVERY_S of job time, WINDOW after
    the last.  The parent scales each job's wall time by the chunks near it."""
    positions, samples = [], []

    def calibrate(i: int, count: int = 1) -> None:
        for _ in range(count):
            positions.append(i)
            samples.append(calib.chunk())

    calibrate(0, calib.WINDOW)
    start = time.perf_counter()
    i, since = 0, 0.0
    while True:
        rec = run_job(jobs[i % len(jobs)], files)
        rec["index"] = i % len(jobs)
        log.write(json.dumps(rec) + "\n")
        i += 1
        since += rec["wall"]
        if time.perf_counter() - start >= seconds:
            break
        if since >= calib.EVERY_S:
            calibrate(i)
            since = 0.0
    elapsed = time.perf_counter() - start
    calibrate(i, calib.WINDOW)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"jobs": i, "elapsed_s": elapsed, "peak_rss_mb": peak_kb / 1024.0,
            "calib_positions": positions, "calib_s": samples}


def trace_phase(jobs, files: str, seconds: float, log, spans_path: str) -> dict:
    """Pairs of passes over the fixed prefix, alternating which side runs
    first, until the time is up; per-layer numbers from every traced pass."""
    passes, overheads = [], []
    start = time.perf_counter()
    k = 0
    while True:
        walls = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tr = tracing.Tracer() if traced else None
            if tr:
                tr.install()
            try:
                recs = []
                for j, job in enumerate(jobs):
                    call = (lambda fn, argv, j=j: tr.call_job(j, fn, argv)) if tr else None
                    rec = run_job(job, files, call)
                    rec["index"] = j
                    recs.append(rec)
            finally:
                if tr:
                    tr.uninstall()
            for rec in recs:
                log.write(json.dumps(rec) + "\n")
            walls[traced] = sum(r["wall"] for r in recs)
            if tr:
                budget = sum(r["err"].startswith("error[BudgetExceeded]") for r in recs)
                layer, gap = tracing.summarize(tr, budget)
                passes.append({"layers": layer, "self_time_gap_s": gap})
                if k == 0:
                    tracing.write_spans(tr, spans_path)
        overheads.append(1.0 - walls[False] / walls[True])
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"passes": passes, "overheads": overheads}


def main(argv) -> int:
    mode, workload, seed, seconds, workdir = argv
    src = os.environ["BENCH_SRC"]
    if not os.path.abspath(motivic.__file__).startswith(src + os.sep):
        print(f"motivic imported from {motivic.__file__}, not {src}", file=sys.stderr)
        return 2
    jobs = workloads.make_jobs(workload, int(seed))
    print("ready", flush=True)
    if mode == "setup":
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    files = os.path.join(workdir, "files")
    with open(os.path.join(workdir, "records.jsonl"), "w", encoding="utf-8") as log:
        if mode == "run":
            result = timed_phase(jobs, files, float(seconds), log)
        else:
            prefix = jobs[:workloads.TRACE_JOBS[workload]]
            result = trace_phase(prefix, files, float(seconds), log,
                                 os.path.join(workdir, "spans.tsv"))
    result["job_hash"] = workloads.job_list_hash(jobs)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
