"""The repository benchmark: seeded ``motivic`` CLI jobs, closed loop.

    python3 bench/run.py --workload {jets,cones,ring} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
One client runs one job at a time with ``--threads 1`` through
``motivic.cli.main(argv)`` in a child process of its own, so peak RSS is
that workload's alone.  The parent first times ``SETUP_SAMPLES`` set-up-only
children, then starts the measuring child, and reports the median set-up
time.

Times are scaled to a reference speed (see ``calib.py``): each job's wall
time by calibration chunks that the measuring child runs between its jobs,
each set-up time by probe processes run just before and after it.  The
host's own drift would otherwise move every timing metric by more than its
bound between two sets of runs of the same code.

``--trace 0`` reports the end-to-end metrics of ``--seconds`` of jobs.
``--trace 1`` runs a fixed prefix of the same stream alternately untraced
and traced and reports per-layer metrics (see ``tracing.py``).  Every output
is checked against its oracle after the child has exited; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also leaves a record with the seed and the hash of
the job list in ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 10
CHILD_GRACE_S = 120  # on top of --seconds: set-up, the last job, writing results

END_TO_END: List[Tuple[str, str]] = [
    ("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"), ("pass_frac", "fraction")]


def child_env(src: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MOTIVIC_JETS_BUDGET", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([src, HERE]),
               BENCH_SRC=src, PYTHONUNBUFFERED="1")
    return env


def start_child(mode: str, args, workdir: str, env) -> Tuple[subprocess.Popen, float]:
    """Start a child and return it with its set-up time (start to 'ready')."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, args.workload,
           str(args.seed), str(args.seconds), workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait()
        raise RuntimeError(f"{mode} child exited with {proc.returncode} before set-up ended")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a child; kill it if it overruns.  Raises unless it exited 0."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[2]} exited with {proc.returncode}")


def quantile(values: List[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics
    (statistics.quantiles' inclusive method, which needs two values)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_records(jobs, records) -> Tuple[int, List[str]]:
    """Check every record against its oracle; returns (failed, reasons)."""
    failed, reasons, memo = 0, [], {}
    for rec in records:
        key = (rec["index"], rec["rc"], rec["out"])
        if key not in memo:
            job = jobs[rec["index"]]
            why = rec["failure"] or (
                "traceback on stderr" if "Traceback" in rec["err"] else
                workloads.check(job, rec["rc"], rec["out"]))
            memo[key] = why
        why = memo[key]
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"job {rec['index']} ({jobs[rec['index']].stratum}): {why}")
    return failed, reasons


def reference_walls(result: dict, records: List[dict]) -> List[float]:
    """Each job's wall time scaled to the reference speed."""
    factors = calib.job_factors(len(records), result["calib_positions"],
                                result["calib_s"])
    return [r["wall"] * f for r, f in zip(records, factors)]


def end_to_end(walls: List[float], records: List[dict], peak_rss_mb: float,
               setups: List[float], failed: int) -> Dict[str, float]:
    """``walls`` are the jobs' times at the reference speed; jobs_per_s is
    over their sum, which leaves out the calibration chunks; ``setups`` are
    scaled too."""
    return {"jobs_per_s": len(records) / sum(walls),
            "job_p50_s": quantile(walls, 0.5), "job_p90_s": quantile(walls, 0.9),
            "peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(setups),
            "pass_frac": 1.0 - failed / len(records)}


def per_layer(result: dict) -> Tuple[Dict[str, float], float]:
    """Medians over traced passes; the counts repeat exactly between passes."""
    passes = result["passes"]
    out = {name: statistics.median(p["layers"][name] for p in passes)
           for name in passes[0]["layers"]}
    out["trace.overhead_frac"] = statistics.median(result["overheads"])
    return out, max(p["self_time_gap_s"] for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "motivic", "__init__.py")):
        print(f"no motivic package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)  # the oracles import the program's own checkers
    env = child_env(src)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workroot = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed)
    try:
        files = os.path.join(workroot, "files")
        os.makedirs(files)
        for job in jobs:
            for name, text in job.files.items():
                with open(os.path.join(files, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        setups = []
        for _ in range(SETUP_SAMPLES):
            before = calib.probe(env)
            proc, setup = start_child("setup", args, workroot, env)
            finish(proc, CHILD_GRACE_S)
            setups.append(setup * 2 * calib.PROBE_REF_S / (before + calib.probe(env)))
        proc, _ = start_child("trace" if args.trace else "run", args, workroot, env)
        finish(proc, args.seconds + CHILD_GRACE_S)
        with open(os.path.join(workroot, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        with open(os.path.join(workroot, "records.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if args.trace:
            shutil.copy(os.path.join(workroot, "spans.tsv"),
                        os.path.join(outdir, f"{tag}.spans.tsv"))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failed, reasons = check_records(jobs, records)
    attempted = len(records)
    correct = failed == 0
    note = ""
    if args.trace:
        metrics, gap = per_layer(result)
        if gap > 1e-6:
            correct = False
            reasons.append(f"span self times miss a job's wall time by {gap:.3g} s")
        units = dict(tracing.METRICS)
    else:
        metrics = end_to_end(reference_walls(result, records), records,
                             result["peak_rss_mb"], setups, failed)
        units = dict(END_TO_END)
        note = (f"wall clock {attempted / result['elapsed_s']:.6g} jobs/s with the "
                f"calibration chunks; host at {calib.factor(result['calib_s']):.3f}"
                f" x the reference speed")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "job_hash": result["job_hash"],
              "python": sys.version.split()[0], "cpus": os.cpu_count(),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  job list {result['job_hash']}")
    if note:
        print(note)
    for why in reasons:
        print(f"FAILED {why}")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} fraction  ({failed}/{attempted})")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
