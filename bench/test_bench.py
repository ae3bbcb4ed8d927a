"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import child  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_one_seed_gives_one_job_list():
    for w in workloads.WORKLOADS:
        a = workloads.make_jobs(w, 7, 40)
        b = workloads.make_jobs(w, 7, 40)
        assert [j.spec() for j in a] == [j.spec() for j in b]
        assert workloads.job_list_hash(a) == workloads.job_list_hash(b)
        assert workloads.job_list_hash(a) != workloads.job_list_hash(
            workloads.make_jobs(w, 8, 40))


def test_every_stratum_is_dealt_each_round():
    for w, strata in workloads.WORKLOADS.items():
        jobs = workloads.make_jobs(w, 3, 2 * len(strata))
        names = sorted(name for name, _ in strata)
        assert sorted(j.stratum for j in jobs[:len(strata)]) == names
        assert sorted(j.stratum for j in jobs[len(strata):]) == names


def test_self_times_on_a_synthetic_span_tree():
    # job 0: root [0, 10] with children a [1, 4] and b [5, 9]; a has a child
    # c [2, 3].  job 1: a lone root [20, 21].
    tr = tracing.Tracer()
    tr.layer = ["cli", "grring.add", "grring.mul", "grring.divexact", "cli"]
    tr.start = [0.0, 1.0, 2.0, 5.0, 20.0]
    tr.end = [10.0, 4.0, 3.0, 9.0, 21.0]
    tr.parent = [-1, 0, 1, 0, -1]
    tr.job = [0, 0, 0, 0, 1]
    own = tracing.self_times(tr.start, tr.end, tr.parent)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    layers, gap = tracing.summarize(tr, budget_exceeded=0)
    assert gap == 0.0
    assert layers["cli.self_s"] == 4.0
    assert layers["grring.add.self_s"] == 2.0 and layers["grring.add.calls"] == 1
    assert layers["grring.divexact.calls"] == 1
    assert tracing.job_walls(tr.start, tr.end, tr.parent, tr.job) == {0: 10.0, 1: 1.0}


def test_tracer_spans_sum_to_wall_and_uninstall_restores(tmp_path):
    import motivic.cli
    import motivic.grring

    original_add = motivic.grring.MotClass.__add__
    original_zeta = motivic.cli.z_of_delta
    jobs = workloads.make_jobs("cones", 1, 6)
    for job in jobs:
        for name, text in job.files.items():
            (tmp_path / name).write_text(text)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert motivic.cli.z_of_delta is not original_zeta
        recs = [child.run_job(job, str(tmp_path),
                              lambda fn, argv, j=j: tr.call_job(j, fn, argv))
                for j, job in enumerate(jobs)]
    finally:
        tr.uninstall()
    assert motivic.grring.MotClass.__add__ is original_add
    assert motivic.cli.z_of_delta is original_zeta
    for job, rec in zip(jobs, recs):  # the oracles call the program too
        assert workloads.check(job, rec["rc"], rec["out"]) is None
    layers, gap = tracing.summarize(tr, 0)
    assert gap < 1e-9
    assert set(layers) | {"trace.overhead_frac"} == set(dict(tracing.METRICS))
    assert len(tracing.job_walls(tr.start, tr.end, tr.parent, tr.job)) == len(jobs)
    assert layers["grring.add.calls"] > 0 and layers["polyhedra.partition.cones"] > 0


def test_corrupted_output_counts_as_failed(tmp_path):
    jobs = workloads.make_jobs("ring", 2, 20)
    records = []
    for i, job in enumerate(jobs):
        for name, text in job.files.items():
            (tmp_path / name).write_text(text)
        rec = child.run_job(job, str(tmp_path))
        rec["index"] = i
        records.append(rec)
    assert run.check_records(jobs, records)[0] == 0
    records[3] = dict(records[3], out=records[3]["out"].replace("L", "L^2", 1) + "1\n")
    records[5] = dict(records[5], rc=1)
    failed, reasons = run.check_records(jobs, records)
    assert failed == 2 and len(reasons) == 2
    metrics = run.end_to_end([r["wall"] for r in records], records, 1.0,
                             [0.1], failed)
    assert metrics["pass_frac"] == 1 - 2 / 20


def test_exact_reader_round_trips_and_takes_limits():
    p = exact.parse("(L^2 - 1)/(L-1) - L^-1", ("L",))
    assert exact.rat_eq(p, ({(1,): 1, (0,): 1, (-1,): -1}, {(0,): 1}))
    assert exact.value_at_one(exact.parse("(L - 1)/(L^3-1)", ("L",))) == exact.Fraction(1, 3)
    poly = {(2, 1): 3, (0, 0): -1, (1, 0): 1}
    assert exact.parse(exact.fmt(poly, ("x", "y")), ("x", "y"))[0] == poly


def test_jet_oracles_agree_on_a_known_case():
    # values the program prints for jets-count on x*y (q=2, n=5) and on
    # y^2 - x^3 (q=3, n=4), and its node Poincare table for q=3
    assert workloads.monomial_jet_count(1, 1, 2, 5) == 256
    assert workloads.cusp_jet_count(2, 3, 3, 4) == 405
    assert workloads._node_series_counts(3, 2) == [5, 17, 53]


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS


def test_calibration_factors_use_the_chunks_around_each_job():
    # chunks before jobs 0, 0, 2, 2, 5, 5; the window of 2 takes the last
    # chunk before the job and the first after it, clamped at the end
    positions = [0, 0, 2, 2, 5, 5]
    samples = [calib.REF_S, calib.REF_S, calib.REF_S / 2, calib.REF_S / 2,
               calib.REF_S / 4, calib.REF_S / 4]
    got = calib.job_factors(7, positions, samples, window=2)
    assert got == pytest.approx([4 / 3, 4 / 3, 8 / 3, 8 / 3, 8 / 3, 4.0, 4.0])
    assert calib.factor([calib.REF_S * 2] * 3) == 0.5
    assert calib.chunk() > 0
