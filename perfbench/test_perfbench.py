"""Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
from dataclasses import replace

import pytest

import checks
import run as bench
import tracer as tr
from workloads import WORKLOADS

TINY = {
    "predict-sparse": {"n_cells": 60, "dims": [40, 5], "dropout": 0.5},
    "match-assign": {"n_cells": 60, "dims": [20, 10]},
    "embed-eval": {"n_cells": 60, "dims": [40, 10], "n_types": 3,
                   "n_batches": 2},
}


def tiny(name):
    wl = WORKLOADS[name]
    settings = tuple(s for s in wl.settings
                     if not s.startswith("train.max_epochs="))
    return replace(wl, name=f"{name}-tiny", synth={**wl.synth, **TINY[name]},
                   settings=settings + ("train.max_epochs=3",),
                   gene_sets=(3, 4) if wl.gene_sets else None)


def declared(kind):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def prepared(wl, seed=1):
    work = os.path.join(bench.ROOT, ".perfbench", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = bench.child_env(os.path.join(bench.ROOT, "src"))
    return work, env, bench.generate_inputs(wl, seed, work, env)


def test_benchmark_json_matches_the_workloads():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert declared("end_to_end") == dict(bench.END_TO_END)
    assert declared("per_layer") == dict(tr.PER_LAYER_METRICS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name):
    wl = tiny(name)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(wl, seed=3, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared(kind)
        if trace:
            assert result["metrics"]["tasks.epochs"]["value"] == wl.epochs
            assert result["metrics"]["trace.absent_names"]["value"] == 0


def _corrupt_and_count(wl, corrupt):
    work, env, data_dir = prepared(wl)
    runs = bench.timed_set(wl, 1, 0, work, env)
    assert bench.evaluate(wl, runs, data_dir) == 0
    corrupt(runs[1].out_dir)
    for inv in runs:
        inv.problems = []
    return bench.evaluate(wl, runs, data_dir), runs


def test_duplicate_pair_counts_as_failed():
    def duplicate_first_pair(out_dir):
        path = os.path.join(out_dir, "assignment.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([lines[0]] + lines[:-1])

    failed, runs = _corrupt_and_count(tiny("match-assign"),
                                      duplicate_first_pair)
    assert failed == 1
    assert any("paired twice" in p for p in runs[1].problems)


def test_empty_batch_counts_as_failed():
    def drop_first_batch(out_dir):
        data_dir = os.path.join(os.path.dirname(out_dir), "data")
        with open(os.path.join(data_dir, "batches.txt"),
                  encoding="utf-8") as fh:
            batch = [line.strip() for line in fh if line.strip()]
        path = os.path.join(out_dir, "assignment.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line for line in lines
                          if batch[int(line.split()[0])] != batch[0])

    failed, runs = _corrupt_and_count(tiny("match-assign"), drop_first_batch)
    assert failed == 1
    assert any("has 0 pairs" in p for p in runs[1].problems)


def test_partial_assignment_passes_and_report_must_agree():
    work = pathlib.Path(bench.ROOT, ".perfbench", "check-assignment")
    shutil.rmtree(work, ignore_errors=True)
    data, out = work / "data", work / "out"
    data.mkdir(parents=True)
    out.mkdir()
    (data / "batches.txt").write_text("a\na\nb\nb\n")
    (data / "correspondence.txt").write_text("0\n1\n3\n2\n")
    # batch b pairs one of its two cells: partial, as the filter allows
    (out / "assignment.txt").write_text("0\t1\n1\t0\n2\t3\n")
    (out / "report.kv").write_text("score_assignment = 1.000000\n"
                                   "top1_accuracy = 0.250000\n")
    assert checks.check_assignment(out, data) == []
    (out / "report.kv").write_text("score_assignment = 2.000000\n"
                                   "top1_accuracy = 0.500000\n")
    problems = checks.check_assignment(out, data)
    assert len(problems) == 2
    assert all(p.startswith("report.kv:") for p in problems)


def test_nan_prediction_counts_as_failed():
    def nan_entry(out_dir):
        path = os.path.join(out_dir, "predictions.mtx")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        row, col, _ = lines[5].split()
        lines[5] = f"{row} {col} nan\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    failed, runs = _corrupt_and_count(tiny("predict-sparse"), nan_entry)
    assert failed == 1
    assert any("non-finite" in p for p in runs[1].problems)


def test_changed_run_log_counts_as_failed():
    def append_epoch(out_dir):
        with open(os.path.join(out_dir, "run.log"), "a",
                  encoding="utf-8") as fh:
            fh.write("epoch=99 train_loss=0 val=0 lr=0\n")

    failed, runs = _corrupt_and_count(tiny("embed-eval"), append_epoch)
    assert failed == 1
    assert runs[1].problems == ["run.log: differs from the first run of "
                                "the set"]


def test_install_wraps_every_binding_and_reports_absent_names():
    sys.path.insert(0, os.path.join(bench.ROOT, "src"))
    import cellgraph.cli

    tracer = tr.Tracer()
    tr.install(tracer)
    spmm = cellgraph.linalg.spmm
    assert hasattr(spmm, "__wrapped__")
    assert cellgraph.autodiff.spmm is spmm and cellgraph.convnet.spmm is spmm
    assert cellgraph.tasks.matching.solve is cellgraph.assignment.solve
    assert hasattr(cellgraph.tasks.matching.solve, "__wrapped__")
    assert tracer.absent == []
    assert tr.patch("cellgraph.tasks.common", "no_such_function",
                    lambda fn: fn) is False


def test_self_time_subtracts_children():
    spans = [[0, None, "a", 0.0, 10.0, 0, None],
             [1, 0, "b", 1.0, 4.0, 0, None],
             [2, 1, "c", 2.0, 3.0, 0, None]]
    assert tr.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}
