"""Benchmark of the cellgraph command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports cellgraph from the
checkout's ``src`` and from nowhere else. A run

1. writes the workload's inputs from the seed, untimed (a dataset through
   ``generate_synthetic`` + ``save_dataset``, and a gene-set file);
2. runs the CLI as users do, one fresh child process per run, with BLAS and
   OpenMP pinned to one thread. With ``--trace 0`` it repeats the CLI for
   ``--seconds`` (always at least twice, so the set can be compared byte for
   byte) and reports medians of the end-to-end metrics. With ``--trace 1``
   it makes one plain and one traced run and reports the per-layer metrics;
3. checks every run's outputs and counts the runs that fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything it writes
goes under ``.perfbench/<workload>/`` in the checkout, including each run's
log, the recorded environment and the span trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150
MIN_RUNS = 2

# (name, unit); all lower-is-better. quality_loss is val_rmse for predict,
# 1 - top1_accuracy for match and 1 / overall for embed. The quality of a
# seed's inputs is fixed, so its spread over seeds is all a set shows;
# 1 - overall (about 0.37) magnified overall's spread by 1.7 past the
# bound, while 1 / overall has overall's own relative spread and still
# grows by a quarter when overall falls by a fifth. infer_s and eval_s
# are printed but not reported: eval_s exists on embed-eval only, and the
# assignment solver's work depends on the learned embeddings, which makes
# match-assign's infer_s spread across seeds by more than any bound allows;
# the traced run reports both phases as tasks.infer.s and
# cli.metric_suite.s.
END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("total_s", "s"),
              ("peak_rss_mb", "MB"), ("quality_loss", "1")]


@dataclass
class Invocation:
    mode: str  # child.py mode: "cli" or "trace"
    out_dir: str
    returncode: int
    total_s: float
    peak_rss_mb: float
    values: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout(f"child still running after {CHILD_TIMEOUT_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    return env


def spawn(args: list[str], env, log_path) -> tuple[int, float, float, float]:
    """Run child.py ARGS to completion: (exit code, start, seconds, peak
    RSS in MB of that child alone, from its own rusage)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD] + args, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        reaped = False
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.monotonic() - start
            reaped = True
        finally:
            signal.alarm(0)
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, seconds, usage.ru_maxrss / 1024.0


def generate_inputs(wl: Workload, seed: int, work: str, env) -> str:
    """Write WORK/data and WORK/gene_sets.txt; returns the data directory."""
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "synth": wl.synth,
                   "gene_sets": wl.gene_sets}, fh)
    rc, _, _, _ = spawn(["gen", spec_path, work], env,
                        os.path.join(work, "gen.log"))
    if rc != 0:
        raise RuntimeError(f"input generation failed (exit {rc}); see "
                           f"{os.path.join(work, 'gen.log')}")
    return os.path.join(work, "data")


def cli_args(wl: Workload, work: str, out_dir: str, seed: int):
    argv = [wl.command, "--data", os.path.join(work, "data"),
            "--seed", str(seed), "--out", out_dir]
    for setting in wl.settings:
        argv += ["--set", setting]
    if wl.gene_sets:
        argv += ["--set", "predict.gene_sets="
                 + os.path.join(work, "gene_sets.txt")]
    return argv


def quality_loss(wl: Workload, out_dir: str) -> float:
    report = checks.read_kv(os.path.join(out_dir, "report.kv"))
    if wl.command == "predict":
        return float(report["val_rmse"])
    if wl.command == "match":
        return 1.0 - float(report["top1_accuracy"])
    metrics = checks.read_kv(os.path.join(out_dir, "metrics.kv"))
    return 1.0 / float(metrics["overall"])


def run_cli(wl: Workload, seed: int, work: str, env, index: int,
            mode: str = "cli") -> Invocation:
    """One CLI process. The child notes phase boundaries ("cli") or
    records spans ("trace")."""
    tag = f"{mode}{index}"
    out_dir = os.path.join(work, tag)
    record = os.path.join(work, f"{tag}.json")
    try:
        rc, start, total, rss = spawn(
            [mode, record, "--"] + cli_args(wl, work, out_dir, seed),
            env, os.path.join(work, f"{tag}.log"))
    except ChildTimeout as exc:
        return Invocation(mode, out_dir, -1, float("nan"), float("nan"),
                          problems=[str(exc)])
    inv = Invocation(mode, out_dir, rc, total, rss)
    if rc != 0:
        inv.problems.append(f"exit code {rc}; see {tag}.log")
        return inv
    with open(record, encoding="utf-8") as fh:
        data = json.load(fh)
    if mode == "trace":
        inv.trace = data
        return inv
    marks = data["marks"]
    if data["absent"] or "train" not in marks or "infer" not in marks:
        inv.problems.append(f"phase marks missing: {data['absent']}")
        return inv

    def busy(phase):
        return sum(end - begin for begin, end in marks.get(phase, []))

    inv.values = {
        "setup_s": marks["train"][0][0] - start,
        "train_s": busy("train"),
        "infer_s": busy("infer"),
        "total_s": total,
        "peak_rss_mb": rss,
    }
    if "eval" in marks:
        inv.values["eval_s"] = busy("eval")
    return inv


def check_outputs(wl: Workload, inv: Invocation, data_dir: str,
                  reference_dir: str | None) -> list[str]:
    """Every problem with one run's outputs (its exit code is checked when
    it ends)."""
    if inv.returncode != 0:
        return []
    out = inv.out_dir
    try:
        if wl.command == "predict":
            problems = checks.check_predictions(
                out, wl.synth["n_cells"], wl.synth["dims"][1])
        elif wl.command == "match":
            problems = checks.check_assignment(out, data_dir)
        else:
            problems = checks.check_metrics(out)
        if reference_dir is not None:
            problems += checks.check_same_bytes(out, reference_dir)
        quality_loss(wl, out)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def evaluate(wl: Workload, invocations: list[Invocation], data_dir: str):
    """Check each run against the first full one; returns how many
    failed."""
    reference = invocations[0].out_dir
    for inv in invocations:
        ref = None if inv.out_dir == reference else reference
        inv.problems += check_outputs(wl, inv, data_dir, ref)
        if not inv.problems:
            inv.values["quality_loss"] = quality_loss(wl, inv.out_dir)
    return sum(1 for inv in invocations if inv.problems)


def timed_set(wl: Workload, seed: int, seconds: float, work: str,
              env) -> list[Invocation]:
    """Repeat the CLI until the next run would overrun `seconds`."""
    begin = time.monotonic()
    runs: list[Invocation] = []
    while len(runs) < MIN_RUNS or (time.monotonic() - begin
                                   + max(r.total_s for r in runs) <= seconds):
        runs.append(run_cli(wl, seed, work, env, len(runs)))
        if runs[-1].problems:
            break
    return runs


def samples(invocations: list[Invocation]) -> dict[str, list[float]]:
    """Each metric's values over the runs that passed their checks."""
    out: dict[str, list[float]] = {}
    for inv in invocations:
        if not inv.problems:
            for name, value in inv.values.items():
                out.setdefault(name, []).append(value)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record_environment(work: str, env, load_before, load_after) -> dict:
    with open(os.path.join(work, "numpy.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    info.update({
        "python": platform.python_version(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    })
    with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    return info


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one set and return the result object (printed as JSON by main)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cellgraph", "cli.py")):
        raise FileNotFoundError(f"no cellgraph sources under {src}")
    work = os.path.join(ROOT, ".perfbench", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(src)
    data_dir = generate_inputs(wl, seed, work, env)

    load_before = os.getloadavg()
    if trace:
        runs = [run_cli(wl, seed, work, env, 0),
                run_cli(wl, seed, work, env, 1, "trace")]
    else:
        runs = timed_set(wl, seed, seconds, work, env)
    failed = evaluate(wl, runs, data_dir)
    info = record_environment(work, env, load_before, os.getloadavg())

    print(f"{wl.name} seed {seed}: {len(runs)} runs, {failed} failed "
          f"(failed_frac {failed / len(runs):.3f})")
    for i, inv in enumerate(runs):
        for problem in inv.problems:
            print(f"  run {i}: FAILED {problem}")
    print(f"  env: numpy {info['numpy']}, {info['blas']}, "
          f"threads=1, nproc {info['nproc']}, {info['cpu']}, load "
          f"{load_before[0]:.2f} -> {info['loadavg_after'][0]:.2f}")
    if trace:
        metrics = trace_metrics(runs)
    else:
        values = samples(runs)
        for name, vals in values.items():
            print(f"  {name:<13} {statistics.median(vals):12.4f}  (median "
                  f"of {len(vals)}: {' '.join(f'{v:.4f}' for v in vals)})")
        metrics = {name: {"value": statistics.median(values[name]),
                          "unit": unit}
                   for name, unit in END_TO_END if name in values}
    return {"correct": failed == 0, "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def trace_metrics(runs: list[Invocation]) -> dict:
    plain, traced = runs
    if traced.trace is None or plain.problems:
        return {}
    layers = tr.layer_metrics(traced.trace, traced.total_s, plain.total_s)
    print("  largest self times (traced run):")
    for name, seconds in tr.top_self_times(traced.trace):
        print(f"    {name:<34} {seconds:9.3f} s")
    for name in traced.trace["absent"]:
        print(f"  absent from the package: {name}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except (FileNotFoundError, RuntimeError, ChildTimeout) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
