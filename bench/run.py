"""Benchmark of walgebra: one workload per construction of the paper.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of wspace, straighten, brst, sweep, or ``all``, which runs each
workload untraced and traced in turn, one subprocess at a time.

Load shape: a closed loop with one client.  Every computation in walgebra
is single-threaded pure Python, and its user is one researcher running one
computation after another, so the benchmark runs one operation at a time
and repeats the workload's whole job list until --seconds have been
measured.  Each operation gets a fresh context built outside the timed
span; set-up cost is measured on its own in fresh interpreters (setup_s).
The timed calls go to public walgebra functions only.

Times are reported in reference seconds.  On a shared host the CPU speed
drifts by up to 2x within seconds, so while a timed call runs the benchmark
samples the CPU speed with a short fixed burst of pure-Python work every
SAMPLE_EVERY_S (see calibrate.py), takes the bursts' time out of the
measurement and scales each pass by the mean sampled speed.  The set-up
probes sample their own speed the same way.  The raw seconds are printed
next to each figure and kept in the result file.

Every output is checked by an independent certificate outside the timed
span: in full on the first pass over the job list, and by digest equality
with that certified output on later passes.  Digests are also compared with
bench/digests.json to count outputs that changed since they were recorded.

With --trace 1 the passes alternate between untraced and traced, and the
traced passes wrap the public functions of every walgebra module (see
tracer.py) to give the per-layer metrics.  Their spans read a clock that
stands still during the speed-sampling bursts, and their times are scaled
to reference seconds by the pass's sampled speed like the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.  A full record of the run goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 11
SAMPLE_EVERY_S = 0.05  # speed sampling interval of the timed passes

if not (ROOT / "src" / "walgebra" / "__init__.py").is_file():
    sys.exit(f"walgebra sources not found under {ROOT / 'src'}")

import tracer  # noqa: E402
from calibrate import BURST_REF_S, SpeedSampler  # noqa: E402
import workloads  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def median(values: list):
    """Median that keeps whole-number counts whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "run_seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "platform": platform.platform(), "burst_ref_s": BURST_REF_S}


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Raw and reference seconds of one cold set-up in a fresh interpreter.

    The probe samples its CPU speed and reports it with the seconds its
    samples took.  The wait blocks in waitpid: a wait with a timeout polls
    in steps of up to 50 ms, which would round the time up to that step."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                           workload, str(seed)], check=True,
                          stdout=subprocess.PIPE, text=True)
    raw = perf_counter() - t0
    speed, spent = map(float, proc.stdout.split()[-2:])
    return raw - spent, (raw - spent) * speed


class Runner:
    """Closed loop over one workload's job list."""

    def __init__(self, jobs: list, reference: dict):
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.certified: dict[str, str] = {}  # key -> digest of first output
        self.overhead_s = 0.0  # certificates
        self.job_wall_s: dict[str, list[float]] = {}  # untraced, raw

    def _check(self, job, state, out) -> bool:
        t0 = perf_counter()
        try:
            d = workloads.digest(job.canonical(out))
            if self.certified.get(job.key) == d:
                return True
            ok = bool(job.certify(state, out))
            if ok and job.key not in self.certified:
                self.certified[job.key] = d
            return ok
        except Exception:
            traceback.print_exc()
            return False
        finally:
            self.overhead_s += perf_counter() - t0

    def one_pass(self, trace: tracer.Tracer | None = None) -> dict:
        """Run every job once; wall and CPU time of the timed calls, raw
        and in reference seconds, and the sampled speed."""
        times = dict.fromkeys(("wall", "cpu"), 0.0)
        sampler = SpeedSampler(SAMPLE_EVERY_S)
        if trace is not None:
            trace.clock = sampler.clock
        with sampler:
            for job in self.jobs:
                state = out = None  # drop the previous job's context first
                gc.collect()
                state = job.prepare()
                self.attempted += 1
                spent = sampler.spent
                try:
                    with trace or nullcontext(), sampler.measuring():
                        t0, c0 = perf_counter(), process_time()
                        out = job.run(state)
                        dt, dc = perf_counter() - t0, process_time() - c0
                except Exception:
                    traceback.print_exc()
                    self.failed += 1
                    continue
                spent = sampler.spent - spent
                times["wall"] += dt - spent
                times["cpu"] += dc - spent
                if trace is None:
                    self.job_wall_s.setdefault(job.key, []).append(dt - spent)
                if not self._check(job, state, out):
                    print(f"certificate failed: {job.key}", file=sys.stderr)
                    self.failed += 1
        speed = sampler.speed()
        times.update(wall_ref=times["wall"] * speed,
                     cpu_ref=times["cpu"] * speed, speed=speed,
                     samples=len(sampler.speeds))
        return times

    def outputs_changed(self) -> int:
        return sum(1 for key, d in self.certified.items()
                   if self.reference.get(key) != d) + \
            sum(1 for job in self.jobs if job.key not in self.certified)


def run_workload(args, spec: dict) -> dict:
    jobs = workloads.make_jobs(args.workload, args.seed)
    reference = json.loads((BENCH / "digests.json").read_text())
    runner = Runner(jobs, reference)
    trace = tracer.Tracer() if args.trace else None

    passes, traced, layer_runs, setup = [], [], [], []
    start = perf_counter()
    probe_s = 0.0
    while True:
        # Set-up probes are spread over the run, two before each pass, so
        # that their median sees the same machine as the passes do.
        t0 = perf_counter()
        setup += [measure_setup(args.workload, args.seed) for _ in range(2)]
        probe_s += perf_counter() - t0
        passes.append(runner.one_pass())
        if trace is not None:
            trace.reset()
            traced.append(runner.one_pass(trace))
            speed = traced[-1]["speed"]
            layer = {name: value * speed if name.endswith("_s") else value
                     for name, value in
                     trace.layer_metrics(traced[-1]["wall"]).items()}
            layer["bench.calls"] = len(jobs)
            layer_runs.append(layer)
        # Stop before a pass that would end past the deadline; probes and
        # certificates are not measurement time.
        measured = perf_counter() - start - runner.overhead_s - probe_s
        if measured * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args.workload, args.seed))

    def column(rows, key):
        return [row[key] for row in rows]

    e2e = {"wall_s": quartiles(column(passes, "wall_ref")),
           "cpu_s": quartiles(column(passes, "cpu_ref")),
           "setup_s": quartiles([ref for _, ref in setup]),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024,
           "fail_ratio": runner.failed / runner.attempted,
           "outputs_changed": runner.outputs_changed()}
    raw = {"wall_s": quartiles(column(passes, "wall")),
           "cpu_s": quartiles(column(passes, "cpu")),
           "setup_s": quartiles([r for r, _ in setup])}
    record = {"machine": machine_info(args),
              "why": next(w["why"] for w in spec["workloads"]
                          if w["name"] == args.workload),
              "jobs": [job.key for job in jobs],
              "digests": runner.certified,
              "attempted": runner.attempted, "failed": runner.failed,
              "end_to_end": e2e, "raw_seconds": raw,
              "passes": passes, "setup_probes": setup,
              "job_wall_s": runner.job_wall_s}
    if trace is not None:
        layer = {name: median(column(layer_runs, name))
                 for name in layer_runs[0]}
        layer["trace.wall_s"] = statistics.median(column(traced, "wall_ref"))
        layer["trace.overhead_s"] = (layer["trace.wall_s"]
                                     - e2e["wall_s"]["median"])
        record["per_layer"] = layer
        record["traced_passes"] = traced
    return record


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


def report(record: dict, spec: dict) -> dict:
    """Print the run's metrics and return the result line."""
    m = record["machine"]
    print(f"# {m['workload']} seed={m['seed']} trace={m['trace']} "
          f"commit={m['git_commit'][:12]} python={m['python']} "
          f"nproc={m['nproc']} cpu={m['cpu_model']}")
    print(f"# why: {record['why']}")
    units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    units.update(fail_ratio="failed/attempted", outputs_changed="count")
    for name, value in record["end_to_end"].items():
        if not isinstance(value, dict):
            print(f"{m['workload']} {name} {value} {units[name]}")
            continue
        line = (f"{m['workload']} {name} {value['median']:.6f} {units[name]}"
                f" (median; q1 {value['q1']:.6f}, q3 {value['q3']:.6f},"
                f" samples {value['samples']}")
        print(line + f"; at reference speed, raw median "
              f"{record['raw_seconds'][name]['median']:.6f})")
    if m["trace"]:
        for name, value in record["per_layer"].items():
            print(f"{m['workload']} {name} {value} {layer_unit(name)}")
    kind = "per_layer" if m["trace"] else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        if m["trace"]:
            value = record["per_layer"][entry["name"]]
        else:
            value = record["end_to_end"][entry["name"]]
            if isinstance(value, dict):
                value = value["median"]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def write_result(record: dict, name: str):
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True))


def run_all(args) -> dict:
    """Every workload, untraced then traced, one subprocess at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = value
    write_result({"machine": machine_info(args), **total},
                 f"all-seed{args.seed}.json")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args, spec)
        write_result(record, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
        result = report(record, spec)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
