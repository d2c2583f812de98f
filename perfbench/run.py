"""End-to-end and per-layer benchmark of the oampointer CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --record-reference

Every sample is a fresh process (perfbench/worker.py) that imports the package
from ``src/`` and calls ``oampointer.cli.main`` serially, with no
``--workers``.  Samples run one after another until ``--seconds`` of samples
have been measured.  Before them, a few import-only processes measure set-up
time; the first of these also compiles bytecode in a fresh checkout and is
discarded.

End-to-end metrics (``--trace 0``; median over samples):
  wall_s       wall time of the workload's main(...) calls, set-up excluded
  cpu_s        user + system CPU time of the worker during those calls
  setup_s      from spawning the worker until ``import oampointer.cli`` is done
  peak_rss_mb  ru_maxrss of the worker, read before the output checks (MiB)
failed_frac (failed output checks / checks attempted; a non-zero exit code of
main is a failed check) is printed with them and carried by the ``attempted``
and ``failed`` fields of the result line.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of perfbench/tracer.py (median over traced samples) plus
``trace.overhead_s``: median traced wall_s minus median untraced wall_s.

Workloads (why each was chosen is in BENCHMARK.json):
  validate      ``validate`` with defaults; fixed preset, ignores the seed
  figures       all 13 ``figure`` presets, closed-form engine, default grid;
                fixed preset, ignores the seed
  oracle-sweep  ``sweep --engine oracle --quantity Q1 --axis Gamma`` over
                [0, 30] in 121 steps
  oracle-field  ``field --kind wigner --engine oracle --Gamma 1`` on 241x241
The two oracle workloads draw alpha, delta, phi and gamma from the seed; the
Gamma axis, Gamma = 1 and the grid are fixed, so their work does not depend
on the seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units of the result line
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("validate", "figures", "oracle-sweep", "oracle-field")
SEEDED = ("oracle-sweep", "oracle-field")
SETUP_PROCESSES = 4  # import-only processes per run; the first is discarded
WORKER_TIMEOUT_S = 120  # a hung worker ends the run with an error instead of stalling it

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def draw_params(workload, seed):
    """Inputs of the seeded workloads: the pointer and preselection parameters."""
    if workload not in SEEDED:
        return {}
    rng = random.Random(seed)
    return {
        "alpha": rng.uniform(0.0, 0.95 * math.pi),
        "delta": rng.uniform(0.0, 2 * math.pi),
        "phi": 2 * math.pi * rng.random(),
        "gamma": rng.uniform(0.0, 2.0),
    }


def spawn(job):
    """Run one worker process to completion and return its result."""
    result_path = os.path.join(WORKDIR, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    job = dict(job, result=result_path, spawned_at=time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        return json.load(fh)


def sample(workload, params, trace, record=False):
    outdir = os.path.join(WORKDIR, "out")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    return spawn({"workload": workload, "params": params, "outdir": outdir,
                  "trace": trace, "record": record})


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(workload, seed, seconds, trace, params, versions):
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload in SEEDED,
        "inputs": params,
        "run_seconds": seconds,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem_kb.split()[0]) / 1024 if mem_kb else None,
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(spec, workload, seed, seconds, trace):
    params = draw_params(workload, seed)
    imports = [spawn({"setup_only": True}) for _ in range(SETUP_PROCESSES)]
    setup = [r["setup_s"] for r in imports[1:]]
    versions = imports[-1]["versions"]
    print("manifest " + json.dumps(manifest(workload, seed, seconds, trace, params, versions),
                                   sort_keys=True))

    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds or (trace and not traced):
        is_traced = bool(trace) and len(plain) > len(traced)
        r = sample(workload, params, is_traced)
        (traced if is_traced else plain).append(r)
        setup.append(r["setup_s"])
    shutil.rmtree(os.path.join(WORKDIR, "out"), ignore_errors=True)

    checks = [c for r in plain + traced for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    e2e = {m["name"]: setup if m["name"] == "setup_s" else [r[m["name"]] for r in plain]
           for m in spec["end_to_end"]}
    print(f"workload {workload}: {len(plain)} untraced + {len(traced)} traced samples, "
          f"{len(setup)} set-up samples")
    for m in spec["end_to_end"]:
        vals = e2e[m["name"]]
        lo, hi = _quartiles(vals)
        print(f"  {m['name']:12s} {statistics.median(vals):10.4f} {m['unit']:5s} "
              f"(n={len(vals)}, IQR {lo:.4f}..{hi:.4f})")
    print(f"  {'failed_frac':12s} {len(failed) / len(checks):10.4f} {'1':5s} "
          f"({len(failed)} of {len(checks)} checks failed)")
    for name, _, detail in failed[:20]:
        print(f"  FAILED {name}: {detail}")

    if trace:
        metrics = _layer_metrics(spec["per_layer"], traced, plain)
    else:
        metrics = {m["name"]: {"value": statistics.median(e2e[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}


def _layer_metrics(per_layer, traced, plain):
    median = statistics.median
    values = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}
    print("  per-layer (median over traced samples):")
    for name in sorted(metrics):
        print(f"    {name:44s} {metrics[name]['value']:14.6g} {metrics[name]['unit']}")
    # the dominant cost: the largest self time of one function, with the cli
    # layer taken as a whole (main minus its calls into the other layers)
    spans = traced[0]["spans"]
    self_s = {span: v[2] for span, v in spans.items() if not span.startswith("cli.")}
    self_s["cli.self_s"] = traced[0]["layers"]["cli.self_s"]
    top = max(self_s, key=self_s.get)
    print(f"  dominant: {top} self {self_s[top]:.4f} s "
          f"({100 * self_s[top] / traced[0]['wall_s']:.0f}% of traced wall_s)")
    return metrics


def record_reference():
    """Write perfbench/reference.json from one untraced run of each fixed workload."""
    ref = {name: sample(name, {}, False, record=True)["observed"] for name in ("figures", "validate")}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="record figure digests and validate counts as the reference")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oampointer", "cli.py")):
        print(f"error: no oampointer sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.record_reference:
            record_reference()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(spec, name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
