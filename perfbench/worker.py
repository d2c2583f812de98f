"""One benchmark sample: a fresh process that runs one workload through the CLI.

Invoked by run.py as

    python3 perfbench/worker.py '<job JSON>'

The job names the workload, its inputs, an output directory, the result
path, whether to trace, and the monotonic time at which the parent spawned
this process.  The worker

1. imports ``oampointer.cli`` from the checkout's ``src/`` (set-up time ends here),
2. runs the workload's ``main(...)`` calls, timing wall and CPU time and
   recording every warning they raise,
3. reads its peak resident memory before any checking starts,
4. checks every output against closed forms or recorded references,
5. writes one JSON result file.

A job with ``"setup_only": true`` stops after step 1.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# Fixed work per workload: the field grid is pinned here rather than taken
# from the CLI default, so the amount of work cannot drift with a default.
FIELD_GRID = (-6.0, 6.0, -6.0, 6.0, 241, 241)
SWEEP_AXIS = ("Gamma", 0.0, 30.0, 121)
FIELD_TOL = 1e-6  # oracle.compare's field_tol
SCALAR_REL, SCALAR_ABS = 1e-8, 1e-10  # validate's default tolerances


def _param_flags(params):
    return [f"--{k}={params[k]!r}" for k in ("alpha", "delta", "phi", "gamma")]


def workload_argvs(name, params, outdir):
    """The argument lists passed to ``oampointer.cli.main`` for one sample."""
    if name == "validate":
        return [["validate", "--out", os.path.join(outdir, "validation_report.json")]]
    if name == "figures":
        from oampointer.cli import FIGURES
        return [["figure", "--name", fig, "--outdir", outdir] for fig in FIGURES]
    if name == "oracle-sweep":
        axis, start, stop, steps = SWEEP_AXIS
        return [["sweep", "--engine", "oracle", "--quantity", "Q1", "--axis", axis,
                 f"--start={start!r}", f"--stop={stop!r}", f"--steps={steps}",
                 *_param_flags(params), "--out", os.path.join(outdir, "sweep.csv")]]
    if name == "oracle-field":
        return [["field", "--kind", "wigner", "--engine", "oracle", "--Gamma=1.0",
                 *_param_flags(params), "--grid=" + ",".join(repr(v) for v in FIELD_GRID),
                 "--out", os.path.join(outdir, "field.csv")]]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks: each returns a list of (check name, ok, detail)
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def _close(a, b):
    return abs(a - b) <= max(SCALAR_REL * max(abs(a), abs(b)), SCALAR_ABS)


def observe(name, outdir):
    """Values recorded as references: file digests (figures), summary counts (validate)."""
    if name == "figures":
        out = {}
        for fname in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
        return out
    if name == "validate":
        with open(os.path.join(outdir, "validation_report.json")) as fh:
            summary = json.load(fh)["summary"]
        return {q: [s["pass"], s["fail"], s["undefined"]] for q, s in summary.items()}
    return None


def check_against_reference(name, observed):
    with open(REFERENCE) as fh:
        ref = json.load(fh)[name]
    checks = [(f"{name}: emitted set matches reference", sorted(observed) == sorted(ref),
               f"{len(observed)} emitted, {len(ref)} in reference")]
    for key in sorted(ref):
        got = observed.get(key)
        what = "sha256" if name == "figures" else "pass/fail/undefined"
        checks.append((f"{name}: {what} of {key}", got == ref[key], f"got {got}, want {ref[key]}"))
    return checks


def check_sweep(params, outdir):
    from oampointer.closedform import squeezing
    from oampointer.measurement import MeasurementParams

    header, rows = _read_csv(os.path.join(outdir, "sweep.csv"))
    col = {k: i for i, k in enumerate(header)}
    steps = SWEEP_AXIS[3]
    checks = [("oracle-sweep: row count", len(rows) == steps, f"{len(rows)} rows, want {steps}")]
    for n, row in enumerate(rows):
        p = MeasurementParams(**{k: float(row[col[k]]) for k in
                                 ("Gamma", "alpha", "delta", "phi", "gamma", "sigma")})
        drawn = all(float(row[col[k]]) == params[k] for k in params)
        ok = drawn and row[col["value"]] != ""
        if ok:
            got, want = float(row[col["value"]]), squeezing(p)[0]
            ok = _close(got, want)
            detail = f"Q1 oracle {got!r} vs closed form {want!r}"
        else:
            detail = f"empty value or wrong parameters: {row}"
        checks.append((f"oracle-sweep: row {n} matches closed-form Q1", ok, detail))
    return checks


def check_field(params, outdir):
    import numpy as np

    from oampointer.closedform import wigner_field
    from oampointer.fock import GridSpec
    from oampointer.measurement import MeasurementParams

    grid = GridSpec(*FIELD_GRID)
    _, rows = _read_csv(os.path.join(outdir, "field.csv"))
    xs = ["{:.17g}".format(v) for v in grid.xs()]
    ys = ["{:.17g}".format(v) for v in grid.ys()]
    coords = [[x, y] for x in xs for y in ys]
    coords_ok = [r[:2] for r in rows] == coords
    checks = [("oracle-field: grid coordinates", coords_ok, f"{len(rows)} rows")]
    if coords_ok:
        got = np.array([float(r[2]) for r in rows]).reshape(grid.nx, grid.ny)
        want = wigner_field(MeasurementParams(Gamma=1.0, **params), grid).values
        dev = float(np.abs(got - want).max())
        checks.append(("oracle-field: max deviation from closed form", dev <= FIELD_TOL,
                       f"max |W_oracle - W_closed| = {dev:.3e}"))
    return checks


def check_outputs(name, params, outdir, observed):
    if name in ("figures", "validate"):
        return check_against_reference(name, observed)
    if name == "oracle-sweep":
        return check_sweep(params, outdir)
    return check_field(params, outdir)


# Exact call counts of known workloads; a wrapper that misses a name bound by
# ``from .fock import ...`` in another module undercounts here.
TRACE_CALL_COUNTS = {
    "oracle-sweep": {"fock.displacement_matrix.calls": 242, "measurement.evolve_joint.calls": 121},
    "validate": {"oracle.oracle_wigner.calls": 10},
}


def output_size(outdir):
    """Bytes of every emitted file and data rows of every emitted CSV."""
    nbytes = rows = 0
    for fname in os.listdir(outdir):
        path = os.path.join(outdir, fname)
        nbytes += os.path.getsize(path)
        if fname.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += fh.read().count(b"\n") - 1
    return nbytes, rows


# ---------------------------------------------------------------------------

def run(job):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oampointer.cli as cli
    from oampointer.fock import NormDriftWarning, TruncationWarning

    result = {"setup_s": time.perf_counter() - job["spawned_at"]}
    if job.get("setup_only"):
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                              "blas": f"{blas.get('name')} {blas.get('version')}"}
        return result

    name, params, outdir = job["workload"], job["params"], job["outdir"]
    argvs = workload_argvs(name, params, outdir)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    codes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))  # looked up here so the tracer's wrapper is seen
            except Exception as exc:  # the program failed; record it as a failed check
                codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()

    checks = [(f"{name}: main call {i} ({argv[0]}) exit code", code == 0, f"exit {code!r}")
              for i, (argv, code) in enumerate(zip(argvs, codes))]
    observed = None
    if all(c == 0 for c in codes):
        observed = observe(name, outdir)
        if not job["record"]:
            checks += check_outputs(name, params, outdir, observed)
    if tracer is not None:
        layers = tracer.metrics()
        layers["fock.norm_drift_warnings"] = sum(issubclass(w.category, NormDriftWarning) for w in caught)
        layers["oracle.truncation_warnings"] = sum(issubclass(w.category, TruncationWarning) for w in caught)
        layers["cli.output_bytes"], layers["cli.output_rows"] = output_size(outdir)
        expected = dict(TRACE_CALL_COUNTS.get(name, {}), **{"cli.main.calls": len(argvs)})
        for metric, want in expected.items():
            checks.append((f"tracer: {metric} == {want}", layers[metric] == want, f"got {layers[metric]}"))
        result["layers"] = layers
        result["spans"] = tracer.span_table()
    result["checks"] = checks
    result["observed"] = observed
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    res = run(job)
    with open(job["result"], "w") as fh:
        json.dump(res, fh)
