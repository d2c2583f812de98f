"""Command-line front end: parameter sweeps, field exports, validation, figure presets.

Output is data only (CSV plus JSON sidecars); plotting is left to external
tools.  All floats are written with 17 significant digits; how far a
configuration's bytes repeat, by output, is stated in the README's CLI section.

Exit codes: 0 success, 1 usage/config error, a library limit (any ValueError),
an allocation the machine refuses (MemoryError) or an output that cannot be
written (any OSError), 2 validation failure, also a per-point truncation audit
that trips in validate (its cutoff self-check).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import validation
from .fock import GridSpec, NormDriftWarning, TruncationWarning
from .measurement import MeasurementParams, ParamSeries, _require_two_levels

__all__ = ["main"]

_FMT = "%.17g"  # every float written: by % in sweeps, by fieldtext (the same bytes) in fields
_WRITE_BUFFER = 1 << 20  # bytes per write of the streamed validation report

SWEEP_QUANTITIES = ("Q1", "Q2", "g2", "chi", "fidelity", "lambda", "weak_value")
SWEEP_AXES = ("Gamma", "alpha", "gamma", "phi", "delta")
DEFAULT_WHITELIST = ("published:*",)


def _tolerance(text: str) -> float:
    """A validation tolerance: finite and >= 0 (inf passes everything; inf and nan are not JSON)."""
    try:
        if 0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(f"grid must be xmin,xmax,ymin,ymax,nx,ny, got {text!r}")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
        return GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


DEFAULT_GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 241, 241)


SWEEP_HEADER = "axis_value,quantity,value,reason,engine,Gamma,alpha,delta,phi,gamma,sigma"
_PARAM_COLUMNS = SWEEP_HEADER.split(",")[5:]  # MeasurementParams' fields, in order


def _params_from(ns) -> MeasurementParams:
    return MeasurementParams(*(getattr(ns, name) for name in _PARAM_COLUMNS))


def _sweep_rows(quantity, axis, values, base: MeasurementParams, engine, na=None):
    # every point is checked before any evaluation, as the series is made from the axis column
    series = ParamSeries.along(base, axis, values)
    # the parameter cells, formatted once per series; the axis column repeats the axis value
    cells = [_FMT % getattr(base, name) for name in _PARAM_COLUMNS]
    at = _PARAM_COLUMNS.index(axis)
    rows = []
    for v, res in zip(values.tolist(), validation.values(quantity, series, engine, na)):
        if isinstance(res, tuple):
            value, reason = "", res[1]
        elif not math.isfinite(res):
            raise ValueError(f"{quantity} is not finite ({res}) at {axis} = {v:g}, {replace(base, **{axis: v})}")
        else:
            value, reason = _FMT % res, ""
        x = _FMT % v
        cells[at] = x
        rows.append([x, quantity, value, reason, engine, *cells])
    return rows


@contextlib.contextmanager
def _outputs():
    """open() for the files of one output: whatever stops the block removes each file opened through it."""
    opened = []

    def open_(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    try:
        yield open_
    except BaseException:  # so a failed command leaves no partial output; a non-regular path such as /dev/null stays
        for path in filter(os.path.isfile, (os.path.realpath(fh.name) for fh in opened)):  # a link's target
            os.remove(path)
        raise


def _write_rows(path, rows, fmt):
    """Sweep rows under SWEEP_HEADER, as csv lines or as json objects keyed by its columns."""
    if fmt == "csv":
        text = SWEEP_HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    else:  # json: argparse and the config check admit no other format
        keys = SWEEP_HEADER.split(",")
        text = json.dumps([dict(zip(keys, r)) for r in rows], indent=0, sort_keys=True) + "\n"
    with _outputs() as open_, open_(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(ns) -> int:
    if ns.steps < 2:
        raise ValueError(f"steps must be >= 2, got {ns.steps}")
    base = _params_from(ns)
    values = np.linspace(ns.start, ns.stop, ns.steps)
    rows = _sweep_rows(ns.quantity, ns.axis, values, base, ns.engine, na=ns.cutoff)
    _write_rows(ns.out, rows, ns.format)
    print(f"wrote {ns.out} ({len(rows)} rows)")
    return 0


# head, record (\0 stands for x, \1 for y, \2 for the value), separator, tail of a field file; the
# json is json.dumps(rows, indent=0, sort_keys=True), as no %.17g string needs escaping
_FIELD_LAYOUT = {
    "csv": ("x,y_or_p,value\n", "\0,\1,\2", "\n", "\n"),
    "json": ("[\n", '{\n"value": "\2",\n"x": "\0",\n"y_or_p": "\1"\n}', ",\n", "\n]\n"),
}


def _write_field(path, kind, params, grid, engine, na, fmt):
    """Compute one intensity or Wigner field; write its rows and the .meta.json sidecar.

    The rows are streamed in blocks of cells (fieldtext.write_cells), so no more than a block's
    text is held.
    """
    fld = validation.engine_field(kind, params, grid, engine, na)
    bad = np.argwhere(~np.isfinite(fld.values))
    if bad.size:  # refuse before anything is written: no nan rows, no NaN in the sidecar
        raise ValueError(f"{kind} field at Gamma = {params.Gamma:g} is not finite at (x, y) = "
                         f"({grid.xs()[bad[0, 0]]:g}, {grid.ys()[bad[0, 1]]:g}), first of {len(bad)} cells")
    from . import fieldtext  # on first use: commands that write no field neither compile nor load it

    sidecar = {
        "kind": kind,
        "engine": engine,
        "params": vars(params),
        "grid": [grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny],
        "integral": fld.integral(),
        "min": float(fld.values.real.min()),
        "max": float(fld.values.real.max()),
    }
    # both files are opened first, so a failure in either removes both, also an earlier run's sidecar
    with _outputs() as open_, open_(path, "wb") as fh, open_(path + ".meta.json", "w", newline="\n") as side:
        fieldtext.write_cells(fh, _FIELD_LAYOUT[fmt], grid, fld.values)
        json.dump(sidecar, side, indent=2, sort_keys=True)
        side.write("\n")


def cmd_field(ns) -> int:
    _write_field(ns.out, ns.kind, _params_from(ns), ns.grid, ns.engine, ns.cutoff, ns.format)
    print(f"wrote {ns.out} and {ns.out}.meta.json")
    return 0


def cmd_validate(ns) -> int:
    # the default only where the option is absent: an empty --whitelist allows no failure
    whitelist = (DEFAULT_WHITELIST if ns.whitelist is None
                 else tuple(filter(None, (w.strip() for w in ns.whitelist.split(",")))))
    try:  # an unwritable --out fails at open_, before any evaluation
        with _outputs() as open_, open_(ns.out, "w", newline="\n", buffering=_WRITE_BUFFER) as fh:
            # the cutoff check is the per-point truncation audits, raised here whatever a user's filters say
            with warnings.catch_warnings():
                warnings.simplefilter("error", NormDriftWarning)
                warnings.simplefilter("error", TruncationWarning)
                report = validation.compare(
                    validation.validation_params(),
                    abs_tol=ns.abs_tol,
                    rel_tol=ns.rel_tol,
                    na=ns.cutoff,
                    field_params=validation.field_check_points(),
                )
            summary = report.summary()
            fh.writelines(report.json_chunks(summary))  # entry by entry: the report text is never held whole
            fh.write("\n")
    except (NormDriftWarning, TruncationWarning) as exc:
        print(f"cutoff self-check FAILED: {exc}", file=sys.stderr)
        return 2
    for q, s in sorted(summary.items()):
        print(f"  {q:38s} pass={s['pass']:4d} fail={s['fail']:4d} undefined={s['undefined']:4d} "
              f"max|d|={s['max_abs_delta']:.3e}")
    bad = report.failures(whitelist=whitelist)
    if bad:
        print(f"validation FAILED: {len(bad)} non-whitelisted failures (see {ns.out})", file=sys.stderr)
        return 2
    print(f"validation ok; report at {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_W_SMALL = 2 * math.atan(0.132)      # alpha giving weak value 0.132
_W_LARGE = 11 * math.pi / 12         # alpha giving weak value 7.596
_ALPHA_MAIN = 8 * math.pi / 9        # alpha giving weak value 5.671

_STUB_TEXT = (
    "# This preset plots against the radial coordinate r = sqrt(x^2 + y^2) in its\n"
    "# source figure, but none of the closed-form quantities depends on x or y;\n"
    "# the r dependence is not derivable from the available expressions, so no\n"
    "# r sweep is emitted.  A fallback sweep over the superposition weight gamma\n"
    "# accompanies this stub.\n"
)


def _point(Gamma, alpha, phi):
    return MeasurementParams(Gamma=Gamma, alpha=alpha, delta=0.0, phi=phi, gamma=1.0)


# (start, stop, steps) of each figure sweep axis
_FIGURE_AXES = {"alpha": (0.0, 0.95 * math.pi, 191), "Gamma": (0.0, 2.0, 201), "gamma": (0.0, 2.0, 201)}
_GAMMAS = (0.0, 0.3, 1.0)
_ALPHAS = (math.pi / 4, math.pi / 2, _ALPHA_MAIN)
_BY_GAMMA = [(G, _ALPHA_MAIN) for G in _GAMMAS]
_BY_ALPHA = [(0.0, al) for al in _ALPHAS]

# Sweep presets: name -> (quantity, axis, [(Gamma, alpha) of each series]), every
# series at delta = 0, phi = pi/2, gamma = 1; a gamma axis stands in for the
# source figure's radial axis (<name>_fallback_gamma.csv plus the stub).
# Field presets: name -> (kind, {file name: params}).
_FIGURE_PRESETS = {
    "fig2": ("intensity", {
        f"fig2_r{i}c{j}.csv": _point(G, al, 0.0)
        for i, G in enumerate(_GAMMAS, 1) for j, al in enumerate((_W_SMALL, _W_LARGE), 1)
    }),
    "fig3a": ("Q1", "gamma", _BY_GAMMA),
    "fig3b": ("Q1", "alpha", _BY_GAMMA),
    "fig3c": ("Q2", "gamma", _BY_GAMMA),
    "fig3d": ("Q2", "alpha", _BY_GAMMA),
    "fig4a": ("g2", "gamma", _BY_GAMMA),
    "fig4b": ("g2", "alpha", _BY_GAMMA),
    "fig5": ("wigner", {f"fig5_c{i}.csv": _point(G, _ALPHA_MAIN, 0.0) for i, G in enumerate(_GAMMAS, 1)}),
    "fig6a": ("chi", "Gamma", _BY_ALPHA),
    "fig6b": ("chi", "gamma", [(0.2, al) for al in _ALPHAS]),
    "fig6c": ("chi", "gamma", [(G, _ALPHA_MAIN) for G in (0.2, 0.5, 1.0)]),
    "fig7a": ("fidelity", "Gamma", _BY_ALPHA),
    "fig7b": ("fidelity", "alpha", _BY_GAMMA),
}
FIGURES = tuple(_FIGURE_PRESETS)


def cmd_figure(ns) -> int:
    preset = _FIGURE_PRESETS[ns.name]
    os.makedirs(ns.outdir, exist_ok=True)
    if len(preset) == 2:
        kind, fields = preset
        for fname, params in fields.items():
            _write_field(os.path.join(ns.outdir, fname), kind, params, ns.grid, ns.engine, ns.cutoff, "csv")
        written = len(fields)
    else:
        quantity, axis, series = preset
        values = np.linspace(*_FIGURE_AXES[axis])
        rows = [row for G, al in series for row in
                _sweep_rows(quantity, axis, values, _point(G, al, math.pi / 2), ns.engine, na=ns.cutoff)]
        fallback = axis == "gamma"
        _write_rows(os.path.join(ns.outdir, ns.name + ("_fallback_gamma.csv" if fallback else ".csv")), rows, "csv")
        if fallback:
            stub = os.path.join(ns.outdir, ns.name + "_r_axis.stub.txt")
            with _outputs() as open_, open_(stub, "w", newline="\n") as fh:
                fh.write(_STUB_TEXT)
        written = 1 + fallback
    print(f"figure {ns.name}: wrote {written} file(s) under {ns.outdir}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: figure's --outdir must not take --out
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_param_args(p):
    p.add_argument("--Gamma", type=float, default=0.0, help="coupling strength")
    p.add_argument("--alpha", type=float, default=0.0, help="preselection polar angle")
    p.add_argument("--delta", type=float, default=0.0, help="preselection phase")
    p.add_argument("--phi", type=float, default=0.0, help="superposition phase")
    p.add_argument("--gamma", type=float, default=1.0, help="superposition weight")
    p.add_argument("--sigma", type=float, default=1.0, help="beam waist")


_SHARED_OPTIONS = {
    "config": dict(help="flat key=value config file; flags override it"),
    "format": dict(default="csv", choices=("csv", "json")),
    "engine": dict(default="closedform", choices=("closedform", "oracle")),
    "cutoff": dict(type=int, default=None, help="a-mode Fock cutoff override (oracle only)"),
    "grid": dict(type=_parse_grid, default=DEFAULT_GRID, help="xmin,xmax,ymin,ymax,nx,ny"),
}


def _add_shared(p, *names):
    for name in ("config", *names):
        p.add_argument("--" + name, **_SHARED_OPTIONS[name])


@functools.cache
def _build_parser():
    ap = _Parser(prog="oampointer", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep one quantity along one parameter axis")
    p.add_argument("--quantity", required=True, choices=SWEEP_QUANTITIES)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--start", required=True, type=float)
    p.add_argument("--stop", required=True, type=float)
    p.add_argument("--steps", required=True, type=int)
    _add_param_args(p)
    p.add_argument("--out", default="sweep.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff")

    p = sub.add_parser("field", help="export an intensity or Wigner field")
    p.add_argument("--kind", required=True, choices=("intensity", "wigner"))
    _add_param_args(p)
    p.add_argument("--out", default="field.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff", "grid")

    p = sub.add_parser("validate", help="closed-form vs oracle validation run")
    p.add_argument("--abs-tol", dest="abs_tol", type=_tolerance, default=validation.ABS_TOL)
    p.add_argument("--rel-tol", dest="rel_tol", type=_tolerance, default=validation.REL_TOL)
    p.add_argument("--whitelist", default=None,
                   help="comma-separated quantity names (or prefix*) allowed to fail; spaces are ignored")
    p.add_argument("--out", default="validation_report.json", help="output path")
    _add_shared(p, "cutoff")

    p = sub.add_parser("figure", help="emit the data behind one preset figure")
    p.add_argument("--name", required=True, choices=FIGURES)
    p.add_argument("--outdir", default="figures")
    _add_shared(p, "engine", "cutoff", "grid")
    return ap, sub.choices


def _config_argv(commands, argv):
    """argv with the lines of its --config file as flags right after the command, argv[0].

    Each key=value becomes --option=value, so argparse converts and checks the file's values as it
    does typed flags, a required option may come from either, and a flag on the command line wins
    because it is parsed later.  Only a --config after a known command is read; argparse refuses any other.
    """
    path = None
    if argv and argv[0] in commands:
        for arg, following in zip(argv[1:], [*argv[2:], None]):
            if arg == "--config":
                path = following  # None at the end: argparse says that --config needs a value
            elif arg.startswith("--config="):
                path = arg[len("--config="):]
    if path is None:
        return argv
    options = {a.dest: a.option_strings[0] for a in commands[argv[0]]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in options:
                    raise ValueError(f"unknown config key {key!r}")
                flags.append(f"{options[key]}={val}")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return [argv[0], *flags, *argv[1:]]


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(_config_argv(commands, sys.argv[1:] if argv is None else list(argv)))
        if ns.cutoff is not None:
            if getattr(ns, "engine", None) == "closedform":
                raise ValueError("cutoff is an oracle-only option; the closed-form engine has no cutoff")
            _require_two_levels(ns.cutoff)  # before any evaluation, also of closed-form-only quantities
        return globals()["cmd_" + ns.command](ns)  # by name at each call: the parser is built once
    # ValueError: a library limit, e.g. the Gamma ceiling; MemoryError: an array the machine refuses,
    # e.g. of a huge grid or step count; OSError: an output that cannot be written
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
