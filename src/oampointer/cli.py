"""Command-line front end: parameter sweeps, field exports, validation, figure presets.

Output is data only (CSV plus JSON sidecars); plotting is left to external
tools.  All floats are written with 17 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 usage/config error, a library limit (any ValueError)
or an output that cannot be written (any OSError), 2 validation failure, also
a per-point truncation audit that trips in validate (its cutoff self-check).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import closedform as cf
from . import oracle as orc
from .fock import GridSpec, NormDriftWarning, TruncationWarning
from .measurement import MeasurementParams, _require_two_levels, weak_value

__all__ = ["main"]

_FMT = "%.17g"  # every float written; a field's values fill one per-grid row template of it, one % per row
_WRITE_BUFFER = 1 << 20  # bytes per write of a streamed file (field rows, report entries)

SWEEP_QUANTITIES = ("Q1", "Q2", "g2", "chi", "fidelity", "lambda", "weak_value")
SWEEP_AXES = ("Gamma", "alpha", "gamma", "phi", "delta")
DEFAULT_WHITELIST = ("published:*", "chi[x2=operator]")


class ConfigError(Exception):
    pass


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


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
        raise ConfigError(f"grid must be xmin,xmax,ymin,ymax,nx,ny, got {text!r}")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
        return GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


DEFAULT_GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 241, 241)


def _params_from(ns) -> MeasurementParams:
    return MeasurementParams(
        Gamma=ns.Gamma, alpha=ns.alpha, delta=ns.delta,
        phi=ns.phi, gamma=ns.gamma, sigma=ns.sigma,
    )


SWEEP_HEADER = "axis_value,quantity,value,reason,engine,Gamma,alpha,delta,phi,gamma,sigma"
_PARAM_COLUMNS = SWEEP_HEADER.split(",")[5:]


def _sweep_values(quantity, points, engine, na=None):
    """The quantity at each point, (None, reason) where it is undefined: the closed forms in one
    evaluation over the series, the oracle one point at a time as the rows are made, in one run
    that evolves each distinct pointer once and derives only this quantity."""
    if quantity == "weak_value":  # fixed by the preselection alone: no engine computes it
        return (weak_value(p.alpha, p.delta).value.real for p in points)
    if engine == "oracle":
        run = orc._OracleRun(na)
        return (run.quantities(p, (quantity,))[quantity] for p in points)
    return orc.closed_value(quantity, cf.ParamSeries.of(points))


def _sweep_rows(quantity, axis, values, base: MeasurementParams, engine, na=None):
    # every point first: an axis value outside the legal domain fails before any evaluation
    points = [replace(base, **{axis: float(v)}) for v in values]
    # the parameter cells, formatted once per series; the axis column repeats the axis value
    cells = [_FMT % getattr(base, name) for name in _PARAM_COLUMNS]
    at = _PARAM_COLUMNS.index(axis)
    rows = []
    for v, p, res in zip(values, points, _sweep_values(quantity, points, engine, na)):
        if isinstance(res, tuple):
            value, reason = "", res[1]
        elif not math.isfinite(res):
            raise ValueError(f"{quantity} is not finite ({res}) at {axis} = {v:g}, {p}")
        else:
            value, reason = _FMT % res, ""
        x = _FMT % v
        cells[at] = x
        rows.append([x, quantity, value, reason, engine, *cells])
    return rows


def _write_rows(path, rows, fmt):
    """Sweep rows under SWEEP_HEADER, as csv lines or as json objects keyed by its columns."""
    if fmt == "csv":
        text = SWEEP_HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    else:  # json: argparse and the config check admit no other format
        keys = SWEEP_HEADER.split(",")
        text = json.dumps([dict(zip(keys, r)) for r in rows], indent=0, sort_keys=True) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(ns) -> int:
    if None in (ns.quantity, ns.axis, ns.start, ns.stop, ns.steps):
        raise ConfigError("sweep needs quantity, axis, start, stop and steps (flags or config)")
    if ns.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {ns.steps}")
    base = _params_from(ns)
    values = np.linspace(ns.start, ns.stop, ns.steps)
    rows = _sweep_rows(ns.quantity, ns.axis, values, base, ns.engine, na=ns.cutoff)
    _write_rows(ns.out, rows, ns.format)
    print(f"wrote {ns.out} ({len(rows)} rows)")
    return 0


# head, row (\0 stands for x, \1 for y), separator, tail of a field file; the json
# is json.dumps(rows, indent=0, sort_keys=True), as no %.17g string needs escaping
_FIELD_LAYOUT = {
    "csv": ("x,y_or_p,value\n", "\0,\1," + _FMT, "\n", "\n"),
    "json": ("[\n", '{\n"value": "' + _FMT + '",\n"x": "\0",\n"y_or_p": "\1"\n}', ",\n", "\n]\n"),
}


def _write_field(path, kind, params, grid, engine, na, fmt):
    """Compute one intensity or Wigner field; write its rows and the .meta.json sidecar.

    The rows are streamed: one % per x-row fills a template of the y cells formatted once per
    grid, so no more than one row's text is held, and the writes go out in _WRITE_BUFFER blocks.
    """
    if engine == "closedform":
        fld = (cf.intensity_field if kind == "intensity" else cf.wigner_field)(params, grid)
    else:
        psi = orc.oracle_states(params, na)[2]
        fld = (orc.oracle_intensity if kind == "intensity" else orc.oracle_wigner)(psi, grid)
    bad = np.argwhere(~np.isfinite(fld.values))
    if bad.size:  # refuse before anything is written: no nan rows, no NaN in the sidecar
        raise ValueError(f"{kind} field at Gamma = {params.Gamma:g} is not finite at (x, y) = "
                         f"({grid.xs()[bad[0, 0]]:g}, {grid.ys()[bad[0, 1]]:g}), first of {len(bad)} cells")
    # x-major rows: a template of one row's formatted y cells, given its x and filled by one % per row
    head, row, sep, tail = _FIELD_LAYOUT[fmt]
    line = sep.join(row.replace("\1", _FMT % y) for y in grid.ys().tolist())
    with open(path, "w", newline="\n", buffering=_WRITE_BUFFER) as fh:
        for i, (x, values) in enumerate(zip(grid.xs().tolist(), fld.values)):
            fh.write(sep if i else head)
            fh.write(line.replace("\0", _FMT % x) % tuple(values.tolist()))
        fh.write(tail)
    sidecar = {
        "kind": kind,
        "engine": engine,
        "params": vars(params),
        "grid": [grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx, grid.ny],
        "integral": fld.integral(),
        "min": float(fld.values.real.min()),
        "max": float(fld.values.real.max()),
    }
    with open(path + ".meta.json", "w", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_field(ns) -> int:
    if ns.kind is None:
        raise ConfigError("field needs kind (flag or config)")
    _write_field(ns.out, ns.kind, _params_from(ns), ns.grid, ns.engine, ns.cutoff, ns.format)
    print(f"wrote {ns.out} and {ns.out}.meta.json")
    return 0


def _field_check_points():
    """Ten varied points for the field cross-validation."""
    return [
        MeasurementParams(Gamma=1.0, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0),
        MeasurementParams(Gamma=0.0, alpha=0.0, delta=0.0, phi=0.0, gamma=0.0),
        MeasurementParams(Gamma=0.0, alpha=2.0, delta=0.0, phi=math.pi / 2, gamma=1.0),
        MeasurementParams(Gamma=0.3, alpha=8 * math.pi / 9, delta=0.0, phi=0.0, gamma=1.0),
        MeasurementParams(Gamma=0.5, alpha=math.pi / 2, delta=math.pi / 2, phi=math.pi / 2, gamma=1.0),
        MeasurementParams(Gamma=1.0, alpha=11 * math.pi / 12, delta=0.0, phi=0.0, gamma=1.0),
        MeasurementParams(Gamma=1.5, alpha=2.0, delta=0.0, phi=1.0, gamma=2.0),
        MeasurementParams(Gamma=2.0, alpha=0.5, delta=math.pi / 2, phi=0.0, gamma=0.5),
        MeasurementParams(Gamma=0.7, alpha=2.2, delta=0.0, phi=math.pi / 2, gamma=1.3),
        MeasurementParams(Gamma=1.0, alpha=0.0, delta=0.0, phi=0.0, gamma=1.0),
    ]


def cmd_validate(ns) -> int:
    # the default only where the option is absent: an empty --whitelist allows no failure
    whitelist = (DEFAULT_WHITELIST if ns.whitelist is None
                 else tuple(filter(None, (w.strip() for w in ns.whitelist.split(",")))))
    params_set = orc.validation_params()
    # an unwritable --out fails here, before any evaluation
    fh = open(ns.out, "w", newline="\n", buffering=_WRITE_BUFFER)
    written = False
    try:
        with fh:
            # the cutoff check is the per-point truncation audits, raised here whatever a user's filters say
            with warnings.catch_warnings():
                warnings.simplefilter("error", NormDriftWarning)
                warnings.simplefilter("error", TruncationWarning)
                report = orc.compare(
                    params_set,
                    abs_tol=ns.abs_tol,
                    rel_tol=ns.rel_tol,
                    na=ns.cutoff,
                    field_params=_field_check_points(),
                )
            summary = report.summary()
            fh.writelines(report.json_chunks(summary))  # entry by entry: the report text is never held whole
            fh.write("\n")
        written = True
    except (NormDriftWarning, TruncationWarning) as exc:
        print(f"cutoff self-check FAILED: {exc}", file=sys.stderr)
        return 2
    finally:
        if not written and os.path.isfile(ns.out):  # no empty or partial report after a failure; /dev/null stays
            os.remove(ns.out)
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
    if ns.name is None:
        raise ConfigError("figure needs name (flag or config)")
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
            with open(os.path.join(ns.outdir, ns.name + "_r_axis.stub.txt"), "w", newline="\n") as fh:
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
        raise ConfigError(message)


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


def _build_parser():
    ap = _Parser(prog="oampointer", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep one quantity along one parameter axis")
    p.add_argument("--quantity", default=None, choices=SWEEP_QUANTITIES)
    p.add_argument("--axis", default=None, choices=SWEEP_AXES)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_param_args(p)
    p.add_argument("--out", default="sweep.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("field", help="export an intensity or Wigner field")
    p.add_argument("--kind", default=None, choices=("intensity", "wigner"))
    _add_param_args(p)
    p.add_argument("--out", default="field.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff", "grid")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("validate", help="closed-form vs oracle validation run")
    p.add_argument("--abs-tol", dest="abs_tol", type=_tolerance, default=orc.ABS_TOL)
    p.add_argument("--rel-tol", dest="rel_tol", type=_tolerance, default=orc.REL_TOL)
    p.add_argument("--whitelist", default=None,
                   help="comma-separated quantity names (or prefix*) allowed to fail; spaces are ignored")
    p.add_argument("--out", default="validation_report.json", help="output path")
    _add_shared(p, "cutoff")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figure", help="emit the data behind one preset figure")
    p.add_argument("--name", default=None, choices=FIGURES)
    p.add_argument("--outdir", default="figures")
    _add_shared(p, "engine", "cutoff", "grid")
    p.set_defaults(func=cmd_figure)
    return ap, sub.choices


def _config_argv(commands, argv, ns):
    """argv again with the config file's lines as flags right after the command.

    Each key=value becomes --option=value, so argparse converts and checks the
    file's values as it does typed flags, and a flag on the command line wins
    because it is parsed later.
    """
    conf = _read_config(ns.config)
    options = {a.dest: a.option_strings[0] for a in commands[ns.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key in conf:
        if key not in options:
            raise ConfigError(f"unknown config key {key!r}")
    return [ns.command, *(f"{options[k]}={v}" for k, v in conf.items()), *argv[argv.index(ns.command) + 1:]]


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        ns = parser.parse_args(argv)
        if ns.config:
            ns = parser.parse_args(_config_argv(commands, argv, ns))
        if ns.cutoff is not None:
            if getattr(ns, "engine", None) == "closedform":
                raise ConfigError("cutoff is an oracle-only option; the closed-form engine has no cutoff")
            _require_two_levels(ns.cutoff)  # before any evaluation, also of closed-form-only quantities
        return ns.func(ns)
    # ValueError: a library limit, e.g. the Gamma ceiling; OSError: an output that cannot be written
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
