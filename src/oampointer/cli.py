"""Command-line front end: parameter sweeps, field exports, validation, figure presets.

Output is data only (CSV plus JSON sidecars); plotting is left to external
tools.  All floats are written with 17 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 usage/config error or a library limit (any ValueError),
2 validation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import closedform as cf
from . import oracle as orc
from .fock import GridSpec, default_cutoff
from .measurement import MeasurementParams

__all__ = ["main"]

_FMT = "{:.17g}"

SWEEP_QUANTITIES = ("Q1", "Q2", "g2", "chi", "fidelity", "lambda", "weak_value")
SWEEP_AXES = ("Gamma", "alpha", "gamma", "phi", "delta")
FIGURES = (
    "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b",
    "fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b",
)
DEFAULT_WHITELIST = ("published:*", "chi[x2=operator]")


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return _FMT.format(float(x))


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


def _evaluate(quantity: str, params: MeasurementParams, engine: str, na=None):
    """One scalar in the requested engine; (None, reason) when undefined."""
    q = orc.SCALAR_QUANTITIES[quantity]
    if engine == "oracle" and q.oracle is not None:
        return q.oracle(orc.oracle_quantities(params, na=na))
    return q.closed_value(params)


def _sweep_rows(quantity, axis, values, base: MeasurementParams, engine, na=None):
    def one(v):
        p = replace(base, **{axis: float(v)})
        res = _evaluate(quantity, p, engine, na=na)
        if isinstance(res, tuple):
            value, reason = "", res[1]
        else:
            value, reason = _fmt(res), ""
        return [
            _fmt(v), quantity, value, reason, engine,
            _fmt(p.Gamma), _fmt(p.alpha), _fmt(p.delta), _fmt(p.phi), _fmt(p.gamma), _fmt(p.sigma),
        ]

    return [one(v) for v in values]


SWEEP_HEADER = "axis_value,quantity,value,reason,engine,Gamma,alpha,delta,phi,gamma,sigma"


def _write_rows(path, header, rows, fmt):
    if fmt == "csv":
        text = header + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    elif fmt == "json":
        keys = header.split(",")
        text = json.dumps([dict(zip(keys, r)) for r in rows], indent=0, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(ns) -> int:
    if ns.quantity not in SWEEP_QUANTITIES:
        raise ConfigError(f"quantity must be one of {SWEEP_QUANTITIES}, got {ns.quantity!r}")
    if ns.axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {ns.axis!r}")
    if ns.start is None or ns.stop is None or ns.steps is None:
        raise ConfigError("sweep needs start, stop and steps (flags or config)")
    if ns.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {ns.steps}")
    base = _params_from(ns)
    values = np.linspace(ns.start, ns.stop, ns.steps)
    for v in values:  # fail before evaluating anything if an axis value leaves the legal domain
        replace(base, **{ns.axis: float(v)})
    rows = _sweep_rows(ns.quantity, ns.axis, values, base, ns.engine, na=ns.cutoff)
    _write_rows(ns.out, SWEEP_HEADER, rows, ns.format)
    print(f"wrote {ns.out} ({len(rows)} rows)")
    return 0


def _write_field(path, kind, params, grid, engine, na, fmt):
    """Compute one intensity or Wigner field; write its rows and the .meta.json sidecar."""
    if engine == "closedform":
        fld = (cf.intensity_field if kind == "intensity" else cf.wigner_field)(params, grid)
    else:
        psi = orc.oracle_states(params, na)[2]
        fld = (orc.oracle_intensity if kind == "intensity" else orc.oracle_wigner)(psi, grid)
    # '%.17g' % v on Python floats gives the bytes of _fmt, several times faster
    xs = ["%.17g" % x for x in grid.xs().tolist()]
    ys = ["%.17g" % y for y in grid.ys().tolist()]
    rows = [
        [x, y, "%.17g" % v]
        for x, line in zip(xs, fld.values.tolist())
        for y, v in zip(ys, line)
    ]
    _write_rows(path, "x,y_or_p,value", rows, fmt)
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
    if ns.kind not in ("intensity", "wigner"):
        raise ConfigError(f"kind must be intensity or wigner, got {ns.kind!r}")
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
    whitelist = tuple(w for w in (ns.whitelist or "").split(",") if w) or DEFAULT_WHITELIST
    params_set = orc.validation_params()
    # cutoff-doubling self-check on the most demanding point first
    worst = max(params_set, key=lambda p: p.Gamma)
    na0 = default_cutoff(worst.Gamma) if ns.cutoff is None else ns.cutoff
    records = (orc.oracle_quantities(worst, na=na0), orc.oracle_quantities(worst, na=2 * na0))
    drift = 0.0  # over the sweep quantities the oracle computes; undefined counts as 0
    for name in SWEEP_QUANTITIES:
        access = orc.SCALAR_QUANTITIES[name].oracle
        if access is not None:
            v1, v2 = (0 if isinstance(v, tuple) else v for v in map(access, records))
            drift = max(drift, abs(v1 - v2))
    if drift > 1e-9:
        print(f"cutoff self-check FAILED: doubling Na moved results by {drift:.3e}", file=sys.stderr)
        return 2
    print(f"cutoff self-check ok (doubling drift {drift:.3e})")
    report = orc.compare(
        params_set,
        abs_tol=ns.abs_tol,
        rel_tol=ns.rel_tol,
        na=ns.cutoff,
        field_params=_field_check_points(),
    )
    with open(ns.out, "w", newline="\n") as fh:
        print(report.to_json(), file=fh)
    summary = report.summary()
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
    if ns.name not in _FIGURE_PRESETS:
        raise ConfigError(f"unknown figure {ns.name!r}; valid names: {', '.join(FIGURES)}")
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
        _write_rows(os.path.join(ns.outdir, ns.name + ("_fallback_gamma.csv" if fallback else ".csv")),
                    SWEEP_HEADER, rows, "csv")
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
    p.add_argument("--quantity", default=None)
    p.add_argument("--axis", default=None)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_param_args(p)
    p.add_argument("--out", default="sweep.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("field", help="export an intensity or Wigner field")
    p.add_argument("--kind", default=None)
    _add_param_args(p)
    p.add_argument("--out", default="field.csv", help="output path")
    _add_shared(p, "format", "engine", "cutoff", "grid")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("validate", help="closed-form vs oracle validation run")
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=1e-10)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-8)
    p.add_argument("--whitelist", default=None,
                   help="comma-separated quantity names (or prefix*) allowed to fail")
    p.add_argument("--out", default="validation_report.json", help="output path")
    _add_shared(p, "cutoff")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figure", help="emit the data behind one preset figure")
    p.add_argument("--name", default=None)
    p.add_argument("--outdir", default="figures")
    _add_shared(p, "engine", "cutoff", "grid")
    p.set_defaults(func=cmd_figure)
    return ap, sub.choices


def _apply_config(parser, commands, argv, ns):
    """Parse again with the config file's values as the subcommand's defaults.

    argparse converts string defaults through each option's type, and a flag
    on the command line wins over the file even when it repeats the default.
    """
    conf = _read_config(ns.config)
    sub = commands[ns.command]
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
    for key in conf:
        if key not in options:
            raise ConfigError(f"unknown config key {key!r}")
    sub.set_defaults(**conf)
    ns = parser.parse_args(argv)
    for key in conf:  # argparse checks choices on the command line only
        choices = options[key].choices
        if choices is not None and getattr(ns, key) not in choices:
            raise ConfigError(f"bad value for {key!r}: {getattr(ns, key)!r} is not one of {choices}")
    return ns


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            ns = _apply_config(parser, commands, argv, ns)
        if getattr(ns, "engine", None) == "closedform" and ns.cutoff is not None:
            raise ConfigError("cutoff is an oracle-only option; the closed-form engine has no cutoff")
        return ns.func(ns)
    except (ConfigError, ValueError) as exc:  # ValueError: a library limit, e.g. the Gamma ceiling
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
