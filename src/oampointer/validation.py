"""The closed forms against the state-vector oracle: the one quantity table, and the report.

The two routes meet only here.  SCALAR_QUANTITIES derives each scalar from an
engine's five primitives, through closedform's three moment derivations
(squeezing_from_moments, g2_from_moments, snr_from_moments); value reads it,
at one point or over a measurement.ParamSeries, for either engine's record:
_ClosedPrimitives for the closed forms, oracle._OraclePrimitives for the
oracle, each making a primitive on first use.  values and engine_field are
the one place an engine is chosen by name, for the CLI's sweeps and fields.
compare holds the routes against each other and writes a ValidationReport.

The oracle is called through its module (orc.oracle_wigner, not a name
imported from it), so a patch of the oracle module reaches every call.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import closedform as cf
from . import oracle as orc
from .closedform import DegenerateShiftError, UndefinedCorrelationError, VarianceCollapseError
from .fock import GridSpec, NormDriftWarning, TruncationWarning
from .measurement import MeasurementParams, ParamSeries, weak_value

__all__ = [
    "SCALAR_QUANTITIES",
    "value",
    "values",
    "engine_field",
    "oracle_quantities",
    "ReportEntry",
    "ValidationReport",
    "validation_params",
    "field_check_points",
    "compare",
]


# ---------------------------------------------------------------------------
# the one table of scalar quantities (compare, the CLI sweeps and validate)
# ---------------------------------------------------------------------------

@dataclass
class _ClosedPrimitives:
    """The closed forms' primitives at one point or over a ParamSeries, each made on
    first use, so a quantity costs only what it reads; each function is looked up on closedform then."""

    params: MeasurementParams | ParamSeries
    lam = functools.cached_property(lambda self: cf.lambda_norm(self.params))
    i1 = functools.cached_property(lambda self: cf._i1(self.params))
    fidelity = functools.cached_property(lambda self: cf.fidelity(self.params))
    moments = functools.cached_property(lambda self: cf.expectations(self.params))
    phi = functools.cached_property(lambda self: cf.phi_moments(self.params))


# name -> value(params, e), at one point or over a ParamSeries, from an engine's five
# primitives e: the normalization lam, I1 (i1), the fidelity, the ExpectationSet of moments and the
# non-postselected (<a>, <a†a>, <a^2>) (phi).  value reads it for both engines, and compare reports
# the names in this order; the published transcriptions are not in the table: compare takes them
# from closedform.published_scalars, whose names are table names.
SCALAR_QUANTITIES = {
    "lambda": lambda p, e: e.lam,
    "I1": lambda p, e: e.i1,
    "I2": lambda p, e: np.conj(e.i1),
    **{key: (lambda p, e, name=name: getattr(e.moments, name)) for key, name in cf.MOMENT_NAMES.items()},
    "Q1": lambda p, e: cf.squeezing_from_moments(e.moments)[0],
    "Q2": lambda p, e: cf.squeezing_from_moments(e.moments)[1],
    "fidelity": lambda p, e: e.fidelity,
    "g2": lambda p, e: cf.g2_from_moments(e.moments),
    "chi": lambda p, e: cf.snr_from_moments(e.moments, e.phi, p, 1, "published")[0],
    "chi[x2=operator]": lambda p, e: cf.snr_from_moments(e.moments, e.phi, p, 1, "operator")[0],
}

_UNDEFINED_ERRORS = (UndefinedCorrelationError, DegenerateShiftError, VarianceCollapseError)


def value(name: str, params, e):
    """The table quantity name from an engine's primitives e at params, or (None, reason) where it is
    undefined; over a ParamSeries, the list of those, one per point."""
    try:
        v = SCALAR_QUANTITIES[name](params, e)
    except _UNDEFINED_ERRORS as exc:
        v = None, str(exc)
    if not isinstance(params, ParamSeries) or isinstance(v, list):
        return v
    if isinstance(v, tuple):  # undefined at every point
        return [v] * params.size
    return np.broadcast_to(v, params.size).tolist()  # b2 and bdag2b2 are one 0j for all


def values(name: str, series: ParamSeries, engine: str, na: int | None = None):
    """The quantity name at each point of series, (None, reason) where it is undefined: the closed forms
    in one evaluation over the series, the oracle point by point as they are read, in one walk that
    evolves each distinct pointer once and derives only this quantity."""
    if name == "weak_value":  # fixed by the preselection alone: no engine computes it
        cols = (np.broadcast_to(c, series.size).tolist() for c in (series.alpha, series.delta))
        return (weak_value(a, d).value.real for a, d in zip(*cols))
    if engine == "oracle":
        return (value(name, e.params, e) for e in orc._points(series, na))
    return value(name, series, _ClosedPrimitives(series))


def engine_field(kind: str, params: MeasurementParams, grid: GridSpec, engine: str, na: int | None = None):
    """The "intensity" or "wigner" field at one point, from the closed forms or the oracle's postselected pointer."""
    if engine == "closedform":
        return (cf.intensity_field if kind == "intensity" else cf.wigner_field)(params, grid)
    psi = orc.oracle_states(params, na)[2]
    return (orc.oracle_intensity if kind == "intensity" else orc.oracle_wigner)(psi, grid)


def oracle_quantities(params: MeasurementParams, na: int | None = None) -> dict:
    """Every scalar of the quantity table from the oracle's primitives at one point.

    Keyed by table name in table order, with (None, reason) where a quantity is undefined.
    """
    e = next(orc._points([params], na))
    return {name: value(name, params, e) for name in SCALAR_QUANTITIES}


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(v) -> str:
    """None, float(v), or a complex as [re, im], as json.dumps writes it at an entry's key depth."""
    if v is None:
        return "null"
    if isinstance(v, complex):
        return f"[\n        {_json_value(v.real)},\n        {_json_value(v.imag)}\n      ]"
    s = repr(float(v))
    return _JSON_NAMES.get(s, s)


@dataclass(frozen=True)
class ReportEntry:
    quantity: str
    point_index: int  # into ValidationReport.points
    closed_value: complex | float | None
    oracle_value: complex | float | None
    abs_delta: float | None
    rel_delta: float | None
    status: str  # "pass" | "fail" | "undefined"
    reason: str | None = None


@dataclass
class ValidationReport:
    abs_tol: float
    rel_tol: float
    points: list = field(default_factory=list)  # by point index: compare's params_set, then its field_params
    entries: list = field(default_factory=list)

    def summary(self):
        out = {}
        for e in self.entries:
            rec = out.setdefault(e.quantity, {"pass": 0, "fail": 0, "undefined": 0, "max_abs_delta": 0.0})
            rec[e.status] += 1
            if e.abs_delta is not None:
                rec["max_abs_delta"] = max(rec["max_abs_delta"], e.abs_delta)
        return out

    def failures(self, whitelist=()):
        """Failed entries whose quantity does not match the whitelist.

        Whitelist items are exact names or prefixes ending in '*'.
        """
        def whitelisted(q):
            return any(q == w or (w.endswith("*") and q.startswith(w[:-1])) for w in whitelist)

        return [e for e in self.entries if e.status == "fail" and not whitelisted(e.quantity)]

    def json_chunks(self, summary):
        """json.dumps(report, indent=2, sort_keys=True) by template, one chunk per entry and per point, then
        the tail holding `summary` (that of self.summary()); the caller streams or joins them."""
        sep = '{\n  "entries": [\n'
        for e in self.entries:
            yield (
                f'{sep}    {{\n      "abs_delta": {_json_value(e.abs_delta)},\n'
                f'      "closed": {_json_value(e.closed_value)},\n'
                f'      "oracle": {_json_value(e.oracle_value)},\n'
                f'      "point_index": {e.point_index},\n'
                f'      "quantity": {encode_basestring_ascii(e.quantity)},\n'
                f'      "reason": {"null" if e.reason is None else encode_basestring_ascii(e.reason)},\n'
                f'      "rel_delta": {_json_value(e.rel_delta)},\n'
                f'      "status": {encode_basestring_ascii(e.status)}\n    }}'
            )
            sep = ",\n"
        yield "\n  ],\n" if self.entries else '{\n  "entries": [],\n'
        sep = '  "points": [\n'
        for p in self.points:  # one json.dumps per point: an indented one holds all its pieces until it joins them
            yield sep + "    " + json.dumps(vars(p), indent=2, sort_keys=True).replace("\n", "\n    ")
            sep = ",\n"
        tail = json.dumps({"summary": summary, "tolerances": {"abs": self.abs_tol, "rel": self.rel_tol}},
                          indent=2, sort_keys=True)
        yield ("\n  ],\n" if self.points else '  "points": [],\n') + tail[2:]

    def to_json(self) -> str:
        return "".join(self.json_chunks(self.summary()))


def validation_params() -> list[MeasurementParams]:
    """The built-in deterministic validation lattice (300 points).

    Covers Gamma in [0, 2], alpha in [0, 0.95 pi], delta in {0, pi/2},
    phi in {0, pi/2}, gamma in {0, 1, 2}, including every degenerate edge
    (gamma = 0 kills the b mode; Gamma = 0 or alpha = 0 kills the SNR shift).
    """
    gammas_c = np.linspace(0.0, 2.0, 5)
    alphas = np.linspace(0.0, 0.95 * math.pi, 5)
    out = []
    for gam in (0.0, 1.0, 2.0):
        for G in gammas_c:
            for al in alphas:
                for de in (0.0, math.pi / 2):
                    for ph in (0.0, math.pi / 2):
                        out.append(MeasurementParams(Gamma=float(G), alpha=float(al), delta=de, phi=ph, gamma=gam))
    return out


def field_check_points() -> list[MeasurementParams]:
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


def _entry(quantity, idx, closed, oracle, abs_tol, rel_tol):
    c_undef = isinstance(closed, tuple)
    o_undef = isinstance(oracle, tuple)
    if c_undef or o_undef:
        if c_undef and o_undef:
            return ReportEntry(quantity, idx, None, None, None, None, "undefined", reason=closed[1])
        # engines disagree about definedness: that is a failure
        reason = (closed[1] if c_undef else oracle[1]) or "one engine undefined"
        cv = None if c_undef else closed
        ov = None if o_undef else oracle
        return ReportEntry(quantity, idx, cv, ov, None, None, "fail", reason=reason)
    ad = abs(closed - oracle)
    scale = max(abs(closed), abs(oracle))
    rd = ad / scale if scale > 0 else 0.0
    ok = ad <= abs_tol or rd <= rel_tol
    return ReportEntry(quantity, idx, closed, oracle, float(ad), float(rd), "pass" if ok else "fail")


# the field cross-check: one grid and one max-deviation tolerance
_FIELD_GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 61, 61)
_FIELD_TOL = 1e-6
ABS_TOL, REL_TOL = 1e-10, 1e-8  # compare's default scalar tolerances, and validate's


def _field_maxdev(quantity, idx, closed, oracle):
    dev = float(np.abs(closed.values - oracle.values).max())
    return ReportEntry(quantity, idx, dev, 0.0, dev, None, "pass" if dev <= _FIELD_TOL else "fail")


@contextlib.contextmanager
def _at_point(params: MeasurementParams):
    """Name the point in a truncation audit raised as an error (compare under validate's cutoff check)."""
    try:
        yield
    except (NormDriftWarning, TruncationWarning) as exc:
        raise type(exc)(f"{exc}; at {params}") from None


def compare(
    params_set,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
    na: int | None = None,
    field_params=None,
) -> ValidationReport:
    """Evaluate closed forms and the oracle over a parameter set and report deltas.

    Failures are recorded as data, never raised.  Each quantity of
    SCALAR_QUANTITIES is derived once from each engine's primitives: from the
    closed forms' over the whole set, each primitive made once, and from the
    oracle's (the walk oracle._points) point by point, so entries are ordered by
    (point index, table order); each point ends with the residuals of the
    published transcriptions (closedform.published_scalars) against the oracle
    value of the same name, as "published:<name>".  Each point of field_params
    adds the Wigner and intensity field checks, the published intensity last,
    always on the fixed 61 x 61 grid over [-6, 6]^2 with the fixed
    max-deviation tolerance 1e-6 (the *:field_maxdev entries).
    """
    params_set, field_params = list(params_set), list(field_params or ())
    if not params_set:
        raise ValueError("parameter set must be nonempty")
    report = ValidationReport(abs_tol=abs_tol, rel_tol=rel_tol, points=params_set + field_params)
    series = ParamSeries.of(params_set)
    e = _ClosedPrimitives(series)
    closed = {name: value(name, series, e) for name in SCALAR_QUANTITIES}
    points = orc._points(params_set, na)
    for idx, p in enumerate(params_set):
        with _at_point(p):
            e = next(points)
        rec = {name: value(name, p, e) for name in SCALAR_QUANTITIES}
        for name, v in rec.items():
            report.entries.append(_entry(name, idx, closed[name][idx], v, abs_tol, rel_tol))
        for name, v in cf.published_scalars(p).items():
            report.entries.append(_entry("published:" + name, idx, v, rec[name], abs_tol, rel_tol))

    for idx, p in enumerate(field_params, len(params_set)):
        with _at_point(p):
            psi = orc.oracle_states(p, na)[2]  # as engine_field takes it
            i_orc, w_orc = orc.oracle_intensity(psi, _FIELD_GRID), orc.oracle_wigner(psi, _FIELD_GRID)
        w_closed = cf.wigner_field(p, _FIELD_GRID)
        report.entries += [
            _field_maxdev("wigner:field_maxdev", idx, w_closed, w_orc),
            _entry("wigner:integral", idx, w_closed.integral(), 1.0, 1e-6, 1e-6),
            _field_maxdev("intensity:field_maxdev", idx, cf.intensity_field(p, _FIELD_GRID), i_orc),
            _field_maxdev("published:intensity:field_maxdev", idx, cf.published_intensity(p, _FIELD_GRID), i_orc),
        ]
    return report
