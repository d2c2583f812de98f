"""State-vector ground truth and closed-form-vs-oracle validation.

The oracle's primitives and fields come from truncated Fock-space state vectors,
ladder operators and inner products; from closedform it takes the table's
derivations (squeezing_from_moments, g2_from_moments, snr_from_moments with
chi's initial mean 2 sigma Re q and Ps) and the intensity's _unit_intensity.

The coupling displaces the branches D(±Gamma/2)|Psi_i> whatever the preselected
state is; alpha and delta enter only at postselection, as the weights of those
two branches (Aharonov, Albert & Vaidman, PRL 60, 1351 (1988)).  So the oracle
runs measurement's pipeline split there: it evolves and audits each pointer
(Gamma, gamma, phi, sigma) once per run (one compare call, one sweep:
_OracleRun) and every point postselects from its joint state.

The displaced-Fock elements of fock._laguerre_rows are exact on any
truncation, so they are only made where they are needed: the displaced-parity
Wigner function contracts the a-mode density matrix with them between the
stored levels, once per distinct |beta|^2 on the grid and in blocks of radii,
then sums each point's angular series by Horner in e^{i theta}; and
I1 = <Psi_i|D(Gamma)|Psi_i> takes the block over the a levels Psi_i occupies.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from . import closedform as cf
from .closedform import (
    DegenerateShiftError,
    UndefinedCorrelationError,
    VarianceCollapseError,
)
from .fock import (
    GridSpec,
    NormDriftWarning,
    ScalarField,
    TruncationWarning,
    TwoModeState,
    _laguerre_rows,
    _lower_a,
    _lower_b,
    _occupied_levels,
    coordinate_wavefunction,
    default_cutoff,
    displacement_matrix,
    inner,
)
from .measurement import (
    ExpectationSet,
    MeasurementParams,
    evolve_joint,
    initial_pointer,
    nonpostselected_moments,
    postselect,
    weak_value,
)

__all__ = [
    "oracle_expectations",
    "oracle_states",
    "oracle_wigner",
    "oracle_intensity",
    "oracle_quantities",
    "ReportEntry",
    "ValidationReport",
    "validation_params",
    "compare",
    "SCALAR_QUANTITIES",
    "closed_value",
]

_TOP_OCC_TOL = 1e-8


def _audit_truncation(state: TwoModeState):
    occ = state.top_level_occupation()
    if occ > _TOP_OCC_TOL:
        warnings.warn(
            f"top Fock level holds amplitude {occ:.3e} at cutoff Na={state.na}; increase the cutoff",
            TruncationWarning,
            stacklevel=3,
        )


def oracle_expectations(state: TwoModeState) -> ExpectationSet:
    """All eleven moments of one state; warns when the top Fock level is occupied.

    Only lowering operators are applied (raising is rewritten away), so the
    result is exact to the stored truncation and the two-level b cutoff stays
    exact.  Each moment is np.vdot over its named pair of lowered grids, raw
    arrays of the state's shape.
    """
    _audit_truncation(state)
    c = state.coeffs
    av, bv = _lower_a(c), _lower_b(c)
    aav, bbv, abv = _lower_a(av), _lower_b(bv), _lower_a(bv)

    pairs = dict(a=(c, av), b=(c, bv), a2=(c, aav), b2=(c, bbv), adag_a=(av, av), bdag_b=(bv, bv), adag_b=(av, bv),
                 ab=(c, abv), adaga_bdagb=(abv, abv), adag2a2=(aav, aav), bdag2b2=(bbv, bbv))
    return ExpectationSet(**{name: complex(np.vdot(u, v)) for name, (u, v) in pairs.items()})


def oracle_states(params: MeasurementParams, na: int | None = None):
    """Build (initial pointer, joint state, postselected pointer, success prob)."""
    return _OracleRun(na).states(params)


# ---------------------------------------------------------------------------
# phase-space and coordinate-space fields
# ---------------------------------------------------------------------------

_BLOCK = 1024  # distinct radii per block: fixes the kernel's working memory


def oracle_wigner(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """a-mode Wigner function by displaced parity, W = (2/pi) Tr[rho_a D(2 alpha) P].

    rho_a = v v† (the b mode traced out) and P = (-1)^{a† a}.  With
    2 alpha = |beta| e^{i theta} and the rows l_m^a of fock._laguerre_rows,
    the trace folds onto the diagonals of rho_a:
    S_a = sum_m (-1)^m rho_a[m, m+a] l_m^a gives
    W = (2/pi) [S_0 + 2 Re sum_{a>=1} e^{ia theta} S_a].  S_a depends on the
    point only through x = |beta|^2, so it is made once per distinct x on the
    grid (exact float equality: equal x give bit-identical rows), walking the
    sorted radii in blocks of _BLOCK and accumulating as each row is made; each
    point of a block then sums its angular series by Horner in e^{i theta}.
    The elements are made between the stored levels only, which keeps the
    value exact for any grid extent inside the underflow limit of
    fock._laguerre_rows.  Memory is K * _BLOCK for the sums plus a few index
    arrays per grid point; no array holds K values for every point.
    """
    _audit_truncation(state)
    xs, ys = grid.xs(), grid.ys()
    x = np.abs(2 * (xs[:, None] + 1j * ys[None, :])).ravel() ** 2
    order = np.argsort(x)  # points by radius
    x = x[order]
    radii = x[np.concatenate(([True], x[1:] != x[:-1]))]  # np.unique(x) without its numpy.ma import
    v = state.coeffs
    K = v.shape[0]
    rho = ((-1.0) ** np.arange(K))[:, None] * (v @ v.conj().T)
    w = np.empty(x.size)
    p0 = 0
    for lo in range(0, radii.size, _BLOCK):
        r = radii[lo:lo + _BLOCK]
        s = np.zeros((K, r.size), dtype=complex)
        for m, row in enumerate(_laguerre_rows(r, K)):
            s[:K - m] += rho[m, m:, None] * row
        p1 = np.searchsorted(x, r[-1], side="right")
        pts, j = order[p0:p1], np.searchsorted(r, x[p0:p1])
        i, k = np.divmod(pts, grid.ny)
        z = np.exp(1j * np.arctan2(ys[k], xs[i]))  # e^{i theta} of each point
        h = np.zeros(pts.size, dtype=complex)
        for a in range(K - 1, 0, -1):
            h += s[a, j]
            h *= z
        w[pts] = (2 / math.pi) * (s[0, j].real + 2 * h.real)
        p0 = p1
    return ScalarField(grid, w.reshape(grid.nx, grid.ny))


def oracle_intensity(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """|Psi(x, y)|^2 from the Fock coefficients, normalized to unit grid integral
    (FieldConsistencyError where the grid misses the beam); warns when the top
    Fock level is occupied."""
    _audit_truncation(state)
    return cf._unit_intensity(grid, np.abs(coordinate_wavefunction(state, grid).values) ** 2)


# ---------------------------------------------------------------------------
# the scalar quantities from state vectors
# ---------------------------------------------------------------------------

_UNDEFINED_ERRORS = (UndefinedCorrelationError, DegenerateShiftError, VarianceCollapseError)


def _value_or_reason(fn, *args):
    """fn(*args), or (None, reason) where the quantity is undefined."""
    try:
        return fn(*args)
    except _UNDEFINED_ERRORS as exc:
        return None, str(exc)


def oracle_quantities(params: MeasurementParams, na: int | None = None) -> dict:
    """Every scalar of the quantity table, derived from the five primitives made from state vectors.

    Keyed by table name in table order, with (None, reason) where a quantity is undefined.
    """
    return _OracleRun(na).quantities(params)


_POINTERS = 8  # distinct pointers one run holds: the lattice alternates two, a Gamma sweep never repeats one


def _evolve_pointer(params: MeasurementParams, na: int | None):
    """All of a point that alpha and delta do not enter: (initial pointer, its joint state, I1).
    evolve_joint makes the two displaced branches and audits them for norm drift."""
    if na is None:
        na = default_cutoff(params.Gamma)
    psi_i = initial_pointer(params, na)
    # I1 on the a levels psi_i occupies, where the elements of D(Gamma) are exact
    c = psi_i.coeffs[: _occupied_levels(psi_i)]
    return psi_i, evolve_joint(psi_i, params), complex(np.vdot(c, displacement_matrix(params.Gamma, len(c)) @ c))


@contextlib.contextmanager
def _at_point(params: MeasurementParams):
    """Name the point in a truncation audit raised as an error (compare under validate's cutoff check)."""
    try:
        yield
    except (NormDriftWarning, TruncationWarning) as exc:
        raise type(exc)(f"{exc}; at {params}") from None


class _OracleRun:
    """The oracle over one run (a compare call, a sweep, one point): each distinct pointer is
    evolved once (_evolve_pointer) and each point postselects its own preselection from it.

    The memo is an lru_cache of _POINTERS pointers that lives as long as the run.  Its key is the
    point's params with alpha = delta = 0, plus the signs of Gamma, gamma and phi, as a dataclass
    key takes -0.0 and 0.0 for one.
    """

    def __init__(self, na: int | None = None):
        self._evolved = functools.lru_cache(maxsize=_POINTERS)(lambda p, signs: _evolve_pointer(p, na))

    def _pointer(self, p: MeasurementParams):
        """(initial pointer, joint state, I1) of the point's pointer, from the memo."""
        signs = tuple(math.copysign(1.0, v) for v in (p.Gamma, p.gamma, p.phi))
        return self._evolved(replace(p, alpha=0.0, delta=0.0), signs)

    def states(self, p: MeasurementParams):
        """oracle_states of one point: (initial pointer, joint state, postselected pointer, success prob)."""
        psi_i, joint, _ = self._pointer(p)
        return (psi_i, joint, *postselect(joint, p))

    def quantities(self, p: MeasurementParams, names=None) -> dict:
        """oracle_quantities of one point, or of the table quantities named (a sweep writes one)."""
        psi_i, joint, i1 = self._pointer(p)
        psi, _ = postselect(joint, p)
        # lambda of |Psi> = (lambda/2) [ (1+w) D(s) + (1-w) D(-s) ] |Psi_i>
        w = weak_value(p.alpha, p.delta).value
        un = (1 + w) * joint.branch_plus.coeffs + (1 - w) * joint.branch_minus.coeffs
        e = SimpleNamespace(  # a plain record: every primitive is made here or with the pointer
            moments=oracle_expectations(psi),
            lam=2.0 / float(np.linalg.norm(un)),
            i1=i1,
            fidelity=float(abs(inner(psi_i, psi)) ** 2),
            phi=nonpostselected_moments(joint, p),
        )
        return {name: _value_or_reason(SCALAR_QUANTITIES[name], p, e) for name in names or SCALAR_QUANTITIES}


# ---------------------------------------------------------------------------
# the one table of scalar quantities (compare, the CLI sweeps and validate)
# ---------------------------------------------------------------------------

@dataclass
class _ClosedPrimitives:
    """The closed forms' primitives at one point or over a closedform.ParamSeries, each made on
    first use, so a quantity costs only what it reads; each function is looked up on closedform then."""

    params: MeasurementParams | cf.ParamSeries
    lam = functools.cached_property(lambda self: cf.lambda_norm(self.params))
    i1 = functools.cached_property(lambda self: cf._i1(self.params))
    fidelity = functools.cached_property(lambda self: cf.fidelity(self.params))
    moments = functools.cached_property(lambda self: cf.expectations(self.params))
    phi = functools.cached_property(lambda self: cf.phi_moments(self.params))

    def value(self, name: str):
        """A table quantity, or (None, reason) where it is undefined; over a series, the list of those."""
        value = _value_or_reason(SCALAR_QUANTITIES[name], self.params, self)
        if not isinstance(self.params, cf.ParamSeries) or isinstance(value, list):
            return value
        if isinstance(value, tuple):  # undefined at every point
            return [value] * self.params.size
        return np.broadcast_to(value, self.params.size).tolist()  # b2 and bdag2b2 are one 0j for all


# name -> value(params, e), at one point or over a closedform.ParamSeries, from an engine's five
# primitives e: the normalization lam, I1 (i1), the fidelity, the ExpectationSet of moments and the
# non-postselected (<a>, <a†a>, <a^2>) (phi).  oracle_quantities and closed_value read it alike, and
# compare reports the names in this order; the published transcriptions are not in the table:
# compare takes them from closedform.published_scalars, whose names are table names.
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


def closed_value(name: str, params):
    """The closed form of a table quantity at one point, or (None, reason) where it is undefined;
    over a closedform.ParamSeries, the list of those, one per point, from one evaluation."""
    return _ClosedPrimitives(params).value(name)


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
    point_index: int
    params: MeasurementParams
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
        """json.dumps(report, indent=2, sort_keys=True) by template, one chunk per entry, then the
        tail holding `summary` (that of self.summary()); the caller streams or joins them."""
        sep, params, block = '{\n  "entries": [\n', None, ""
        for e in self.entries:
            if e.params is not params:  # one params block per point
                params = e.params
                block = json.dumps(vars(params), indent=2, sort_keys=True).replace("\n", "\n      ")
            yield (
                f'{sep}    {{\n      "abs_delta": {_json_value(e.abs_delta)},\n'
                f'      "closed": {_json_value(e.closed_value)},\n'
                f'      "oracle": {_json_value(e.oracle_value)},\n'
                f'      "params": {block},\n      "point_index": {e.point_index},\n'
                f'      "quantity": {encode_basestring_ascii(e.quantity)},\n'
                f'      "reason": {"null" if e.reason is None else encode_basestring_ascii(e.reason)},\n'
                f'      "rel_delta": {_json_value(e.rel_delta)},\n'
                f'      "status": {encode_basestring_ascii(e.status)}\n    }}'
            )
            sep = ",\n"
        tail = json.dumps({"summary": summary, "tolerances": {"abs": self.abs_tol, "rel": self.rel_tol}},
                          indent=2, sort_keys=True)
        yield ("\n  ],\n" if self.entries else '{\n  "entries": [],\n') + tail[2:]

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


def _entry(quantity, idx, params, closed, oracle, abs_tol, rel_tol):
    c_undef = isinstance(closed, tuple)
    o_undef = isinstance(oracle, tuple)
    if c_undef or o_undef:
        if c_undef and o_undef:
            return ReportEntry(quantity, idx, params, None, None, None, None, "undefined",
                               reason=closed[1])
        # engines disagree about definedness: that is a failure
        reason = (closed[1] if c_undef else oracle[1]) or "one engine undefined"
        cv = None if c_undef else closed
        ov = None if o_undef else oracle
        return ReportEntry(quantity, idx, params, cv, ov, None, None, "fail", reason=reason)
    ad = abs(closed - oracle)
    scale = max(abs(closed), abs(oracle))
    rd = ad / scale if scale > 0 else 0.0
    ok = ad <= abs_tol or rd <= rel_tol
    return ReportEntry(quantity, idx, params, closed, oracle, float(ad), float(rd),
                       "pass" if ok else "fail")


# the field cross-check: one grid and one max-deviation tolerance
_FIELD_GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 61, 61)
_FIELD_TOL = 1e-6
ABS_TOL, REL_TOL = 1e-10, 1e-8  # compare's default scalar tolerances, and validate's


def _field_maxdev(quantity, idx, params, closed, oracle):
    dev = float(np.abs(closed.values - oracle.values).max())
    return ReportEntry(quantity, idx, params, dev, 0.0, dev, None, "pass" if dev <= _FIELD_TOL else "fail")


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
    oracle's (oracle_quantities) point by point, so entries are ordered by
    (point index, table order); each point ends with the residuals of the
    published transcriptions (closedform.published_scalars) against the oracle
    value of the same name, as "published:<name>".  Each point of field_params
    adds the Wigner and intensity field checks, the published intensity last,
    always on the fixed 61 x 61 grid over [-6, 6]^2 with the fixed
    max-deviation tolerance 1e-6 (the *:field_maxdev entries).
    """
    params_set = list(params_set)
    if not params_set:
        raise ValueError("parameter set must be nonempty")
    report = ValidationReport(abs_tol=abs_tol, rel_tol=rel_tol)
    series = cf.ParamSeries.of(params_set)
    e = _ClosedPrimitives(series)
    closed = {name: e.value(name) for name in SCALAR_QUANTITIES}
    run = _OracleRun(na)  # one run for the lattice and the field checks
    for idx, p in enumerate(params_set):
        with _at_point(p):
            rec = run.quantities(p)
        for name, value in rec.items():
            report.entries.append(_entry(name, idx, p, closed[name][idx], value, abs_tol, rel_tol))
        for name, value in cf.published_scalars(p).items():
            report.entries.append(_entry("published:" + name, idx, p, value, rec[name], abs_tol, rel_tol))

    for idx, p in enumerate(field_params or (), 10_000):
        with _at_point(p):
            psi = run.states(p)[2]
            i_orc, w_orc = oracle_intensity(psi, _FIELD_GRID), oracle_wigner(psi, _FIELD_GRID)
        w_closed = cf.wigner_field(p, _FIELD_GRID)
        report.entries += [
            _field_maxdev("wigner:field_maxdev", idx, p, w_closed, w_orc),
            _entry("wigner:integral", idx, p, w_closed.integral(), 1.0, 1e-6, 1e-6),
            _field_maxdev("intensity:field_maxdev", idx, p, cf.intensity_field(p, _FIELD_GRID), i_orc),
            _field_maxdev("published:intensity:field_maxdev", idx, p,
                          cf.published_intensity(p, _FIELD_GRID), i_orc),
        ]
    return report
