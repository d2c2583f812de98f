"""State-vector ground truth and closed-form-vs-oracle validation.

Everything here is computed from truncated Fock-space state vectors with
ladder operators and inner products; no closed-form shortcut enters.  The
displaced-Fock elements of fock._laguerre_rows are exact on any truncation,
so they are only made where they are needed: the displaced-parity Wigner
function contracts the a-mode density matrix with them between the stored
levels, once per distinct |beta|^2 on the grid and in blocks of radii, then
sums each point's angular series by Horner in e^{i theta}; and
I1 = <Psi_i|D(Gamma)|Psi_i> takes the block over the a levels Psi_i occupies.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import closedform as cf
from .closedform import (
    DegenerateShiftError,
    ExpectationSet,
    UndefinedCorrelationError,
    VarianceCollapseError,
)
from .fock import (
    GridSpec,
    ScalarField,
    TruncationWarning,
    TwoModeState,
    _laguerre_rows,
    coordinate_wavefunction,
    default_cutoff,
    displacement_matrix,
    inner,
)
from .measurement import (
    MeasurementParams,
    _lowering_moments,
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
    "OracleRecord",
    "oracle_quantities",
    "ReportEntry",
    "ValidationReport",
    "validation_params",
    "compare",
    "ScalarQuantity",
    "SCALAR_QUANTITIES",
]

_TOP_OCC_TOL = 1e-8


def _audit_truncation(state: TwoModeState):
    occ = state.top_level_occupation()
    if occ > _TOP_OCC_TOL:
        warnings.warn(
            f"top Fock level holds amplitude {occ:.3e}; increase the cutoff",
            TruncationWarning,
            stacklevel=3,
        )


def oracle_expectations(state: TwoModeState) -> ExpectationSet:
    """All eleven moments by lowering-operator application and inner products,
    exact to the stored truncation; warns when the top Fock level is occupied.
    """
    _audit_truncation(state)
    return _lowering_moments(state)


def oracle_states(params: MeasurementParams, na: int | None = None):
    """Build (initial pointer, joint state, postselected pointer, success prob)."""
    if na is None:
        na = default_cutoff(params.Gamma)
    psi_i = initial_pointer(params, na)
    joint = evolve_joint(psi_i, params)
    psi, prob = postselect(joint, params)
    return psi_i, joint, psi, prob


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
    radii = np.unique(x)
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
    return ScalarField(grid, w.reshape(grid.nx, grid.ny), kind="wigner")


def oracle_intensity(state: TwoModeState, grid: GridSpec) -> ScalarField:
    """|Psi(x, y)|^2 from the Fock coefficients, normalized to unit grid integral."""
    f = coordinate_wavefunction(state, grid)
    vals = np.abs(f.values) ** 2
    raw = ScalarField(grid, vals, kind="intensity")
    return ScalarField(grid, vals / raw.integral(), kind="intensity")


# ---------------------------------------------------------------------------
# full scalar record
# ---------------------------------------------------------------------------

_UNDEFINED_ERRORS = (UndefinedCorrelationError, DegenerateShiftError, VarianceCollapseError)


def _value_or_reason(fn, *args):
    """(fn(*args), None), or (None, reason) where the quantity is undefined."""
    try:
        return fn(*args), None
    except _UNDEFINED_ERRORS as exc:
        return None, str(exc)


def _or_reason(value, reason):
    """The value, or (None, reason) where it is undefined."""
    return value if reason is None else (None, reason)


@dataclass(frozen=True)
class OracleRecord:
    """Every scalar the oracle can produce at one parameter point."""

    lam: float
    i1: complex
    i2: complex
    moments: ExpectationSet
    q1: float
    q2: float
    fidelity: float
    ps_ideal: float
    ps_exact: float
    g2: float | None
    g2_reason: str | None
    chi: float | None
    chi_reason: str | None
    chi_op: float | None
    chi_op_reason: str | None


def oracle_quantities(params: MeasurementParams, na: int | None = None) -> OracleRecord:
    """Evaluate every scalar quantity from state vectors only.

    chi is assembled under both second-moment conventions from the same
    numeric moments (chi: commonly quoted convention; chi_op: the operator
    square of X = sigma (a + a†)).
    """
    psi_i, joint, psi, prob = oracle_states(params, na)
    m = oracle_expectations(psi)
    q1, q2 = cf.squeezing_from_moments(m)
    fid = float(abs(inner(psi_i, psi)) ** 2)
    w = weak_value(params.alpha, params.delta)
    # lam of |Psi> = (lam/2) [ (1+w) D(s) + (1-w) D(-s) ] |Psi_i>
    wv = w.value
    un = (1 + wv) * joint.branch_plus.coeffs + (1 - wv) * joint.branch_minus.coeffs
    lam = 2.0 / float(np.linalg.norm(un))
    # I1 on the a levels psi_i occupies, where the elements of D(Gamma) are exact
    k = int(np.flatnonzero(psi_i.coeffs.any(axis=1))[-1]) + 1
    c = psi_i.coeffs[:k]
    i1 = complex(np.vdot(c, displacement_matrix(params.Gamma, k) @ c))
    g2, g2_reason = _value_or_reason(cf.g2_from_moments, m)
    phi_full = nonpostselected_moments(joint)
    phi_triplet = (phi_full.a, phi_full.adag_a, phi_full.a2)
    chi_res, chi_reason = _value_or_reason(cf.snr_from_moments, m, phi_triplet, params, 1, "published")
    chi_op_res, chi_op_reason = _value_or_reason(cf.snr_from_moments, m, phi_triplet, params, 1, "operator")
    return OracleRecord(
        lam=lam,
        i1=i1,
        i2=np.conj(i1),
        moments=m,
        q1=q1,
        q2=q2,
        fidelity=fid,
        ps_ideal=w.ps,
        ps_exact=prob,
        g2=g2,
        g2_reason=g2_reason,
        chi=chi_res[0] if chi_res else None,
        chi_reason=chi_reason,
        chi_op=chi_op_res[0] if chi_op_res else None,
        chi_op_reason=chi_op_reason,
    )


# ---------------------------------------------------------------------------
# the one table of scalar quantities (compare, the CLI sweeps and validate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarQuantity:
    """One scalar quantity by both routes.

    closed(params, moments, published) evaluates the closed form, where
    moments(published) returns the point's ExpectationSet in that convention.
    oracle(record) reads the value off an OracleRecord; it is None for a
    quantity fixed by the preselection alone, which both engines take from the
    closed form and compare does not report.  published marks quantities whose
    published transcription compare reports as "published:<name>".
    """

    closed: Callable
    oracle: Callable | None = None
    published: bool = False

    def closed_value(self, params: MeasurementParams, published: bool = False, moments=None):
        """The closed form, or (None, reason) where it is undefined.

        Without a moments function the moments are recomputed on every call.
        """
        if moments is None:
            moments = functools.partial(cf.expectations, params)
        return _or_reason(*_value_or_reason(self.closed, params, moments, published))


def _chi(convention):
    def closed(p, moments, published):
        return cf.snr_from_moments(moments(False), cf.phi_moments(p), p, 1, convention)[0]
    return closed


# name -> ScalarQuantity; compare reports the quantities in this order
SCALAR_QUANTITIES = {
    "lambda": ScalarQuantity(
        lambda p, m, pub: cf.lambda_norm(p, published=pub), lambda r: r.lam, published=True),
    "I1": ScalarQuantity(lambda p, m, pub: cf._i1(p), lambda r: r.i1),
    "I2": ScalarQuantity(lambda p, m, pub: np.conj(cf._i1(p)), lambda r: r.i2),
    **{
        f"moment:{name}": ScalarQuantity(
            lambda p, m, pub, name=name: getattr(m(pub), name),
            lambda r, name=name: getattr(r.moments, name),
            published=True,
        )
        for name in ExpectationSet.field_names()
    },
    "Q1": ScalarQuantity(
        lambda p, m, pub: cf.squeezing_from_moments(m(pub), published=pub)[0], lambda r: r.q1),
    "Q2": ScalarQuantity(
        lambda p, m, pub: cf.squeezing_from_moments(m(pub), published=pub)[1], lambda r: r.q2,
        published=True),
    "fidelity": ScalarQuantity(
        lambda p, m, pub: cf.fidelity(p, published=pub), lambda r: r.fidelity, published=True),
    "g2": ScalarQuantity(
        lambda p, m, pub: cf.g2_from_moments(m(False)), lambda r: _or_reason(r.g2, r.g2_reason)),
    "chi": ScalarQuantity(_chi("published"), lambda r: _or_reason(r.chi, r.chi_reason)),
    "chi[x2=operator]": ScalarQuantity(_chi("operator"), lambda r: _or_reason(r.chi_op, r.chi_op_reason)),
    "weak_value": ScalarQuantity(lambda p, m, pub: weak_value(p.alpha, p.delta).value.real),
}


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

    def to_json(self) -> str:
        """json.dumps(report, indent=2, sort_keys=True) by template, in one join: nothing is copied."""
        chunks, sep, params, block = [], '{\n  "entries": [\n', None, ""
        for e in self.entries:
            if e.params is not params:  # one params block per point
                params = e.params
                block = json.dumps(vars(params), indent=2, sort_keys=True).replace("\n", "\n      ")
            chunks.append(
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
        tail = json.dumps({"summary": self.summary(), "tolerances": {"abs": self.abs_tol, "rel": self.rel_tol}},
                          indent=2, sort_keys=True)
        chunks.append(("\n  ],\n" if chunks else '{\n  "entries": [],\n') + tail[2:])
        return "".join(chunks)


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


def _field_maxdev(quantity, idx, params, closed, oracle):
    dev = float(np.abs(closed.values - oracle.values).max())
    return ReportEntry(quantity, idx, params, dev, 0.0, dev, None, "pass" if dev <= _FIELD_TOL else "fail")


def compare(
    params_set,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
    na: int | None = None,
    include_published: bool = True,
    field_params=None,
) -> ValidationReport:
    """Evaluate closed forms and the oracle over a parameter set and report deltas.

    Failures are recorded as data, never raised.  Entries are ordered by
    (point index, table order), the published variants after the rest.  Each
    point of field_params adds the Wigner and intensity field checks, always on
    the fixed 61 x 61 grid over [-6, 6]^2 with the fixed max-deviation
    tolerance 1e-6 (the *:field_maxdev entries).
    """
    params_set = list(params_set)
    if not params_set:
        raise ValueError("parameter set must be nonempty")
    report = ValidationReport(abs_tol=abs_tol, rel_tol=rel_tol)
    conventions = (False, True) if include_published else (False,)
    for idx, p in enumerate(params_set):
        moments = functools.cache(functools.partial(cf.expectations, p))
        rec = oracle_quantities(p, na=na)
        for published in conventions:
            for name, q in SCALAR_QUANTITIES.items():
                if q.oracle is None or (published and not q.published):
                    continue
                report.entries.append(_entry(
                    "published:" + name if published else name, idx, p,
                    q.closed_value(p, published, moments), q.oracle(rec), abs_tol, rel_tol,
                ))

    for idx, p in enumerate(field_params or (), 10_000):
        psi = oracle_states(p, na)[2]
        w_closed = cf.wigner_field(p, _FIELD_GRID)
        i_orc = oracle_intensity(psi, _FIELD_GRID)
        report.entries += [
            _field_maxdev("wigner:field_maxdev", idx, p, w_closed, oracle_wigner(psi, _FIELD_GRID)),
            _entry("wigner:integral", idx, p, w_closed.integral(), 1.0, 1e-6, 1e-6),
            _field_maxdev("intensity:field_maxdev", idx, p, cf.intensity_field(p, _FIELD_GRID), i_orc),
        ]
        if include_published:
            i_pub = cf.intensity_field(p, _FIELD_GRID, published=True)
            report.entries.append(_field_maxdev("published:intensity:field_maxdev", idx, p, i_pub, i_orc))
    return report
