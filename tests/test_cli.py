"""CLI: sweeps, fields, figures, validation command, config handling."""
import ast
import hashlib
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oampointer import cli, fieldtext, validation
from oampointer import closedform as cf
from oampointer import oracle as orc
from oampointer.cli import FIGURES, main
from oampointer.closedform import wigner_field
from oampointer.fock import GridSpec, NormDriftWarning, ScalarField, TruncationWarning
from oampointer.measurement import ExpectationSet, MeasurementParams

pytestmark = pytest.mark.usefixtures("tmp_path")


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _never_called(*args, **kwargs):
    raise AssertionError("evaluated where the command must stop first")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_fidelity_monotone(tmp_path):
    out = tmp_path / "fid.csv"
    rc = run(["sweep", "--quantity", "fidelity", "--axis", "Gamma",
              "--start", 0, "--stop", 2, "--steps", 21,
              "--alpha", 8 * math.pi / 9, "--delta", 0, "--phi", math.pi / 2, "--gamma", 1,
              "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == "axis_value,quantity,value,reason,engine,Gamma,alpha,delta,phi,gamma,sigma".split(",")
    assert len(rows) == 21
    assert all(len(r) == len(header) for r in rows)
    vals = [float(r[2]) for r in rows]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_sweep_weak_value_endpoint(tmp_path):
    out = tmp_path / "wv.csv"
    rc = run(["sweep", "--quantity", "weak_value", "--axis", "alpha",
              "--start", 0, "--stop", 8 * math.pi / 9, "--steps", 5, "--out", out])
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[-1][2]) == pytest.approx(5.671, abs=1e-3)


def test_oracle_weak_value_sweep_builds_no_state(tmp_path, monkeypatch):
    # the weak value is fixed by the preselection alone, so the oracle engine
    # writes it past the oracle's Gamma ceiling without evaluating a state
    def evaluated(*args, **kwargs):
        raise AssertionError("weak_value taken from the oracle")

    monkeypatch.setattr(orc, "_points", evaluated)
    cells = {}
    for engine in ("closedform", "oracle"):
        out = tmp_path / f"{engine}.csv"
        assert run(["sweep", "--quantity", "weak_value", "--axis", "Gamma", "--start", 0, "--stop", 200,
                    "--steps", 5, "--alpha", 2.0, "--engine", engine, "--out", out]) == 0
        cells[engine] = [row[2] for row in read_csv(out)[1]]
    assert len(cells["oracle"]) == 5 and all(cells["oracle"])
    assert cells["oracle"] == cells["closedform"]


def test_sweep_dual_engine_agreement(tmp_path):
    outs = {}
    for engine in ("closedform", "oracle"):
        out = tmp_path / f"q1_{engine}.csv"
        rc = run(["sweep", "--quantity", "Q1", "--axis", "alpha",
                  "--start", 0, "--stop", 0.9 * math.pi, "--steps", 12,
                  "--Gamma", 0.2, "--delta", 0, "--phi", math.pi / 2, "--gamma", 1,
                  "--engine", engine, "--out", out])
        assert rc == 0
        _, rows = read_csv(out)
        outs[engine] = np.array([float(r[2]) for r in rows])
    assert np.abs(outs["closedform"] - outs["oracle"]).max() < 1e-8


def test_sweep_undefined_rows_have_reason(tmp_path):
    out = tmp_path / "chi.csv"
    rc = run(["sweep", "--quantity", "chi", "--axis", "Gamma",
              "--start", 0, "--stop", 1, "--steps", 3,
              "--alpha", 2.0, "--gamma", 1, "--phi", math.pi / 2, "--out", out])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0][2] == "" and rows[0][3] != ""   # Gamma = 0 row undefined
    assert rows[1][2] != "" and rows[1][3] == ""


def test_sweep_g2_empty_mode_rows(tmp_path):
    out = tmp_path / "g2.csv"
    rc = run(["sweep", "--quantity", "g2", "--axis", "Gamma",
              "--start", 0, "--stop", 1, "--steps", 3, "--alpha", 1.0,
              "--gamma", 0, "--out", out])
    assert rc == 0
    _, rows = read_csv(out)
    assert all(r[2] == "" and r[3] != "" for r in rows)


def test_sweep_rejects_bad_quantity(tmp_path):
    rc = run(["sweep", "--quantity", "nope", "--axis", "Gamma",
              "--start", 0, "--stop", 1, "--steps", 3, "--out", tmp_path / "x.csv"])
    assert rc == 1


def test_sweep_rejects_out_of_domain_axis(tmp_path, monkeypatch):
    monkeypatch.setattr(validation, "values", _never_called)  # the last point is refused before the first is evaluated
    rc = run(["sweep", "--quantity", "Q1", "--axis", "alpha",
              "--start", 0, "--stop", math.pi, "--steps", 3, "--out", tmp_path / "x.csv"])
    assert rc == 1  # alpha = pi is outside the open interval
    assert list(tmp_path.iterdir()) == []


_SWEEP_BASE = MeasurementParams(Gamma=0.0, alpha=0.0)  # the sweep command's parameter defaults

# the edges of each axis' domain, legal and illegal; every axis also meets nan and +-inf
_AXIS_EDGES = {
    "Gamma": [-0.0, -5e-324, -1.0],
    "alpha": [-0.0, math.nextafter(math.pi, 0), math.pi],
    "delta": [-0.0, 2 * math.pi, math.nextafter(2 * math.pi, 7.0)],
    "phi": [-0.0, math.nextafter(2 * math.pi, 0), 2 * math.pi],
    "gamma": [-0.0, -5e-324, -1.0],
}


def _first_refusal(axis, values):
    """The error line of a sweep over values: its first point in sweep order that MeasurementParams refuses."""
    for v in values.tolist():
        try:
            replace(_SWEEP_BASE, **{axis: v})
        except ValueError as exc:
            return f"error: {exc}\n"
    return ""


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_sweep_refuses_its_first_illegal_point_before_any_evaluation(axis, engine, tmp_path, monkeypatch, capsys):
    # each edge value as the whole column, as its last value and as its first
    columns = [(a, b, n) for v in [*_AXIS_EDGES[axis], math.nan, math.inf, -math.inf]
               for a, b, n in ((v, v, 2), (0.0, v, 3), (v, 0.0, 3))]
    refused = 0
    for i, (start, stop, steps) in enumerate(columns):
        with np.errstate(invalid="ignore"):
            want = _first_refusal(axis, np.linspace(start, stop, steps))
        out = tmp_path / f"{i}.csv"
        with monkeypatch.context() as m:  # a legal column is evaluated as zeros
            m.setattr(validation, "values", _never_called if want else lambda q, points, *a, **k: [0.0] * len(points))
            with np.errstate(invalid="ignore"):
                rc = run(["sweep", "--engine", engine, "--quantity", "Q1", "--axis", axis, f"--start={start}",
                          f"--stop={stop}", f"--steps={steps}", "--out", out])
        captured = capsys.readouterr()
        assert (rc, captured.err) == ((1, want) if want else (0, "")), (start, stop, steps)
        assert out.exists() != bool(want)
        refused += bool(want)
    assert 0 < refused < len(columns)


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_sweep_names_its_first_illegal_value_not_an_extreme(engine, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "values", _never_called)
    out = tmp_path / "x.csv"
    assert run(["sweep", "--engine", engine, "--quantity", "Q1", "--axis", "alpha", "--start", 0, "--stop", 10,
                "--steps", 11, "--out", out]) == 1
    assert capsys.readouterr().err == "error: alpha must lie in [0, pi), got 4.0\n"
    assert not out.exists()


def test_closed_form_sweep_checks_no_point_per_row_and_main_parses_with_one_parser(tmp_path, monkeypatch):
    # the closed-form series, and weak_value's on either engine, is read from the axis column:
    # its checks do not grow with the step count
    post_init = MeasurementParams.__post_init__

    def counting(self):
        checks[-1] += 1
        post_init(self)

    monkeypatch.setattr(MeasurementParams, "__post_init__", counting)
    for quantity, engine in [("chi", "closedform"), ("weak_value", "closedform"), ("weak_value", "oracle")]:
        checks = []
        for steps in (21, 201):
            checks.append(0)
            assert run(["sweep", "--quantity", quantity, "--engine", engine, "--axis", "alpha", "--start", 0,
                        "--stop", 3, "--steps", steps, "--Gamma", 1.1, "--out", tmp_path / f"{steps}.csv"]) == 0
        assert checks[0] == checks[1], (quantity, engine, checks)
    # one argument parser serves every main call of a process
    built = []
    parser_init = cli._Parser.__init__

    def counting_parser(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        parser_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_parser)
    cli._build_parser.cache_clear()
    for i in range(5):
        assert run(["sweep", "--quantity", "lambda", "--axis", "Gamma", "--start", 0, "--stop", 1, "--steps", 3,
                    "--out", tmp_path / f"{i}.csv"]) == 0
    assert built.count("oampointer") == 1


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_sweep_rejects_non_finite_parameter(engine, tmp_path):
    out = tmp_path / "x.csv"
    rc = run(["sweep", "--quantity", "Q1", "--axis", "alpha", "--start", 0, "--stop", 1,
              "--steps", 3, "--Gamma", "nan", "--engine", engine, "--out", out])
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_sweep_cells_match_public_api(engine, tmp_path):
    # every value cell is the 17-digit form of the public function's value,
    # every reason cell the text of the error that made the quantity undefined
    from oampointer import closedform as cf
    from oampointer.measurement import MeasurementParams, weak_value
    from oampointer.validation import oracle_quantities

    closed = {
        "Q1": lambda p: cf.squeezing(p)[0],
        "Q2": lambda p: cf.squeezing(p)[1],
        "g2": cf.g2_cross,
        "chi": lambda p: cf.snr_ratio(p, 1)[0],
        "fidelity": cf.fidelity,
        "lambda": cf.lambda_norm,
        "weak_value": lambda p: weak_value(p.alpha, p.delta).value.real,
    }

    def expected(quantity, p):
        if engine == "oracle" and quantity != "weak_value":
            res = oracle_quantities(p)[quantity]
            return res if isinstance(res, tuple) else (res, None)
        try:
            return closed[quantity](p), None
        except (cf.UndefinedCorrelationError, cf.DegenerateShiftError, cf.VarianceCollapseError) as exc:
            return None, str(exc)

    undefined = set()
    for quantity in closed:
        for gamma in (1.0, 0.0):  # gamma = 0 leaves the b mode empty, so g2 is undefined
            out = tmp_path / f"{quantity}_{gamma}.csv"
            assert run(["sweep", "--quantity", quantity, "--axis", "Gamma", "--start", 0,
                        "--stop", 1, "--steps", 3, "--alpha", 2.0, "--phi", math.pi / 2,
                        "--gamma", gamma, "--engine", engine, "--out", out]) == 0
            _, rows = read_csv(out)
            assert len(rows) == 3
            for row in rows:
                # reasons may hold commas: the last six cells are the parameters
                cell_value, cell_reason = row[2], ",".join(row[3:-7])
                p = MeasurementParams(*(float(c) for c in row[-6:]))
                value, reason = expected(quantity, p)
                if reason is None:
                    assert cell_value == "{:.17g}".format(value), (quantity, row)
                    assert cell_reason == ""
                else:
                    assert cell_value == "" and cell_reason == reason, (quantity, row)
                    undefined.add((quantity, p.Gamma, p.gamma))
    assert ("chi", 0.0, 1.0) in undefined     # no shift without coupling
    assert ("g2", 0.5, 0.0) in undefined      # empty b mode


def test_sweep_json_format(tmp_path):
    out = tmp_path / "f.json"
    rc = run(["sweep", "--quantity", "lambda", "--axis", "Gamma",
              "--start", 0, "--stop", 1, "--steps", 3, "--alpha", 1.0,
              "--format", "json", "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data) == 3 and data[0]["quantity"] == "lambda"


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def test_field_wigner_vacuum_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    rc = run(["field", "--kind", "wigner", "--Gamma", 0, "--alpha", 0, "--gamma", 0,
              "--grid=-6,6,-6,6,121,121", "--out", out])
    assert rc == 0
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert meta["max"] == pytest.approx(2 / math.pi, abs=1e-9)
    assert meta["min"] >= -1e-9
    assert meta["integral"] == pytest.approx(1.0, abs=1e-6)
    header, rows = read_csv(out)
    assert header == ["x", "y_or_p", "value"]
    assert len(rows) == 121 * 121
    # row-major ordering: first block shares x_min
    assert all(float(r[0]) == -6.0 for r in rows[:121])


def test_field_two_lobe_intensity(tmp_path):
    out = tmp_path / "i.csv"
    rc = run(["field", "--kind", "intensity", "--Gamma", 1, "--alpha", 11 * math.pi / 12,
              "--phi", 0, "--delta", 0, "--gamma", 1, "--grid=-6,6,-6,6,241,241",
              "--out", out])
    assert rc == 0
    _, rows = read_csv(out)
    vals = np.array([float(r[2]) for r in rows]).reshape(241, 241)
    cut = vals[:, 120]
    peaks = [i for i in range(1, 240)
             if cut[i] > cut[i - 1] and cut[i] > cut[i + 1] and cut[i] > 0.05 * cut.max()]
    assert len(peaks) == 2


def test_field_wigner_negative_region(tmp_path):
    out = tmp_path / "wn.csv"
    rc = run(["field", "--kind", "wigner", "--Gamma", 1, "--alpha", 8 * math.pi / 9,
              "--phi", 0, "--delta", 0, "--gamma", 1, "--out", out])
    assert rc == 0
    meta = json.loads((tmp_path / "wn.csv.meta.json").read_text())
    assert meta["min"] < 0


def test_field_oracle_engine_agrees(tmp_path):
    args = ["field", "--kind", "wigner", "--Gamma", 0.5, "--alpha", 2.0, "--phi", 0,
            "--gamma", 1, "--grid=-4,4,-4,4,41,41"]
    run(args + ["--out", tmp_path / "a.csv"])
    run(args + ["--engine", "oracle", "--out", tmp_path / "b.csv"])
    _, ra = read_csv(tmp_path / "a.csv")
    _, rb = read_csv(tmp_path / "b.csv")
    va = np.array([float(r[2]) for r in ra])
    vb = np.array([float(r[2]) for r in rb])
    assert np.abs(va - vb).max() < 1e-6


def test_field_rejects_bad_kind(tmp_path):
    assert run(["field", "--kind", "husimi", "--out", tmp_path / "x.csv"]) == 1


def test_field_rejects_bad_grid(tmp_path):
    assert run(["field", "--kind", "wigner", "--grid", "0,1,0", "--out", tmp_path / "x.csv"]) == 1


@pytest.mark.parametrize("via", ["flag", "config"])
def test_malformed_grid_exits_one_as_argparse_names_it(via, tmp_path, capsys):
    out = tmp_path / "x.csv"
    conf = tmp_path / "run.conf"
    conf.write_text(f"kind=wigner\ngrid=0,1,0\nout={out}\n")
    args = ["field", "--kind", "wigner", "--grid=0,1,0", "--out", out] if via == "flag" else ["field", "--config", conf]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: argument --grid: grid must be xmin,xmax,ymin,ymax,nx,ny, got '0,1,0'\n"
    assert list(tmp_path.iterdir()) == [conf]


def test_field_rejects_non_finite_grid_bound(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run(["field", "--kind", "wigner", "--engine", "oracle", "--Gamma", 1,
              "--grid=-inf,6,-6,6,5,5", "--out", out])
    assert rc == 1
    assert "x_min must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_field_refuses_non_finite_values(tmp_path, monkeypatch, capsys):
    # one nan cell: refused by name before anything is written
    def nan_field(params, grid):
        values = np.zeros((grid.nx, grid.ny))
        values[1, 2] = math.nan
        return ScalarField(grid, values)

    monkeypatch.setattr(cf, "wigner_field", nan_field)
    out = tmp_path / "x.csv"
    rc = run(["field", "--kind", "wigner", "--Gamma", 40, "--grid=-24,24,-5,5,11,11", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert "wigner field at Gamma = 40 is not finite at (x, y) = (" in err
    assert "(x, y) = (-19.2, -3), first of 1 cells" in err
    assert list(tmp_path.iterdir()) == []


_REFUSED = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"


def _refused_allocation(*args, **kwargs):
    raise MemoryError(_REFUSED)  # numpy's error where the machine refuses an array


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_field_refused_allocation_exits_one(engine, tmp_path, monkeypatch, capsys):
    # a grid too large for the machine is a stated limit, not a traceback
    monkeypatch.setattr(cf, "wigner_field", _refused_allocation)
    monkeypatch.setattr(orc, "oracle_wigner", _refused_allocation)
    out = tmp_path / "x.csv"
    assert run(["field", "--kind", "wigner", "--engine", engine, "--grid=-1,1,-1,1,5,5", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {_REFUSED}\n"
    assert list(tmp_path.iterdir()) == []


def test_field_wigner_past_cross_term_underflow(tmp_path):
    # the grid on which the closed-form cross term once overflowed to nan
    out = tmp_path / "w.csv"
    assert run(["field", "--kind", "wigner", "--Gamma", 40, "--grid=-24,24,-5,5,11,11", "--out", out]) == 0
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert all(math.isfinite(meta[key]) for key in ("integral", "min", "max"))
    _, rows = read_csv(out)
    assert len(rows) == 121 and all(math.isfinite(float(r[2])) for r in rows)


_ODD_GRID = GridSpec(-1.3, 2.7, -0.9, 0.35, 7, 5)
_SPECIALS = (-0.0, 5e-324, -1e-300, 1.7976931348623157e308)


def _grid_arg(g):
    return f"--grid={g.x_min!r},{g.x_max!r},{g.y_min!r},{g.y_max!r},{g.nx},{g.ny}"


@pytest.mark.simd
@pytest.mark.parametrize("specials", [False, True])
def test_field_bytes_are_the_per_cell_17g_rendering(specials, tmp_path, monkeypatch):
    # x-major rows of "{:.17g}" cells on an odd non-square grid, in csv and in json; the two-row
    # grid has only a first and a last row, so every row separator of the streamed writer shows.
    # Blocks of 3 cells hold one row of 5 each, blocks of 10 two rows and a last one of one row
    p = MeasurementParams(Gamma=0.7, alpha=2.0, phi=0.3, gamma=1.2)
    for grid, block in itertools.product((_ODD_GRID, replace(_ODD_GRID, nx=2)), (fieldtext.BLOCK, 3, 10)):
        monkeypatch.setattr(fieldtext, "BLOCK", block)
        values = wigner_field(p, grid).values.copy()
        if specials:
            values.flat[[i % values.size for i in (0, 6, 17, 34)]] = _SPECIALS
            monkeypatch.setattr(cf, "wigner_field", lambda params, grid: ScalarField(grid, values))
        cells = [
            ("{:.17g}".format(x), "{:.17g}".format(y), "{:.17g}".format(v))
            for x, line in zip(grid.xs().tolist(), values.tolist())
            for y, v in zip(grid.ys().tolist(), line)
        ]
        args = ["field", "--kind", "wigner", "--Gamma", 0.7, "--alpha", 2.0, "--phi", 0.3, "--gamma", 1.2,
                _grid_arg(grid)]
        assert run(args + ["--out", tmp_path / "f.csv"]) == 0
        csv = "x,y_or_p,value\n" + "".join(f"{x},{y},{v}\n" for x, y, v in cells)
        assert (tmp_path / "f.csv").read_bytes() == csv.encode()
        assert run(args + ["--format", "json", "--out", tmp_path / "f.json"]) == 0
        rows = [{"x": x, "y_or_p": y, "value": v} for x, y, v in cells]
        assert (tmp_path / "f.json").read_bytes() == (json.dumps(rows, indent=0, sort_keys=True) + "\n").encode()


def _traced_peak(args):
    """main(args)'s exit code and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        rc = run(args)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_write_memory_is_bounded_by_a_row(fmt, tmp_path, monkeypatch):
    # the 401^2 file is 9.1 MiB (csv) or 14.8 MiB (json): formatted whole it peaked at 21.9 or 32.5 MiB
    grid = GridSpec(-6.0, 6.0, -6.0, 6.0, 401, 401)
    fld = wigner_field(MeasurementParams(Gamma=1.0, alpha=2.8, gamma=1.0), grid)
    monkeypatch.setattr(cf, "wigner_field", lambda params, grid: fld)
    out = tmp_path / f"w.{fmt}"
    rc, peak = _traced_peak(["field", "--kind", "wigner", "--format", fmt, _grid_arg(grid), "--out", out])
    assert rc == 0
    assert out.stat().st_size > 9 * 2**20
    # what remains is mostly the 1 MiB write buffer: the sidecar's integral takes blocks of rows
    assert peak < 2 * 2**20


@pytest.mark.parametrize("through_link", [False, True])
def test_field_failure_while_writing_leaves_no_file(through_link, tmp_path, monkeypatch, capsys):
    # a full disk at the third block of cells, when two blocks of rows are on disk: neither the
    # partial rows nor a sidecar stay, not even the sidecar of an earlier run at the same path;
    # through a symlink the file written is its target, and only the link stays
    out, g17, blocks = tmp_path / "w.csv", fieldtext.g17, []
    if through_link:
        out.symlink_to(tmp_path / "target.csv")
    args = ["field", "--kind", "wigner", "--Gamma", 1, "--alpha", 2.8, "--out", out]
    assert run(args) == 0

    def failing(v, cells):
        blocks.append(out.stat().st_size)
        if len(blocks) == 3:
            raise OSError(28, "No space left on device")
        g17(v, cells)

    monkeypatch.setattr(fieldtext, "g17", failing)
    assert run(args) == 1
    assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert blocks[-1] > 10**5
    assert list(tmp_path.iterdir()) == ([out] if through_link else [])


def test_field_sidecar_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the sidecar fails part way, after the rows are complete: neither file stays
    def failing(obj, fh, **kwargs):
        fh.write("{\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", failing)
    assert run(["field", "--kind", "wigner", "--Gamma", 1, "--alpha", 2.8, "--out", tmp_path / "w.csv"]) == 1
    assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_field_refuses_intensity_off_the_beam(engine, tmp_path, capsys):
    # far from the beam the intensity integrates to 0: refused before the division
    out = tmp_path / "x.csv"
    rc = run(["field", "--kind", "intensity", "--engine", engine, "--grid=100,110,100,110,3,3", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: intensity integrated to 0.000e+00 over the grid")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_non_finite_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "values", lambda quantity, points, *args, **kwargs: [math.nan] * len(points))
    out = tmp_path / "x.csv"
    rc = run(["sweep", "--quantity", "Q1", "--axis", "Gamma", "--start", 0, "--stop", 1, "--steps", 2,
              "--out", out])
    assert rc == 1
    assert "Q1 is not finite (nan) at Gamma = 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("runtime_warnings", ["default", "error"])
@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_sweep_refuses_a_point_where_postselection_fails(engine, runtime_warnings, tmp_path, capsys):
    # at Gamma = 0 the largest alpha below pi leaves no |H> component in float arithmetic: both engines refuse
    # the series by its postselection, with no RuntimeWarning raised on the way, whatever the filter
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter(runtime_warnings, RuntimeWarning)
        rc = run(["sweep", "--engine", engine, "--quantity", "Q1", "--axis", "alpha", "--start=0",
                  f"--stop={math.nextafter(math.pi, 0)!r}", "--steps=3", "--out", out])
    assert rc == 1
    assert "postselection" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("axis,evolved", [("alpha", 1), ("delta", 1), ("Gamma", 61)])
def test_oracle_sweep_evolves_each_pointer_once(axis, evolved, tmp_path, monkeypatch):
    # alpha and delta enter only at postselection: one pointer serves their whole axis
    calls = []
    evolve_joint = orc.evolve_joint

    def counting(pointer, params):
        calls.append(params)
        return evolve_joint(pointer, params)

    monkeypatch.setattr(orc, "evolve_joint", counting)
    assert run(["sweep", "--engine", "oracle", "--quantity", "chi", "--axis", axis, "--start", 0, "--stop", 2,
                "--steps", 61, "--alpha", 2.0, "--Gamma", 1.1, "--out", tmp_path / "chi.csv"]) == 0
    assert len(calls) == evolved


def test_oracle_sweep_derives_only_its_quantity(tmp_path, monkeypatch):
    # a sweep writes one quantity, so no other entry of the table is derived at its points
    def derived(p, e):
        raise AssertionError("a quantity the sweep does not write was derived")

    table = {name: derived for name in cli.validation.SCALAR_QUANTITIES}
    table["Q1"] = cli.validation.SCALAR_QUANTITIES["Q1"]
    monkeypatch.setattr(cli.validation, "SCALAR_QUANTITIES", table)
    out = tmp_path / "q1.csv"
    assert run(["sweep", "--engine", "oracle", "--quantity", "Q1", "--axis", "Gamma", "--start", 0, "--stop", 2,
                "--steps", 5, "--alpha", 2.0, "--out", out]) == 0
    assert all(row[2] for row in read_csv(out)[1])


@pytest.mark.parametrize("quantity", ["Q1", "lambda", "fidelity"])
def test_oracle_sweep_audits_every_point_whatever_it_reads(quantity, tmp_path):
    # the postselected pointer is audited once per point, also where the quantity reads no moment
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormDriftWarning)
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(TruncationWarning, match="at cutoff Na=14;"):
            run(["sweep", "--engine", "oracle", "--quantity", quantity, "--axis", "Gamma", "--start", 0, "--stop", 6,
                 "--steps", 13, "--alpha", 2.0, "--cutoff", 14, "--out", out])
    assert not out.exists()


def test_closed_forms_run_once_per_series_and_once_per_compare(tmp_path, monkeypatch):
    # a closed-form sweep makes the moments of all its points in one call, and so does
    # compare for the whole lattice; the oracle's per-point work is stubbed out
    calls = []
    expectations = cf.expectations

    def counting(params):
        calls.append(params)
        return expectations(params)

    monkeypatch.setattr(cf, "expectations", counting)
    assert run(["sweep", "--quantity", "chi", "--axis", "Gamma", "--start", 0, "--stop", 2, "--steps", 201,
                "--alpha", 2.0, "--out", tmp_path / "chi.csv"]) == 0
    assert [p.size for p in calls] == [201]
    calls.clear()
    zeros = ExpectationSet(*[0j] * len(ExpectationSet.field_names()))
    monkeypatch.setattr(orc, "_points", lambda points, na=None: (
        SimpleNamespace(lam=0.0, i1=0j, fidelity=0.0, moments=zeros, phi=(0j, 0j, 0j)) for p in points))
    cli.validation.compare(cli.validation.validation_params())
    assert [p.size for p in calls] == [300]


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure_fig3b_series(tmp_path):
    rc = run(["figure", "--name", "fig3b", "--outdir", tmp_path])
    assert rc == 0
    header, rows = read_csv(tmp_path / "fig3b.csv")
    gammas = {r[5] for r in rows}
    assert len(gammas) == 3  # one series per coupling strength
    assert all(r[1] == "Q1" for r in rows)


def test_figure_fig5_wigner_grids(tmp_path):
    rc = run(["figure", "--name", "fig5", "--outdir", tmp_path,
              "--grid=-4,4,-4,4,61,61"])
    assert rc == 0
    for i in (1, 2, 3):
        assert (tmp_path / f"fig5_c{i}.csv").exists()
        meta = json.loads((tmp_path / f"fig5_c{i}.csv.meta.json").read_text())
        assert meta["integral"] == pytest.approx(1.0, abs=1e-6)


def test_figure_stub_for_radial_axis(tmp_path):
    rc = run(["figure", "--name", "fig3a", "--outdir", tmp_path])
    assert rc == 0
    stub = (tmp_path / "fig3a_r_axis.stub.txt").read_text()
    assert stub.startswith("#")
    assert (tmp_path / "fig3a_fallback_gamma.csv").exists()


def _radial(name):
    return [f"{name}_fallback_gamma.csv", f"{name}_r_axis.stub.txt"]


def _with_sidecars(*names):
    return sorted(n + ext for n in names for ext in ("", ".meta.json"))


FIGURE_FILES = {
    "fig2": _with_sidecars(*(f"fig2_r{i}c{j}.csv" for i in (1, 2, 3) for j in (1, 2))),
    "fig3a": _radial("fig3a"),
    "fig3b": ["fig3b.csv"],
    "fig3c": _radial("fig3c"),
    "fig3d": ["fig3d.csv"],
    "fig4a": _radial("fig4a"),
    "fig4b": ["fig4b.csv"],
    "fig5": _with_sidecars("fig5_c1.csv", "fig5_c2.csv", "fig5_c3.csv"),
    "fig6a": ["fig6a.csv"],
    "fig6b": _radial("fig6b"),
    "fig6c": _radial("fig6c"),
    "fig7a": ["fig7a.csv"],
    "fig7b": ["fig7b.csv"],
}


def test_figure_preset_table_emits_pinned_files(tmp_path):
    # the radial-axis presets get a fallback gamma sweep plus a stub, field presets a
    # sidecar per field, every other preset one CSV named after it
    assert FIGURES == ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b",
                       "fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b")
    for name in FIGURES:
        d = tmp_path / name
        assert run(["figure", "--name", name, "--outdir", d, "--grid=-4,4,-4,4,21,21"]) == 0
        assert sorted(p.name for p in d.iterdir()) == FIGURE_FILES[name], name


def test_figure_unknown_name(tmp_path):
    assert run(["figure", "--name", "fig99", "--outdir", tmp_path]) == 1


def test_figure_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["figure", "--name", "fig7b", "--outdir", d]) == 0
    assert (a / "fig7b.csv").read_bytes() == (b / "fig7b.csv").read_bytes()


@pytest.mark.parametrize("kind", [pytest.param("sweep", marks=pytest.mark.simd), "field"])
def test_figure_presets_match_reference_digests(kind, tmp_path):
    # the byte contract: every preset's files on the default grid, as the benchmark's reference
    # records them.  CI reruns the sweep presets with numpy's AVX2 and AVX-512 kernels switched
    # off, where their bytes hold; the field presets' np.exp over a grid rounds with the kernels
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        digests = json.load(fh)["figures"]
    names = [name for name in FIGURES if (len(cli._FIGURE_PRESETS[name]) == 3) == (kind == "sweep")]
    for name in names:
        assert run(["figure", "--name", name, "--outdir", tmp_path]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == {
        fname: digest for fname, digest in digests.items() if fname.split("_")[0].split(".")[0] in names}


@pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a",
                                  "fig4b", "fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b"])
def test_figure_engine_agreement(name, tmp_path):
    # every preset produces engine-agreeing values (and matching undefined rows)
    dirs = {}
    for engine in ("closedform", "oracle"):
        d = tmp_path / engine
        assert run(["figure", "--name", name, "--outdir", d,
                    "--engine", engine, "--grid=-4,4,-4,4,31,31"]) == 0
        dirs[engine] = d
    files = sorted(p.name for p in dirs["closedform"].iterdir() if p.suffix == ".csv")
    assert files
    for fname in files:
        _, ra = read_csv(dirs["closedform"] / fname)
        _, rb = read_csv(dirs["oracle"] / fname)
        assert len(ra) == len(rb)
        for row_a, row_b in zip(ra, rb):
            va, vb = row_a[2], row_b[2]  # value column in sweep and field layouts
            if va == "" or vb == "":
                assert va == vb  # undefined in one engine means undefined in both
            else:
                assert abs(float(va) - float(vb)) < 1e-6


# ---------------------------------------------------------------------------
# config file and exit codes
# ---------------------------------------------------------------------------

def test_config_file_supplies_all_options(tmp_path):
    conf = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    conf.write_text(
        "quantity=lambda\naxis=Gamma\nstart=0\nstop=1\nsteps=4\n"
        f"alpha=1.0\nout={out}\n# comment line\n\n"
    )
    assert run(["sweep", "--config", conf]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4


def test_config_overrides_parameter_defaults(tmp_path):
    conf = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    conf.write_text(
        "quantity=fidelity\naxis=alpha\nstart=0\nstop=2\nsteps=3\n"
        f"Gamma=1.0\nphi=1.5707963267948966\nengine=oracle\nout={out}\n"
    )
    assert run(["sweep", "--config", conf]) == 0
    _, rows = read_csv(out)
    assert all(r[5] == "1" for r in rows)        # Gamma column reflects the config
    assert all(r[4] == "oracle" for r in rows)   # engine too
    assert float(rows[-1][2]) < 1.0              # nonzero coupling moved fidelity


def test_flag_overrides_config(tmp_path):
    conf = tmp_path / "run.conf"
    out_conf = tmp_path / "from_conf.csv"
    out_flag = tmp_path / "from_flag.csv"
    conf.write_text(f"quantity=lambda\naxis=Gamma\nstart=0\nstop=1\nsteps=4\nalpha=1.0\nout={out_conf}\n")
    assert run(["sweep", "--config", conf, "--out", out_flag]) == 0
    assert out_flag.exists() and not out_conf.exists()


def test_flag_at_default_value_overrides_config(tmp_path):
    conf = tmp_path / "run.conf"
    out = tmp_path / "out.csv"
    conf.write_text("quantity=lambda\naxis=Gamma\nstart=0\nstop=1\nsteps=3\n"
                    f"alpha=1.0\nengine=oracle\nout={out}\n")
    assert run(["sweep", "--config", conf, "--alpha", 0.0, "--engine", "closedform"]) == 0
    _, rows = read_csv(out)
    assert all(r[6] == "0" for r in rows)             # alpha from the flag, not the file
    assert all(r[4] == "closedform" for r in rows)    # engine too


@pytest.mark.parametrize("line", ["steps=many", "engine=abacus", "func=x", "default_out=x",
                                  "command=field", "quantity=Q9", "axis=sigma", "config=x"])
def test_bad_config_value_or_key_exits_one(line, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(f"quantity=lambda\naxis=Gamma\nstart=0\nstop=1\nsteps=3\n{line}\n")
    assert run(["sweep", "--config", conf, "--out", tmp_path / "x.csv"]) == 1


def test_unknown_config_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mystery=1\n")
    assert run(["sweep", "--config", conf]) == 1


@pytest.mark.parametrize("args", [
    ["validate", "--engine", "oracle"],
    ["validate", "--format", "json"],
    ["validate", "--grid=-4,4,-4,4,21,21"],
    ["figure", "--name", "fig3b", "--out", "x"],
    ["figure", "--name", "fig3b", "--format", "json"],
    ["sweep", "--quantity", "lambda", "--axis", "Gamma", "--start", 0, "--stop", 1, "--steps", 3,
     "--grid=-4,4,-4,4,21,21"],
    ["field", "--kind", "heat", "--grid=-4,4,-4,4,21,21"],  # a value outside the option's choices
])
def test_option_the_command_does_not_read_exits_one(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 1
    assert list(tmp_path.iterdir()) == []


def test_validate_config_key_it_does_not_read_exits_one(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(f"engine=oracle\nout={tmp_path / 'report.json'}\n")
    assert run(["validate", "--config", conf]) == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("args, limit", [
    (["sweep", "--engine", "oracle", "--quantity", "Q1", "--axis", "Gamma",
      "--start", 0, "--stop", 80, "--steps", 3], "Gamma > 74.83"),
    (["field", "--kind", "wigner", "--engine", "oracle", "--Gamma", 80], "Gamma > 74.83"),
    *[(args + ["--cutoff", na], f"need na >= 2 to hold the one-photon component, got {na}")
      for na in (1, -5, 0)
      for args in (["sweep", "--engine", "oracle", "--quantity", "Q1", "--axis", "Gamma",
                    "--start", 0, "--stop", 1, "--steps", 3],
                   ["field", "--kind", "wigner", "--engine", "oracle", "--grid=-4,4,-4,4,5,5"],
                   ["validate"])],
    (["sweep", "--engine", "oracle", "--quantity", "weak_value", "--axis", "Gamma",
      "--start", 0, "--stop", 1, "--steps", 3, "--cutoff", 1],
     "need na >= 2 to hold the one-photon component, got 1"),
])
def test_library_limit_exits_one_with_message(args, limit, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and limit in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("args", [
    ["sweep", "--quantity", "Q1", "--axis", "Gamma", "--start", 0, "--stop", 1, "--steps", 3],
    ["field", "--kind", "wigner", "--grid=-4,4,-4,4,5,5"],
    ["figure", "--name", "fig3b"],
], ids=["sweep", "field", "figure"])
def test_cutoff_with_closed_form_engine_exits_one(args, via, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("cutoff=60\n")
    assert run(args + (["--cutoff", 60] if via == "flag" else ["--config", conf])) == 1
    assert "oracle-only" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [conf]


def test_missing_required_options_exit_one(tmp_path):
    assert run(["sweep", "--quantity", "Q1", "--axis", "Gamma"]) == 1


@pytest.mark.parametrize("args, missing", [
    (["sweep", "--quantity", "Q1"], "--axis, --start, --stop, --steps"),
    (["sweep"], "--quantity, --axis, --start, --stop, --steps"),
    (["field", "--Gamma", 1], "--kind"),
    (["figure", "--outdir", "."], "--name"),
])
def test_missing_required_option_is_named_by_argparse(args, missing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: the following arguments are required: {missing}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_help_lists_its_required_options_without_brackets(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--help"])
    assert exc.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n", 1)[0].split())
    for name in ("--quantity {", "--axis {", "--start START", "--stop STOP", "--steps STEPS"):
        assert name in usage and "[" + name not in usage, name
    assert "[--out OUT]" in usage and "[--config CONFIG]" in usage


def test_config_is_read_after_the_command_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("quantity=lambda\naxis=Gamma\nstart=0\nstop=1\nsteps=3\n")
    assert run(["--config", conf, "sweep"]) == 1
    assert list(tmp_path.iterdir()) == [conf]
    assert run(["sweep", f"--config={conf}"]) == 0
    assert len(read_csv(tmp_path / "sweep.csv")[1]) == 3


@pytest.mark.parametrize("command", ["sweep", "field", "validate", "figure"])
def test_unwritable_output_exits_one(command, tmp_path, monkeypatch, capsys):
    # validate fails at once, before any comparison
    monkeypatch.setattr(cli.validation, "compare", _never_called)
    missing = tmp_path / "nodir" / "out.csv"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    args = {
        "sweep": ["sweep", "--quantity", "Q1", "--axis", "Gamma", "--start", 0, "--stop", 1, "--steps", 2,
                  "--out", missing],
        "field": ["field", "--kind", "intensity", "--grid=-4,4,-4,4,5,5", "--out", missing],
        "validate": ["validate", "--out", missing],
        "figure": ["figure", "--name", "fig7a", "--outdir", a_file / "x"],
    }[command]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_error_exit_one():
    assert main(["not-a-command"]) == 1


def test_console_entry_point_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "oampointer.cli", "sweep", "--quantity", "lambda",
         "--axis", "Gamma", "--start", "0", "--stop", "1", "--steps", "2",
         "--alpha", "1.0", "--out", os.devnull],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the README's library example, split API included, is code that runs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        code = fh.read().split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "nonpostselected_moments(joint, p)" in code
    exec(compile(code, "README.md", "exec"), {})


def test_library_import_loads_no_scipy():
    # scipy is a test-only reference; importing it would add about 0.3 s to every command
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, oampointer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_library_import_loads_no_fractions_or_decimal(tmp_path):
    # fieldtext's table of powers comes from ints (importing fractions cost 0.8 MB of RSS), and cli
    # loads fieldtext, and builds the table, only when it writes a field
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\nfrom oampointer.cli import main\nprint('oampointer.fieldtext' in sys.modules)\n"
            f"assert main(['field', '--kind', 'wigner', '--grid=-4,4,-4,4,21,21', '--out', {str(tmp_path / 'w.csv')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m in ('fractions', 'decimal')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "[]"


def test_oracle_wigner_field_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use: 15 ms and 0.5 MB that the Wigner kernel does not need
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\nfrom oampointer.cli import main\n"
            "assert main(['field', '--kind', 'wigner', '--engine', 'oracle', '--Gamma', '1', '--alpha', '2.8',"
            f" '--grid=-4,4,-4,4,21,21', '--out', {str(tmp_path / 'w.csv')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_every_export_resolves():
    # each layer's __all__ names only what the layer defines, and the package
    # imports only names that are some layer's __all__
    import oampointer

    for layer in ("fock", "measurement", "closedform", "oracle", "validation", "cli"):
        mod = importlib.import_module(f"oampointer.{layer}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], layer
    with open(oampointer.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"oampointer.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_report():
    """The report of a default validate run, built once for the tests that patch compare to return it."""
    return validation.compare(validation.validation_params(), field_params=validation.field_check_points())


def test_validate_default_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["validate", "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["tolerances"] == {"abs": 1e-10, "rel": 1e-8}
    assert data["summary"]["moment:a"]["fail"] == 0
    assert data["summary"]["published:moment:adag2a2"]["fail"] > 0
    assert data["summary"]["wigner:field_maxdev"]["fail"] == 0


@pytest.mark.parametrize("value", ["inf", "nan", "-1e-3"])
@pytest.mark.parametrize("option", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_validate_refuses_tolerance_that_checks_nothing(via, option, value, tmp_path, monkeypatch, capsys):
    def evaluated(*args, **kwargs):
        raise AssertionError("evaluated before the tolerance was checked")

    monkeypatch.setattr(orc, "_points", evaluated)
    out = tmp_path / "report.json"
    flag = "--" + option.replace("_", "-")
    if via == "flag":
        args = ["validate", "--out", out, f"{flag}={value}"]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"{option}={value}\nout={out}\n")
        args = ["validate", "--config", conf]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert f"{flag}: must be a finite number >= 0, got '{value}'" in err
    assert not out.exists()


@pytest.mark.parametrize("failure", ["self-check", "error"])
def test_validate_failure_leaves_no_report(failure, tmp_path, monkeypatch, capsys):
    def compare(*args, **kwargs):
        if failure == "self-check":  # a per-point truncation audit trips
            warnings.warn("top Fock level holds amplitude 1e-3 at cutoff Na=9; increase the cutoff",
                          TruncationWarning)
        else:
            raise ValueError("a library limit")

    monkeypatch.setattr(cli.validation, "compare", compare)
    out = tmp_path / "report.json"
    assert run(["validate", "--out", out]) == (2 if failure == "self-check" else 1)
    err = capsys.readouterr().err
    assert ("cutoff self-check FAILED: top Fock level" if failure == "self-check" else "error: a library limit") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("na, user_filter", [(14, None), (16, None), (19, None), (19, "ignore")])
def test_validate_cutoff_self_check_is_the_per_point_audit(na, user_filter, tmp_path, capsys):
    # 14 truncates at once, 16 and 19 only at some lattice points: any tripped audit stops the run,
    # also under a user's filter that ignores warnings
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        if user_filter:
            warnings.simplefilter(user_filter)
        assert run(["validate", "--cutoff", na, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "cutoff self-check FAILED" in err and f"Na={na}" in err
    assert list(tmp_path.iterdir()) == []


def test_validate_cutoff_self_check_names_the_point(tmp_path, capsys):
    # the message names the first lattice point whose audit trips, as well as the cutoff
    with warnings.catch_warnings():
        warnings.simplefilter("error", NormDriftWarning)
        warnings.simplefilter("error", TruncationWarning)
        for p in cli.validation.validation_params():
            try:
                cli.validation.oracle_quantities(p, na=14)
            except (NormDriftWarning, TruncationWarning):
                break
    assert run(["validate", "--cutoff", 14, "--out", tmp_path / "report.json"]) == 2
    err = capsys.readouterr().err
    assert "cutoff self-check FAILED" in err and "Na=14" in err and f"at {p}\n" in err


@pytest.mark.parametrize("whitelist,rc", [("", 2), ("chi[x2=operator], published:*", 0)], ids=["empty", "spaced"])
def test_validate_empty_whitelist_allows_no_failure(whitelist, rc, tmp_path):
    # the published residuals fail, and only a whitelist naming them lets them; spaces around items are ignored
    out = tmp_path / "report.json"
    assert run(["validate", "--out", out, "--whitelist", whitelist]) == rc
    assert json.loads(out.read_text())["summary"]["published:moment:adag2a2"]["fail"] > 0


def test_validate_impossible_tolerance_exits_two(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["validate", "--out", out, "--abs-tol", 0, "--rel-tol", 0])
    assert rc == 2


def test_validate_exits_two_where_one_engine_is_undefined(tmp_path, monkeypatch, capsys):
    # the closed-form g2 made undefined at a point where the oracle's is defined: a failure, not an undefined entry
    g2 = validation.SCALAR_QUANTITIES["g2"]

    def closed_undefined(p, e):
        if isinstance(e, validation._ClosedPrimitives):
            raise cf.UndefinedCorrelationError("")
        return g2(p, e)

    monkeypatch.setitem(validation.SCALAR_QUANTITIES, "g2", closed_undefined)
    point = MeasurementParams(Gamma=0.3, alpha=2.0, phi=math.pi / 2, gamma=1.0)
    monkeypatch.setattr(validation, "validation_params", lambda: [point])
    monkeypatch.setattr(validation, "field_check_points", lambda: [])
    out = tmp_path / "report.json"
    assert run(["validate", "--out", out]) == 2
    assert "validation FAILED: 1 non-whitelisted failures" in capsys.readouterr().err
    (entry,) = [e for e in json.loads(out.read_text())["entries"] if e["quantity"] == "g2"]
    assert (entry["status"], entry["reason"], entry["closed"]) == ("fail", "one engine undefined", None)
    assert entry["oracle"] == validation.oracle_quantities(point)["g2"]


@pytest.mark.parametrize("which", ["default", "empty"])
def test_validate_report_file_is_to_json(which, default_report, tmp_path, monkeypatch):
    # the streamed report holds the bytes of the joined one
    rep = default_report if which == "default" else cli.validation.ValidationReport(abs_tol=0.0, rel_tol=1.0)
    monkeypatch.setattr(cli.validation, "compare", lambda *args, **kwargs: rep)
    out = tmp_path / "report.json"
    assert run(["validate", "--out", out]) == 0
    assert out.read_bytes() == (rep.to_json() + "\n").encode()


def test_validate_write_memory_is_bounded_by_an_entry(default_report, tmp_path, monkeypatch, capsys):
    # the 3.0 MiB report joined whole, then encoded, peaks at 6.6 MiB; streamed, what the run holds
    # besides the fixed write buffer (which tracemalloc also counts) is about 0.35 MiB
    monkeypatch.setattr(cli.validation, "compare", lambda *args, **kwargs: default_report)
    out = tmp_path / "report.json"
    rc, peak = _traced_peak(["validate", "--out", out])
    assert rc == 0
    assert out.stat().st_size > 3 * 10**6
    assert peak - cli._WRITE_BUFFER < 2**20


def test_validate_failure_while_writing_leaves_no_report(default_report, tmp_path, monkeypatch, capsys):
    # a write that fails part way removes what it wrote: here after 5000 entries, about 1.4 MiB,
    # so the first full write buffer is already on disk
    chunks = cli.validation.ValidationReport.json_chunks

    def failing(self, summary):
        yield from itertools.islice(chunks(self, summary), 5000)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.validation, "compare", lambda *args, **kwargs: default_report)
    monkeypatch.setattr(cli.validation.ValidationReport, "json_chunks", failing)
    assert run(["validate", "--out", tmp_path / "report.json"]) == 1
    assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stage", ["compare", "write"])
def test_validate_refused_allocation_leaves_no_report(stage, default_report, tmp_path, monkeypatch, capsys):
    # refused while comparing, or part way through writing (after about 1.4 MiB are on disk): exit 1, no report
    chunks = cli.validation.ValidationReport.json_chunks

    def failing(self, summary):
        yield from itertools.islice(chunks(self, summary), 5000)
        raise MemoryError(_REFUSED)

    if stage == "compare":
        monkeypatch.setattr(cli.validation, "compare", _refused_allocation)
    else:
        monkeypatch.setattr(cli.validation, "compare", lambda *args, **kwargs: default_report)
        monkeypatch.setattr(cli.validation.ValidationReport, "json_chunks", failing)
    assert run(["validate", "--out", tmp_path / "report.json"]) == 1
    assert capsys.readouterr().err == f"error: {_REFUSED}\n"
    assert list(tmp_path.iterdir()) == []
