"""CLI: sweeps, fields, figures, validation command, config handling."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oampointer.cli import main

pytestmark = pytest.mark.usefixtures("tmp_path")


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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


def test_sweep_rejects_out_of_domain_axis(tmp_path):
    rc = run(["sweep", "--quantity", "Q1", "--axis", "alpha",
              "--start", 0, "--stop", math.pi, "--steps", 3, "--out", tmp_path / "x.csv"])
    assert rc == 1  # alpha = pi is outside the open interval


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
    from oampointer.oracle import oracle_quantities

    closed = {
        "Q1": lambda p: cf.squeezing(p)[0],
        "Q2": lambda p: cf.squeezing(p)[1],
        "g2": cf.g2_cross,
        "chi": lambda p: cf.snr_ratio(p, 1)[0],
        "fidelity": cf.fidelity,
        "lambda": cf.lambda_norm,
        "weak_value": lambda p: weak_value(p.alpha, p.delta).value.real,
    }
    oracle = {
        "Q1": lambda r: (r.q1, None),
        "Q2": lambda r: (r.q2, None),
        "g2": lambda r: (r.g2, r.g2_reason),
        "chi": lambda r: (r.chi, r.chi_reason),
        "fidelity": lambda r: (r.fidelity, None),
        "lambda": lambda r: (r.lam, None),
    }

    def expected(quantity, p):
        if engine == "oracle" and quantity in oracle:
            return oracle[quantity](oracle_quantities(p))
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


def test_field_rejects_non_finite_grid_bound(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run(["field", "--kind", "wigner", "--engine", "oracle", "--Gamma", 1,
              "--grid=-inf,6,-6,6,5,5", "--out", out])
    assert rc == 1
    assert "x_min must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    from oampointer.cli import FIGURES

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
                                  "command=field"])
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
])
def test_library_limit_exits_one_with_message(args, limit, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and limit in captured.err
    assert "self-check ok" not in captured.out
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


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_default_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["validate", "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["tolerances"] == {"abs": 1e-10, "rel": 1e-8}
    assert data["summary"]["moment:a"]["fail"] == 0
    assert data["summary"]["published:moment:adag2a2"]["fail"] > 0
    assert data["summary"]["wigner:field_maxdev"]["fail"] == 0


def test_validate_impossible_tolerance_exits_two(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["validate", "--out", out, "--abs-tol", 0, "--rel-tol", 0])
    assert rc == 2
