"""The two routes in structure: the import graph, read from the sources, and the call counts
that the benchmark's traced runs check."""
import ast
import importlib.util
from pathlib import Path

from oampointer import cli, validation

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oampointer"

# the package root's public names: every layer's API that a user imports from oampointer
PUBLIC_NAMES = {
    "DegenerateShiftError", "ExpectationSet", "FieldConsistencyError", "GridSpec", "JointState",
    "MeasurementParams", "NormDriftWarning", "ParamSeries", "PostselectionError", "ReportEntry", "ScalarField",
    "TruncationWarning", "TwoModeState", "UndefinedCorrelationError", "ValidationReport", "VarianceCollapseError",
    "WeakValue", "compare", "coordinate_wavefunction", "default_cutoff", "displacement_matrix", "evolve_joint",
    "expectations", "fidelity", "g2_cross", "hermite_functions", "initial_pointer", "inner", "intensity_field",
    "lambda_norm", "nonpostselected_moments", "oracle_expectations", "oracle_intensity", "oracle_quantities",
    "oracle_states", "oracle_wigner", "phi_moments", "postselect", "projected_wavefunction",
    "published_intensity", "published_scalars", "snr_ratio", "squeezing", "validation_params", "weak_value",
    "wigner_field",
}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module):
    """The package modules one module imports by relative import, anywhere in its source."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else (a.name for a in node.names))
    return out


def _reach(module):
    """Every package module one module imports, directly or through the modules it imports."""
    seen, todo = set(), [module]
    while todo:
        new = _imports(todo.pop()) - seen
        seen |= new
        todo += new
    return seen


def test_each_route_reaches_only_its_own_layers():
    # the oracle shares no line with the closed forms, and neither route reads the validation layer
    assert _reach("oracle") == {"fock", "measurement"}
    assert _reach("closedform") == {"fock", "measurement"}


def test_cli_reaches_both_routes_only_through_validation():
    # the CLI chooses no engine itself, and measurement, which holds ParamSeries, reads fock alone
    assert not _imports("cli") & {"oracle", "closedform"}
    assert _reach("measurement") == {"fock"}


def test_package_root_keeps_its_public_names():
    body = _tree("__init__").body
    names = {a.asname or a.name for node in body if isinstance(node, ast.ImportFrom) for a in node.names}
    names |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets}
    assert {name for name in names if not name.startswith("_")} == PUBLIC_NAMES


def _traced_calls(fn):
    """fn() under perfbench's Tracer, unchanged: fn's result and the calls counted per span."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.calls


def test_traced_call_counts_of_the_benchmark_hold(tmp_path):
    # the traced benchmark checks 2 displacement_matrix and 1 evolve_joint calls per oracle sweep point
    # (I1 is made with each pointer) and 1 oracle_wigner call per validate field point (a call made
    # through a name imported from oracle would escape the tracer's patch and count 0)
    sweep = ["sweep", "--engine", "oracle", "--quantity", "Q1", "--axis", "Gamma", "--start=0", "--stop=30",
             "--steps=11", "--alpha=2.2", "--delta=0.6", "--phi=0.9", "--gamma=1.3", "--out", str(tmp_path / "q1.csv")]
    rc, calls = _traced_calls(lambda: cli.main(sweep))
    assert rc == 0
    assert (calls["fock.displacement_matrix"], calls["measurement.evolve_joint"]) == (22, 11)
    points = validation.field_check_points()[:2]
    report, calls = _traced_calls(lambda: validation.compare(points[:1], field_params=points))
    assert sum(e.quantity == "wigner:field_maxdev" for e in report.entries) == 2
    assert calls["oracle.oracle_wigner"] == 2
