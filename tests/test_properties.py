"""Property tests over the legal domain, drawn under the derandomized profile of conftest.py."""
import cmath
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oampointer.closedform import squeezing
from oampointer.fock import displacement_matrix
from oampointer.oracle import oracle_quantities, validation_params


@given(
    r=st.floats(0.0, math.sqrt(300.0)),
    theta=st.floats(-math.pi, math.pi),
    dim=st.integers(1, 400),
    data=st.data(),
    Gamma=st.floats(0.0, 74.0),
    point=st.sampled_from(validation_params()),
)
def test_column_block_and_oracle_squeezing(r, theta, dim, data, Gamma, point):
    alpha = r * cmath.exp(1j * theta)
    cols = data.draw(st.integers(1, dim), label="cols")
    block = displacement_matrix(alpha, dim, cols=cols)
    assert np.array_equal(block, displacement_matrix(alpha, dim)[:, :cols])

    # oracle Q1 against the closed form at validate's tolerances (abs 1e-10 or rel 1e-8)
    p = replace(point, Gamma=Gamma)
    q1, ref = oracle_quantities(p)["Q1"], squeezing(p)[0]
    delta = abs(q1 - ref)
    assert delta <= 1e-10 or delta <= 1e-8 * max(abs(q1), abs(ref))


def test_failing_property_test_reports_its_example(tmp_path):
    # Hypothesis's failure report imports libcst and so mypy_extensions, whose
    # DeprecationWarning the suite's error filter would turn into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
