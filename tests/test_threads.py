"""The package's BLAS thread policy: numpy's OpenBLAS loads with one thread unless the caller chose a count."""
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(code, **caller):
    """Run code in a fresh interpreter whose environment sets, of the thread variables, only caller's."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(caller, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
                    reason="the policy is OpenBLAS's thread variables")
@pytest.mark.parametrize("caller, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
                                             ({"OMP_NUM_THREADS": "2"}, 2)],
                         ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
def test_import_loads_one_blas_thread_unless_the_caller_chose(caller, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than the process has cores")
    code = ("import os\nbefore = dict(os.environ)\nimport oampointer\n"
            "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")
    assert _python(code, **caller) == f"{threads} True\n"


def test_output_bytes_do_not_depend_on_the_blas_pool(tmp_path):
    # the sweep reaches cutoff 1849; the field's K = 441 outer product is large enough to thread
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        _python("from oampointer.cli import main\n"
                "assert main(['sweep', '--engine', 'oracle', '--quantity', 'Q1', '--axis', 'Gamma', '--start=0',"
                f" '--stop=74', '--steps=3', '--alpha=2.2', '--delta=0.6', '--out', {str(out / 'q1.csv')!r}]) == 0\n"
                "assert main(['field', '--kind', 'wigner', '--engine', 'oracle', '--Gamma=30', '--alpha=2.2',"
                f" '--grid=-4,4,-4,4,5,5', '--out', {str(out / 'w.csv')!r}]) == 0\n",
                OPENBLAS_NUM_THREADS=threads)
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(files["1"]) == ["q1.csv", "w.csv", "w.csv.meta.json"]
    assert files["1"] == files["2"]
