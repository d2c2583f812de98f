"""Prints one pass/fail line per acceptance criterion after the run, and fixes
the Hypothesis profile of the property tests."""
import re

from hypothesis import settings

# The same examples on every run, so a property test fails or passes as
# repeatably as the rest of tier-1; no deadline, as a cold first call can be slow.
settings.register_profile("derandomized", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("derandomized")

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        num = int(m.group(1))
        _ACCEPTANCE[num] = (report.outcome, report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        outcome, nodeid = _ACCEPTANCE[num]
        label = nodeid.split("::")[-1].replace(f"test_criterion_{num:02d}_", "").replace(
            f"test_criterion_{num}_", "").replace("_", " ")
        status = "PASS" if outcome == "passed" else "FAIL"
        tw.write_line(f"criterion {num:2d} [{status}] {label}")
