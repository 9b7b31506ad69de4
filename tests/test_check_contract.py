"""The summary checks of ``tools/check_contract.py`` on canned output (no suite
is run)."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("check_contract",
                                               _ROOT / "tools" / "check_contract.py")
check_contract = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_contract)

DEVIATIONS = ["test_criterion_04_momentum_variant_reverses_conservation_roles",
              "test_criterion_06_nls_broken_odd_degree_momentum_defect"]
HEADER = "=========================== short test summary info ============================\n"
CRITERION_04 = f"FAILED tests/test_acceptance.py::{DEVIATIONS[0]} - AssertionError: cg-momentum\n"
CRITERION_06 = f"FAILED tests/test_acceptance.py::{DEVIATIONS[1]} - AssertionError: p=1\n"
EXTRA = "FAILED tests/test_solver.py::test_linear_slab_is_one_step - assert 2 == 1\n"


def test_the_known_deviations_are_read_from_the_readme():
    readme = (_ROOT / "README.md").read_text()
    assert check_contract.known_deviations(readme) == DEVIATIONS


def test_the_two_deviations_failing_alone_hold():
    output = ("...F....F..\n" + HEADER + CRITERION_04 + CRITERION_06
              + "2 failed, 773 passed in 11.92s\n")
    assert check_contract.pytest_problems(output, DEVIATIONS) == []


def test_one_extra_failure_is_rejected():
    output = HEADER + CRITERION_04 + EXTRA + CRITERION_06 + "3 failed, 772 passed in 11.92s\n"
    problems = check_contract.pytest_problems(output, DEVIATIONS)
    assert problems == ["unexpected failure: tests/test_solver.py::test_linear_slab_is_one_step"]


def test_a_deviation_that_passes_is_rejected():
    output = HEADER + CRITERION_04 + "1 failed, 774 passed in 11.92s\n"
    problems = check_contract.pytest_problems(output, DEVIATIONS)
    assert problems == [f"known deviation did not fail once: {DEVIATIONS[1]} (0 times)"]


def test_skips_errors_and_a_missing_summary_are_rejected():
    skipped = HEADER + CRITERION_04 + CRITERION_06 + "2 failed, 772 passed, 1 skipped in 11s\n"
    assert check_contract.pytest_problems(skipped, DEVIATIONS) == ["1 skipped"]
    error = "ERROR tests/test_mesh.py - ImportError\n"
    errored = HEADER + CRITERION_04 + CRITERION_06 + error + "2 failed, 760 passed, 1 error in 9s\n"
    assert check_contract.pytest_problems(errored, DEVIATIONS) == \
        ["unexpected failure: tests/test_mesh.py"]
    unlisted = CRITERION_04 + "3 failed, 772 passed in 11.92s\n"
    assert len(check_contract.pytest_problems(unlisted, DEVIATIONS)) == 2
    assert check_contract.pytest_problems("Traceback (most recent call last):\n", []) == \
        ["no pytest summary line with passing tests"]


def test_verify_must_pass_every_property_group():
    assert check_contract.verify_problems("19/19 property groups passed\n", 0) == []
    assert check_contract.verify_problems("18/19 property groups passed\n", 1) == \
        ["verify exited 1", "verify passed 18/19 property groups, want 19/19"]
    assert check_contract.verify_problems("", 1) == ["verify printed no property-group summary"]


def test_the_runs_deselect_nothing():
    for command in (check_contract.TIER1, check_contract.PERFBENCH, check_contract.VERIFY):
        assert not {"-k", "--deselect", "--ignore", "-x"} & set(command)
