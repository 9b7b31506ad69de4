"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

They check that the exact counters repeat across traced runs, that the
correctness gate rejects wrong output, how a run's repeats become the
end-to-end metrics, that the calibration process answers and ends, and that
the benchmark refuses to run without a source tree.  The counter test runs each workload twice (about a
minute in all).
"""

import shutil
import subprocess
import sys

import pytest

import bench

EXACT_COUNTERS = ("solver.newton_iterations", "solver.residual_calls",
                  "solver.jacobian_calls", "solver.unknowns", "solver.jacobian_density")


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_exact_counters_repeat_across_traced_runs(workload):
    counters = []
    for k in range(2):
        record = bench.run_repeat(workload, True, f"selftest-{workload}-{k}", timeout=170.0)
        assert record["ok"], record["reason"]
        assert record["missing"] == []
        metrics, _ = bench.layer_metrics(record)
        counters.append({name: metrics[name] for name in EXACT_COUNTERS})
    assert counters[0] == counters[1]
    assert all(value > 0 for value in counters[0].values()), counters[0]


def test_convergence_gate_rejects_drift_and_non_decreasing_errors():
    reference = bench.REFERENCE["lwave-converge"]["convergence"]
    assert bench.check_convergence(reference, reference) is None

    drifted = [dict(row) for row in reference]
    drifted[-1]["e_u"] *= 1.0 + 10 * bench.CONVERGENCE_RTOL
    assert "differs" in bench.check_convergence(drifted, reference)

    stalled = [dict(row) for row in reference]
    stalled[-1]["e_v"] = stalled[-2]["e_v"]
    assert "strictly decrease" in bench.check_convergence(stalled, reference)

    assert "levels" in bench.check_convergence(reference[:-1], reference)


def test_invariant_gate_rejects_large_deviation_and_failure_rows():
    bounds = {"dev_energy": 1e-9, "dev_momentum": 1e-3}
    rows = [{"t": 0.0, "dev_energy": 0.0, "dev_momentum": 0.0},
            {"t": 0.1, "dev_energy": 1e-9, "dev_momentum": 1e-3}]
    assert bench.check_invariants(rows, 2, bounds) is None
    assert "rows" in bench.check_invariants(rows, 3, bounds)

    rows[1]["dev_energy"] = 2e-9
    assert bench.check_invariants(rows, 2, bounds).startswith("dev_energy")
    rows[1]["dev_energy"] = float("nan")
    assert "non-finite" in bench.check_invariants(rows, 2, bounds)


def test_scaled_divides_by_slowdown_with_median_run_and_minimum_setup():
    def record(run, setup, rss, slowdown):
        spans = [["cli.main", 0.0, run, None, None],
                 ["solver.assembler_init", 0.0, setup, 0, 100]]
        return {"spans": spans, "peak_rss_mb": rss, "slowdown": slowdown}

    metrics = bench.scaled([record(4.0, 0.2, 200.0, 2.0), record(3.0, 0.3, 210.0, 1.0),
                            record(1.0, 0.1, 205.0, 0.5)])
    assert metrics == {"run_s": 2.0, "setup_s": 0.1, "peak_rss_mb": 205.0}


def test_calibrator_reports_a_slowdown_and_ends_its_process():
    with bench.Calibrator() as calibrator:
        assert calibrator.slowdown() > 0
        assert calibrator.slowdown() > 0
    assert calibrator.proc.returncode == 0


def test_refuses_to_run_without_a_source_tree():
    bare = bench.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(bench.HERE, bare / bench.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{bench.HERE.name}/bench.py", "--workload", "nls-dg",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
