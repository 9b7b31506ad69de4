"""The paired-run statistics and argument handling of ``tools/ab_bench.py`` (no
benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_wins_every_pair_and_clears_the_spread():
    change = [value - 0.10 for value in PARENT]
    row = ab_bench.compare(PARENT, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["gain"] and row["verdict"] == "ok"
    assert row["ratio"] == pytest.approx(0.9, abs=1e-3)


def test_ties_count_for_neither_side_and_no_gain():
    row = ab_bench.compare(PARENT, list(PARENT), "lower", 0.25)
    assert (row["wins"], row["losses"]) == (0, 0)
    assert not row["gain"] and row["verdict"] == "ok"


def test_nine_wins_within_the_spread_is_no_gain():
    # Wins in nine pairs of ten, but the medians differ by less than the
    # parent's interquartile range.
    change = [value - 0.001 for value in PARENT]
    change[0] = PARENT[0] + 0.001
    row = ab_bench.compare(PARENT, change, "lower", 0.25)
    assert row["wins"] == 9
    assert not row["gain"]


def test_a_regression_past_the_bound_is_flagged_in_either_direction():
    slower = ab_bench.compare(PARENT, [value * 1.3 for value in PARENT], "lower", 0.25)
    assert slower["verdict"] == "EXCEEDED" and slower["worse_by"] == pytest.approx(0.3)
    lower_rate = ab_bench.compare(PARENT, [value * 0.7 for value in PARENT], "higher", 0.25)
    assert lower_rate["verdict"] == "EXCEEDED" and not lower_rate["gain"]
    assert ab_bench.compare(PARENT, [value * 1.2 for value in PARENT], "lower",
                            0.25)["verdict"] == "ok"


def test_more_failed_repeats_rule_out_a_gain():
    change = [value - 0.10 for value in PARENT]
    assert not ab_bench.compare(PARENT, change, "lower", 0.25, more_failures=True)["gain"]

    def run(value, failed):
        return {"attempted": 4, "failed": failed,
                "metrics": {"run_s": {"value": value, "unit": "s"}}}

    metrics = [{"name": "run_s", "better": "lower", "bound": 0.25}]
    runs = {"parent": [run(p, 0) for p in PARENT], "change": [run(c, 0) for c in change]}
    assert ab_bench.summarise(runs, metrics)["metrics"]["run_s"]["gain"]
    runs["change"][0]["failed"] = 1
    assert not ab_bench.summarise(runs, metrics)["metrics"]["run_s"]["gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # Parent quartiles 0.8 and 1.2 around a median of 1.0: a spread of 0.4
    # against a bound of 0.25, so a change median 10 % worse cannot be judged.
    wide = [0.6, 0.8, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.2, 1.4]
    row = ab_bench.compare(wide, [value * 1.1 for value in wide], "lower", 0.25)
    assert row["verdict"] == "unresolved"
    # Only a change whose every run beats every parent run is judged.
    assert ab_bench.compare(wide, [value + 1.0 for value in wide], "lower",
                            0.25)["verdict"] == "unresolved"
    assert ab_bench.compare(wide, [value * 0.3 for value in wide], "lower",
                            0.25)["verdict"] == "ok"


def test_a_zero_parent_median_does_not_pass_a_worse_change():
    zeros = [0.0] * 10
    worse = ab_bench.compare(zeros, [0.1] * 10, "lower", 0.25)
    assert worse["worse_by"] == float("inf") and worse["verdict"] == "EXCEEDED"
    same = ab_bench.compare(zeros, list(zeros), "lower", 0.25)
    assert same["worse_by"] == 0.0 and same["verdict"] == "ok"


def test_summary_reads_every_end_to_end_metric_and_the_failed_share():
    def run(value, failed):
        return {"attempted": 4, "failed": failed,
                "metrics": {"run_s": {"value": value, "unit": "s"}}}

    runs = {"parent": [run(1.0, 0), run(1.1, 0)], "change": [run(0.9, 1), run(1.0, 0)]}
    summary = ab_bench.summarise(runs, [{"name": "run_s", "better": "lower", "bound": 0.25}])
    assert summary["failed"] == {"parent": 0.0, "change": 0.125}
    assert summary["metrics"]["run_s"]["wins"] == 2


def fake_checkouts(tmp_path):
    """Parent and change directories whose benchmark has three workloads."""
    benchmark = {"run_seconds": 40,
                 "workloads": [{"name": name} for name in ("nls-dg", "nlwave-cgm",
                                                           "lwave-converge")],
                 "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}
    for side in ab_bench.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return [str(tmp_path / side) for side in ab_bench.SIDES]


def workloads_run(argv, monkeypatch):
    """The workloads ``main(argv)`` runs, in order, with ``run_bench`` stubbed."""
    ran = []

    def run_bench(checkout, workload, seed, seconds):
        ran.append(workload)
        return {"attempted": 1, "failed": 0, "metrics": {"run_s": {"value": 1.0 + seed}}}

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    assert ab_bench.main(argv) == 0
    return list(dict.fromkeys(ran))


def test_every_workload_runs_in_the_benchmark_order_by_default(tmp_path, monkeypatch):
    checkouts = fake_checkouts(tmp_path)
    assert workloads_run(checkouts + ["--pairs", "2"], monkeypatch) == [
        "nls-dg", "nlwave-cgm", "lwave-converge"]


def test_a_repeated_workload_option_runs_those_in_the_benchmark_order(tmp_path, monkeypatch):
    checkouts = fake_checkouts(tmp_path)
    assert workloads_run(checkouts + ["--pairs", "2", "--workload", "lwave-converge"],
                         monkeypatch) == ["lwave-converge"]
    argv = checkouts + ["--pairs", "2", "--workload", "lwave-converge", "--workload", "nls-dg"]
    assert workloads_run(argv, monkeypatch) == ["nls-dg", "lwave-converge"]


def test_an_unknown_workload_exits_2_and_names_the_benchmarks(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "run_bench", None)  # nothing may run
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(fake_checkouts(tmp_path) + ["--workload", "nls-dg", "--workload", "nls"])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err
    assert "unknown workload nls;" in message
    assert "nls-dg, nlwave-cgm, lwave-converge" in message
