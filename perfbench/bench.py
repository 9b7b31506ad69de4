"""Closed-loop benchmark of the mspde command line on three fixed workloads.

    python3 perfbench/bench.py --workload nls-dg --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout.  Each repeat is one ``mspde.cli.main``
call in a fresh process (``repeat.py``), started only after the previous one
has ended.  Repeats are started until the next one would end after
``--seconds`` (at least ``MIN_ROUNDS`` rounds).  A repeat passes when the CLI
exits 0 and its CSV output passes the workload's correctness gate; a failed
repeat counts as a failed operation and gives no timing.

This machine's speed drifts by tens of percent over seconds to minutes, so
fixed calibration work (``machine.calibrate``, in a process of its own) is
timed just before and just after each repeat's CLI call, which gives the
machine's slowdown against a reference speed.  Each repeat's wall times are
divided by the mean of its two slowdowns, giving seconds at the reference
speed; ``run_s`` is the median over the run's passing repeats and ``setup_s``
the minimum (see ``scaled``).  The wall times of every repeat are in the
report line.

``--trace 0`` reports the end-to-end metrics.
``--trace 1`` interleaves traced and untraced repeats in an order set by
``--seed`` and reports the per-layer metrics of the traced ones, the tracing
overhead, and writes the spans to ``.perfbench_out/``.  The last line of
standard output is the JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

_COMMON = ["--q", "1", "--p", "2", "--dt", "0.1"]
WORKLOADS = {
    # Mesh and step of the NLS acceptance runs: 2400 unknowns, 3 slabs,
    # 3 Newton iterations per slab, each with a dense Jacobian and solve.
    "nls-dg": {
        "argv": ["run", "--problem", "nls", "--variant", "dg", *_COMMON,
                 "--dx", "0.4", "--T", "0.3"],
        "csv": "invariants.csv",
        "rows": 4,
        "bounds": {"dev_energy": 1e-8, "dev_momentum": 1e-8},
    },
    # 600 unknowns, 100 slabs: per-call overhead, the cg derivative and the
    # auxiliary block of cg-momentum.
    "nlwave-cgm": {
        "argv": ["run", "--problem", "nonlinear-wave", "--variant", "cg-momentum",
                 *_COMMON, "--dx", "0.05", "--T", "10"],
        "csv": "invariants.csv",
        "rows": 101,
        "bounds": {"dev_energy": 1e-9, "dev_momentum": 1e-3},
    },
    # Linear problem: one factorisation per level, back-solves for every
    # slab, set-up at five mesh sizes, bochner_error on every level.
    "lwave-converge": {
        "argv": ["converge", "--problem", "linear-wave", "--variant", "dg",
                 "--q", "1", "--p", "3", "--imin", "2", "--imax", "6", "--T", "2"],
        "csv": "convergence.csv",
    },
}

# Relative tolerance on the convergence.csv errors against reference.json.
CONVERGENCE_RTOL = 1e-6
MIN_ROUNDS = 3
# Every repeat is killed by then, so that a run ends within 180 s.
RUN_LIMIT_S = 170.0
# Divided by the repeat's slowdown (``machine.calibrate``).
SCALED = ("run_s", "setup_s")

SET_UP_SPANS = ("solver.build_space", "spaces.project", "solver.assembler_init")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "solver.build_space_s": "s",
    "solver.assembler_init_s": "s",
    "spatial_ops.g_matrix_s": "s",
    "spaces.project_s": "s",
    "solver.residual_s": "s",
    "solver.residual_calls": "count",
    "solver.jacobian_s": "s",
    "solver.jacobian_calls": "count",
    "problems.grad_s_s": "s",
    "problems.hess_s_s": "s",
    "solver.linsolve_s": "s",
    "solver.slab_ms.p50": "ms",
    "solver.slab_ms.p90": "ms",
    "solver.newton_iterations": "count",
    "solver.unknowns": "count",
    "solver.jacobian_density": "ratio",
    "solver.jacobian_mb_computed": "MB",
    "diagnostics.global_invariants_s": "s",
    "diagnostics.bochner_error_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "machine.slowdown": "ratio",
}


# -- correctness gate ----------------------------------------------------------


def _read_csv(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as handle:
        return [{key: float(value) for key, value in row.items()}
                for row in csv.DictReader(handle)]


def check_invariants(rows, expected_rows: int, bounds: dict) -> str | None:
    if len(rows) != expected_rows:
        return f"{len(rows)} invariant rows, expected {expected_rows}"
    if not all(math.isfinite(v) for row in rows for v in row.values()):
        return "non-finite invariant value"
    for column, bound in bounds.items():
        worst = max(row[column] for row in rows)
        if worst > bound:
            return f"{column} {worst:.3e} > {bound:.0e}"
    return None


def check_convergence(rows, reference) -> str | None:
    if len(rows) != len(reference):
        return f"{len(rows)} convergence levels, expected {len(reference)}"
    for column in (c for c in reference[0] if c.startswith("e_")):
        errors = [row[column] for row in rows]
        if any(b >= a for a, b in zip(errors, errors[1:])):
            return f"{column} does not strictly decrease: {errors}"
        for level, (got, ref) in enumerate(zip(errors, (r[column] for r in reference))):
            if abs(got - ref) > CONVERGENCE_RTOL * abs(ref):
                return f"{column} at level {level}: {got!r} differs from {ref!r}"
    return None


def check_output(workload: str, out_dir: Path) -> str | None:
    """None when the CLI output passes the workload's gate, else the reason."""
    spec = WORKLOADS[workload]
    try:
        rows = _read_csv(out_dir / spec["csv"])
    except (OSError, ValueError) as exc:
        return f"unreadable {spec['csv']}: {exc}"
    if "bounds" in spec:
        return check_invariants(rows, spec["rows"], spec["bounds"])
    return check_convergence(rows, REFERENCE[workload]["convergence"])


# -- machine speed -------------------------------------------------------------


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The next line ``proc`` prints, or "" if it prints none within ``timeout``."""
    ready, _, _ = select.select([proc.stdout], [], [], max(timeout, 0.0))
    return proc.stdout.readline() if ready else ""


class Calibrator:
    """A ``machine.py`` process that times the calibration work on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "machine.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if _read_line(self.proc, 60.0).strip() != "ready":
            self.close()
            raise RuntimeError("machine.py did not start")

    def slowdown(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(_read_line(self.proc, 60.0))

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- one repeat ----------------------------------------------------------------


def run_repeat(workload: str, traced: bool, run_id: str, timeout: float,
               calibrator: Calibrator | None = None) -> dict:
    """Run one CLI call in a fresh process and gate its output.

    With ``calibrator`` the record's ``slowdown`` is the mean of the
    slowdowns timed just before the call (the child waits for it) and just
    after the child has ended.
    """
    out_dir = OUT / run_id
    spec = {"argv": [*WORKLOADS[workload]["argv"], "--out", str(out_dir)],
            "trace": traced, "run_id": run_id}
    record = {"run_id": run_id, "traced": traced, "ok": False}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "repeat.py"), json.dumps(spec)], cwd=ROOT, env=env,
        text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        slowdowns = []
        if _read_line(proc, timeout).strip() == "ready" and calibrator is not None:
            slowdowns.append(calibrator.slowdown())
        stdout, stderr = proc.communicate("go\n", timeout=timeout - (time.perf_counter() - start))
        record["wall_s"] = time.perf_counter() - start
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            record["reason"] = f"repeat exited {proc.returncode}: {stderr[-400:]}"
            return record
        record.update(result)
        if calibrator is not None:
            slowdowns.append(calibrator.slowdown())
            record["slowdown"] = statistics.fmean(slowdowns)
        if result["exit_code"] != 0:
            record["reason"] = f"mspde exited {result['exit_code']}: {stderr[-400:]}"
        elif not Path(result["mspde_file"]).resolve().is_relative_to(SRC):
            record["reason"] = f"measured {result['mspde_file']}, not {SRC}"
        else:
            record["reason"] = check_output(workload, out_dir)
            record["ok"] = record["reason"] is None
        return record
    except subprocess.TimeoutExpired:
        record["reason"] = f"timed out after {timeout:.0f} s"
        return record
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
        shutil.rmtree(out_dir, ignore_errors=True)


# -- metrics from spans --------------------------------------------------------


def _span_tables(spans):
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent is not None:
            child_time[parent] += durations[index]
    return durations, child_time, by_name


def end_to_end(record: dict) -> dict[str, float]:
    """Wall seconds of ``cli.main`` and of its set-up spans, and peak RSS, of
    one repeat; ``scaled`` turns a run's repeats into the reported values."""
    durations, _, by_name = _span_tables(record["spans"])
    return {
        "run_s": sum(durations[i] for i in by_name["cli.main"]),
        "setup_s": sum(durations[i] for name in SET_UP_SPANS
                       for i in by_name.get(name, [])),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def scaled(records: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run, times at reference speed: the median over
    ``records``, but the minimum for ``setup_s``.  On this VM a process's
    set-up (about 0.1 s on ``nls-dg``) takes about twice as long in the
    kernel's memory management in stretches of tens of minutes, in most
    repeats or in none; the minimum over a run follows the fast mode unless
    every repeat of the run is slow.  A set-up made slower on every call still
    shows in it."""
    rows = []
    for record in records:
        row = end_to_end(record)
        for name in SCALED:
            row[name] /= record["slowdown"]
        rows.append(row)
    return {name: (min if name == "setup_s" else statistics.median)(row[name] for row in rows)
            for name in END_TO_END_UNITS}


def layer_metrics(record: dict) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced repeat, and its slab times in ms."""
    spans = record["spans"]
    durations, child_time, by_name = _span_tables(spans)

    def total(name):
        return sum(durations[i] for i in by_name.get(name, []))

    def self_time(name):
        return sum(durations[i] - child_time[i] for i in by_name.get(name, []))

    def extras(name):
        return [spans[i][4] for i in by_name.get(name, []) if spans[i][4] is not None]

    jacobians = extras("solver.jacobian")
    largest = jacobians[-1] if jacobians else {"density": 0.0, "mb": 0.0}
    metrics = {
        "solver.build_space_s": total("solver.build_space"),
        "solver.assembler_init_s": total("solver.assembler_init"),
        "spatial_ops.g_matrix_s": total("spatial_ops.g_matrix"),
        "spaces.project_s": total("spaces.project"),
        "solver.residual_s": total("solver.residual"),
        "solver.residual_calls": len(by_name.get("solver.residual", [])),
        "solver.jacobian_s": total("solver.jacobian"),
        "solver.jacobian_calls": len(by_name.get("solver.jacobian", [])),
        "problems.grad_s_s": total("problems.grad_s"),
        "problems.hess_s_s": total("problems.hess_s"),
        "solver.linsolve_s": self_time("solver.solve_slab"),
        "solver.newton_iterations": sum(extras("solver.solve_slab")),
        "solver.unknowns": max(extras("solver.assembler_init"), default=0),
        "solver.jacobian_density": largest["density"],
        "solver.jacobian_mb_computed": largest["mb"],
        "diagnostics.global_invariants_s": total("diagnostics.global_invariants"),
        "diagnostics.bochner_error_s": total("diagnostics.bochner_error"),
        "cli.self_s": self_time("cli.main"),
        "cli.import_s": record["import_s"],
    }
    slab_ms = [durations[i] * 1e3 for i in by_name.get("solver.solve_slab", [])]
    return metrics, slab_ms


def traced_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    per_repeat, slab_ms = [], []
    for record in traced:
        metrics, slabs = layer_metrics(record)
        per_repeat.append(metrics)
        slab_ms += slabs
    out = {name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]}
    out["solver.slab_ms.p50"] = statistics.median(slab_ms) if slab_ms else 0.0
    out["solver.slab_ms.p90"] = (statistics.quantiles(slab_ms, n=10, method="inclusive")[8]
                                 if len(slab_ms) > 1 else out["solver.slab_ms.p50"])
    traced_run = [end_to_end(r)["run_s"] for r in traced]
    out["trace.run_s"] = statistics.median(traced_run)
    out["trace.untraced_run_s"] = statistics.median(end_to_end(r)["run_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    out["trace.uncovered_s"] = statistics.median(
        r["wall_s"] - r["import_s"] - run for r, run in zip(traced, traced_run))
    out["machine.slowdown"] = statistics.median(r["slowdown"] for r in traced + untraced)
    return out


# -- the run -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop of rounds until the next round would overrun ``seconds``.

    A round is one untraced repeat, or with ``trace`` one traced and one
    untraced repeat in an order drawn from ``seed``.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    records: list[dict] = []
    rounds, last_round = 0, 0.0
    with Calibrator() as calibrator:
        while True:
            elapsed = time.perf_counter() - start
            if (rounds >= MIN_ROUNDS and elapsed + last_round > seconds
                    or elapsed + last_round > RUN_LIMIT_S):
                return records
            kinds = [True, False] if trace else [False]
            rng.shuffle(kinds)
            for traced in kinds:
                run_id = f"{workload}-s{seed}-r{len(records)}"
                timeout = RUN_LIMIT_S - (time.perf_counter() - start)
                records.append(run_repeat(workload, traced, run_id, max(timeout, 1.0),
                                          calibrator))
            rounds += 1
            last_round = time.perf_counter() - start - elapsed


def _describe(name, values, unit):
    return (f"{name:34s} median {statistics.median(values):12.6g} {unit:6s} "
            f"min {min(values):.6g} max {max(values):.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mspde" / "cli.py").is_file():
        print(f"no mspde source tree under {SRC}", file=sys.stderr)
        return 2

    records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passed = [r for r in records if r["ok"]]
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['run_id']}: {r['reason']}", file=sys.stderr)
    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no repeat passed; nothing to report", file=sys.stderr)
        return 1

    rows = [end_to_end(r) for r in untraced]
    for name, unit in END_TO_END_UNITS.items():
        print(_describe(f"{name} per repeat (wall)", [row[name] for row in rows], unit))
    print(_describe("slowdown per repeat", [r["slowdown"] for r in untraced], "ratio"))
    if args.trace:
        metrics = traced_metrics(traced, untraced)
        units = LAYER_UNITS
        for name, unit in units.items():
            print(f"{name:34s} {metrics[name]:12.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        spans = [[r["run_id"], i, *span] for r in traced for i, span in enumerate(r["spans"])]
        (OUT / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(
            {"fields": ["run_id", "index", "name", "start", "end", "parent", "extra"],
             "spans": spans}))
    else:
        metrics = scaled(untraced)
        units = END_TO_END_UNITS

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": passed[0]["machine"],
        "missing_spans": passed[0]["missing"],
        "repeats": [{key: r.get(key) for key in
                     ("run_id", "traced", "ok", "reason", "wall_s", "slowdown")}
                    | (end_to_end(r) if r["ok"] else {}) for r in records],
    }))
    print(json.dumps({
        "correct": len(passed) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(passed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
