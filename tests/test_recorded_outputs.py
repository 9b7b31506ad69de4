"""The benchmark workloads' outputs against their recorded values.

Each workload is rerun through the command line and its CSV compared with
``tests/data/<workload>/``: byte identity is reported on its own line, and
the test passes when every value lies within the bounds below, which are
the largest moves that reordered floating-point arithmetic has produced on
these runs.  The per-slab Newton iterations, factorisations, GMRES
iterations, restarts and stall flags must match exactly.

A change that moves the outputs beyond the bounds (a different Newton
iterate within the Newton tolerance, say) records new data with

    PYTHONPATH=src python tests/test_recorded_outputs.py

and says why in CHANGES.md.
"""

import importlib.util
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import mspde.solver
from mspde.cli import main

DATA = Path(__file__).resolve().parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"

_COMMON = ["--q", "1", "--p", "2", "--dt", "0.1"]
WORKLOADS = {
    "nls-dg": ["run", "--problem", "nls", "--variant", "dg", *_COMMON,
               "--dx", "0.4", "--T", "0.3"],
    "nlwave-cgm": ["run", "--problem", "nonlinear-wave", "--variant", "cg-momentum",
                   *_COMMON, "--dx", "0.05", "--T", "10"],
    "lwave-converge": ["converge", "--problem", "linear-wave", "--variant", "dg",
                       "--q", "1", "--p", "3", "--imin", "2", "--imax", "6", "--T", "2"],
}
# Largest move of each column group: the convergence levels i and h none,
# invariant values 8.9e-15 absolute, convergence errors 1.3e-10 relative and
# EOCs 4.7e-10 absolute.
BOUNDS = {"level": 0.0, "invariant": 8.9e-15, "error": 1.3e-10, "eoc": 4.7e-10}
# Each key of newton.json and the SlabSolution field it lists per slab.
NEWTON_RECORDS = {"newton_iterations": "iterations", "factorisations": "factorisations",
                  "krylov_iterations": "krylov_iterations", "restarted": "restarted",
                  "stalled": "stalled"}


def rerun(workload: str, out_dir: Path) -> tuple[Path, dict]:
    """Run a workload through the command line into out_dir: its CSV and the
    Newton records of every trajectory it solved (one per convergence level)."""
    trajectories = []
    trajectory = mspde.solver.Trajectory

    def recorded(*args, **kwargs):
        trajectories.append(trajectory(*args, **kwargs))
        return trajectories[-1]

    mspde.solver.Trajectory = recorded
    try:
        assert main([*WORKLOADS[workload], "--out", str(out_dir)]) == 0
    finally:
        mspde.solver.Trajectory = trajectory
    name = "convergence.csv" if WORKLOADS[workload][0] == "converge" else "invariants.csv"
    records = {key: [[getattr(solved, field) for solved in traj.records]
                     for traj in trajectories]
               for key, field in NEWTON_RECORDS.items()}
    return out_dir / name, records


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array([line.split(",") for line in lines[1:]], dtype=float)


def _worst_moves(header: list[str], got: np.ndarray, want: np.ndarray) -> dict[str, float]:
    """Largest move of each column group of BOUNDS between two tables."""
    moves = {}
    for column, name in enumerate(header):
        a, b = got[:, column], want[:, column]
        both_nan = np.isnan(a) & np.isnan(b)
        if name in ("i", "h"):
            group, move = "level", np.abs(a - b)
        elif name.startswith("e_"):
            group, move = "error", np.abs(a - b) / np.abs(b)
        elif name.startswith("eoc_"):
            group, move = "eoc", np.abs(a - b)
        else:
            group, move = "invariant", np.abs(a - b)
        move = np.where(both_nan, 0.0, move)
        moves[group] = max(moves.get(group, 0.0), float(np.max(move, initial=0.0)))
    return moves


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_outputs_match_the_recorded_data(workload, tmp_path):
    csv_path, records = rerun(workload, tmp_path)
    recorded = DATA / workload / csv_path.name
    identical = csv_path.read_bytes() == recorded.read_bytes()
    header, got = _table(csv_path)
    want_header, want = _table(recorded)
    assert header == want_header and got.shape == want.shape
    moves = _worst_moves(header, got, want)
    print(f"{workload} {csv_path.name}: "
          f"{'byte-identical' if identical else 'bytes differ'}; largest moves "
          + ", ".join(f"{group} {move:.2e} of {BOUNDS[group]:.2g}"
                      for group, move in sorted(moves.items())))
    assert records == json.loads((DATA / workload / "newton.json").read_text())
    for group, move in moves.items():
        assert move <= BOUNDS[group], f"{workload}: {group} moved by {move:.3e}"


def test_recorded_workloads_follow_the_benchmark():
    # Each recorded workload runs the benchmark's command line; the benchmark
    # may add a workload before it is recorded here.  Loading bench.py runs
    # only the standard library and reads its reference.json.
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, argv in WORKLOADS.items():
        assert argv == bench.WORKLOADS[name]["argv"], name


def write_recorded_data() -> None:
    """Rerun every workload and store its CSV and Newton records under DATA."""
    for workload in WORKLOADS:
        target = DATA / workload
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as scratch:
            csv_path, records = rerun(workload, Path(scratch))
            shutil.copyfile(csv_path, target / csv_path.name)
        (target / "newton.json").write_text(json.dumps(records) + "\n")
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    write_recorded_data()
