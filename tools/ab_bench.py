"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --pairs 10 [--workload NAME ...]

Each checkout is the root of a source tree with ``perfbench/`` and
``BENCHMARK.json``.  The parent's ``BENCHMARK.json`` sets the workloads, the
run length (``run_seconds``) and the end-to-end metrics with their bounds, so
both sides run exactly as the benchmark does.  ``--workload`` (repeatable)
runs only the named workloads, in the benchmark's order; without it every
workload runs, and an unknown name exits with status 2.  For every workload
and every seed of the pairs, the script runs ``perfbench/bench.py --trace 0``
once in each checkout, one after the other, and alternates which side goes
first.  It reads each run's last JSON line and prints, per workload and
end-to-end metric, both sides' median and quartiles, the pairs the change won
(ties count for neither side) and the ratio of the medians.  Two verdicts
follow each metric:

* ``gain``: the change won at least nine tenths of the pairs, its median is
  better than the parent's by more than the parent's interquartile range, and
  it failed no larger share of its repeats than the parent;
* ``bound``: ``unresolved`` when the parent's interquartile range, as a
  fraction of its median, is wider than the metric's bound and not every
  change run is better than every parent run; otherwise ``EXCEEDED`` when the
  change's median is worse than the parent's by more than the bound, as a
  fraction of the parent's median, and ``ok`` when it is not.  A parent
  median of 0 makes any worse change median infinitely worse.

It also prints the failed share of repeats on each side.  The last line of
standard output is the summary as JSON.  Only ``perfbench/`` and
``BENCHMARK.json`` of the two checkouts are read; the runs write nothing
outside each checkout's own ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench.py --trace 0`` run in ``checkout``: its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench.py failed in {checkout} ({workload}, seed {seed}): "
                           f"exit {proc.returncode}\n{proc.stderr[-800:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def relative(amount: float, base: float) -> float:
    """``amount`` as a fraction of ``base``; infinite (with its sign) when ``base`` is 0."""
    if base:
        return amount / abs(base)
    return math.copysign(math.inf, amount) if amount else 0.0


def compare(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> dict:
    """Paired comparison of one metric; ``parent[i]`` and ``change[i]`` are pair i.

    ``more_failures`` says the change failed a larger share of its repeats
    than the parent, which rules out a gain.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = (not more_failures and wins >= GAIN_SHARE * len(parent)
            and sign * (p_med - c_med) > p_q3 - p_q1)
    worse_by = relative(sign * (c_med - p_med), p_med)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if relative(p_q3 - p_q1, p_med) > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "EXCEEDED" if worse_by > bound else "ok"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins, "losses": losses, "pairs": len(parent),
        "ratio": c_med / p_med if p_med else float("nan"),
        "worse_by": worse_by, "bound": bound,
        "gain": gain, "verdict": verdict,
    }


def summarise(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric comparisons and failure shares of one workload's paired runs."""
    result = {"metrics": {}, "failed": {}}
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        result["failed"][side] = failed / attempted if attempted else 1.0
    more_failures = result["failed"]["change"] > result["failed"]["parent"]
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        result["metrics"][name] = compare(values["parent"], values["change"],
                                          metric["better"], metric["bound"], more_failures)
    return result


def _report(workload: str, summary: dict) -> None:
    print(f"== {workload}  failed share: parent {summary['failed']['parent']:.3f}, "
          f"change {summary['failed']['change']:.3f}")
    for name, row in summary["metrics"].items():
        parent, change = row["parent"], row["change"]
        print(f"  {name:12s} parent {parent['median']:.5g} ({parent['q1']:.5g}-{parent['q3']:.5g})"
              f"  change {change['median']:.5g} ({change['q1']:.5g}-{change['q3']:.5g})"
              f"  wins {row['wins']}/{row['pairs']} (losses {row['losses']})"
              f"  ratio {row['ratio']:.4f}"
              f"  gain {'yes' if row['gain'] else 'no'}"
              f"  bound {row['verdict']} ({row['worse_by']:+.3f} of {row['bound']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable); default: all")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    chosen = set(args.workload or names)
    unknown = sorted(chosen - set(names))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; the benchmark's workloads "
                     f"are {', '.join(names)}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    summaries = {}
    for workload in (name for name in names if name in chosen):
        runs = {side: [] for side in SIDES}
        for seed in range(args.pairs):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(checkouts[side], workload, seed,
                                            benchmark["run_seconds"]))
        summaries[workload] = summarise(runs, benchmark["end_to_end"])
        _report(workload, summaries[workload])
    print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
