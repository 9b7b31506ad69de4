"""Check the test contract of a source checkout.

    python3 tools/check_contract.py

Runs, from the root of the checkout and with ``src`` on ``PYTHONPATH``:

* the Tier-1 suite, ``python -m pytest -q --continue-on-collection-errors``;
* the benchmark's own tests, ``python -m pytest perfbench``;
* the property checks, ``python -m mspde.cli verify --seed 0``.

It deselects and skips nothing.  It exits 0 only when all three hold:

* the Tier-1 tests that fail (or error) are exactly the tests named in
  README's "Known deviations", each failing once, and nothing is skipped or
  deselected;
* every perfbench test passes, and none is skipped;
* verify prints ``19/19 property groups passed`` and exits 0.

Otherwise it prints one line per broken condition and exits 1.  Each run's
last lines are printed as it ends.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
PERFBENCH = ["-m", "pytest", "perfbench"]
VERIFY = ["-m", "mspde.cli", "verify", "--seed", "0"]
PROPERTY_GROUPS = 19

_COUNT = re.compile(r"(\d+) (failed|passed|skipped|deselected|xfailed|xpassed|errors?)\b")
_OUTCOME = re.compile(r"^(FAILED|ERROR) (\S+)")
_DEVIATION = re.compile(r"^\d+\. `(test_\w+)`", re.MULTILINE)
_VERIFY = re.compile(r"^(\d+)/(\d+) property groups passed$", re.MULTILINE)


def known_deviations(readme: str) -> list[str]:
    """Test names listed in README's "Known deviations" section."""
    match = re.search(r"^## Known deviations.*?$(.*?)(?=^## |\Z)", readme,
                      re.MULTILINE | re.DOTALL)
    return _DEVIATION.findall(match.group(1)) if match else []


def summary_counts(output: str) -> dict[str, int]:
    """Outcome counts of pytest's last summary line ("2 failed, 773 passed in
    ..."), with "error" and "errors" both counted as "errors"."""
    lines = [line for line in output.splitlines() if _COUNT.search(line)]
    counts: dict[str, int] = {}
    for number, outcome in _COUNT.findall(lines[-1] if lines else ""):
        key = "errors" if outcome.startswith("error") else outcome
        counts[key] = counts.get(key, 0) + int(number)
    return counts


def failing_nodes(output: str) -> list[str]:
    """Node IDs of the FAILED and ERROR lines of pytest's short summary."""
    return [match.group(2) for match in map(_OUTCOME.match, output.splitlines()) if match]


def pytest_problems(output: str, expected_failures: list[str]) -> list[str]:
    """Why a pytest run breaks the contract: its failing tests must be exactly
    ``expected_failures`` (test names, each failing once), and no test may be
    skipped or deselected.  An empty list means the run holds."""
    counts = summary_counts(output)
    if "passed" not in counts:
        return ["no pytest summary line with passing tests"]
    problems = [f"{counts[key]} {key}" for key in ("skipped", "deselected") if counts.get(key)]
    nodes = failing_nodes(output)
    if len(nodes) != counts.get("failed", 0) + counts.get("errors", 0):
        problems.append(f"the short summary lists {len(nodes)} failing nodes, "
                        f"the summary line {counts.get('failed', 0)} failed and "
                        f"{counts.get('errors', 0)} errors")
    names = [node.rsplit("::", 1)[-1] for node in nodes]
    problems += [f"unexpected failure: {node}"
                 for node, name in zip(nodes, names) if name not in expected_failures]
    problems += [f"known deviation did not fail once: {name} ({names.count(name)} times)"
                 for name in expected_failures if names.count(name) != 1]
    return problems


def verify_problems(output: str, returncode: int) -> list[str]:
    """Why a ``verify`` run breaks the contract (empty when it holds)."""
    match = _VERIFY.search(output)
    if match is None:
        return ["verify printed no property-group summary"]
    passed, total = int(match.group(1)), int(match.group(2))
    problems = [] if returncode == 0 else [f"verify exited {returncode}"]
    if (passed, total) != (PROPERTY_GROUPS, PROPERTY_GROUPS):
        problems.append(f"verify passed {passed}/{total} property groups, "
                        f"want {PROPERTY_GROUPS}/{PROPERTY_GROUPS}")
    return problems


def run(args: list[str]) -> tuple[str, int]:
    """Run ``python args`` at the root with ``src`` on PYTHONPATH; print its
    last lines and return its output and exit status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    output = proc.stdout + proc.stderr
    print(f"$ python {' '.join(args)}  (exit {proc.returncode})")
    print("\n".join(output.strip().splitlines()[-4:]))
    return output, proc.returncode


def main() -> int:
    deviations = known_deviations((ROOT / "README.md").read_text())
    problems = [] if len(deviations) == 2 else \
        [f"README lists {len(deviations)} known deviations, want 2"]
    problems += [f"tier-1: {p}" for p in pytest_problems(run(TIER1)[0], deviations)]
    problems += [f"perfbench: {p}" for p in pytest_problems(run(PERFBENCH)[0], [])]
    problems += verify_problems(*run(VERIFY))
    for problem in problems:
        print(f"CONTRACT BROKEN: {problem}")
    print("contract holds" if not problems else f"{len(problems)} contract conditions broken")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
