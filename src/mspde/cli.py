"""Command-line front end: single runs, convergence studies, and verification.

Everything is emitted as CSV (RFC-4180 style, '.' decimal separator, 17
significant digits) so outputs are diffable and byte-reproducible for a
given configuration.

Exit codes: 0 success, 1 solver failure, 2 invalid configuration; any other
error propagates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checks import run_property_checks
from .diagnostics import bochner_error, eoc, global_invariants
from .problems import PROBLEM_LABELS, problem_by_label
from .solver import (
    ConfigurationError,
    SchemeVariant,
    SolverConfig,
    SolverFailure,
    advance,
    run_simulation,
)

__all__ = ["main", "cmd_run", "cmd_converge", "cmd_verify"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    path.write_text("\r\n".join(lines) + "\r\n", encoding="ascii")


def _config_tokens(path: str) -> list[str]:
    """The entries of a key=value config file as ``--key=value`` flags."""
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspde",
        description="Space-time FEM for 1D periodic multisymplectic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", default="linear-wave", choices=PROBLEM_LABELS)
        p.add_argument("--variant", default="cg",
                       choices=[v.value for v in SchemeVariant])
        p.add_argument("--q", type=int, default=1)
        p.add_argument("--p", type=int, default=1)
        p.add_argument("--T", type=float, default=1.0)
        p.add_argument("--out", default="out")
        p.add_argument("--config", default=None,
                       help="key=value file; command-line flags override it")
        p.add_argument("--newton-tol", type=float, default=1e-12)

    run_p = sub.add_parser("run", help="single simulation with invariant series")
    common(run_p)
    run_p.add_argument("--dt", type=float, default=0.1)
    run_p.add_argument("--dx", type=float, default=0.1)
    run_p.add_argument("--snapshots", type=int, default=0,
                       help="samples per element for optional field snapshots")

    conv_p = sub.add_parser("converge", help="refinement study with errors and orders")
    common(conv_p)
    conv_p.add_argument("--imin", type=int, default=2)
    conv_p.add_argument("--imax", type=int, default=4)
    conv_p.add_argument("--hscale", type=float, default=1.0,
                        help="element size is hscale * 2^-i")

    ver_p = sub.add_parser("verify", help="run the property-check suite")
    ver_p.add_argument("--seed", type=int, default=0)
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with a config file's entries as flags ahead of the explicit
    ones: the parser checks their types and choices, and explicit flags,
    coming later, override them."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        tokens = _config_tokens(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _invariant_rows(series):
    return np.column_stack([series.times, series.mass, series.momentum, series.energy,
                            *series.deviations()]).tolist()


def cmd_run(args) -> int:
    problem = problem_by_label(args.problem)
    variant = SchemeVariant(args.variant)
    out_dir = Path(args.out)
    names = problem.component_names
    header = (["t"] + [f"mass_{c}" for c in names] + ["momentum", "energy"]
              + [f"dev_mass_{c}" for c in names] + ["dev_momentum", "dev_energy"])
    try:
        if args.snapshots < 0:
            raise ConfigurationError(f"snapshots must be nonnegative, got {args.snapshots}")
        config = SolverConfig(q=args.q, p=args.p, dt=args.dt, dx=args.dx,
                              t_final=args.T, newton_tolerance=args.newton_tol)
        for trajectory in advance(variant, problem, config):
            pass
    except ConfigurationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as failure:
        rows = _invariant_rows(global_invariants(trajectory))
        rows.append([failure.slab_index * config.dt, *(["nan"] * (len(header) - 1))])
        _write_csv(out_dir / "invariants.csv", header, rows)
        print(f"solver failure on slab {failure.slab_index}: "
              f"residual {failure.residual_norm:.3e} ({failure})", file=sys.stderr)
        return 1

    series = global_invariants(trajectory)
    _write_csv(out_dir / "invariants.csv", header, _invariant_rows(series))

    if args.snapshots > 0:
        _write_snapshots(out_dir / "fields.csv", trajectory, args.snapshots)
    return 0


def _write_snapshots(path: Path, trajectory, samples_per_element: int) -> None:
    space = trajectory.space
    names = trajectory.problem.component_names
    offsets = (np.arange(samples_per_element) + 0.5) / samples_per_element
    xs = (space.partition.node_coords[:-1, None]
          + space.partition.widths[:, None] * offsets[None, :]).ravel()
    header = ["t", "x"] + list(names)
    vals = space.evaluate(trajectory.node_states(), xs)               # (nodes, D, len(xs))
    rows = np.column_stack([np.repeat(trajectory.times, xs.size),
                            np.tile(xs, trajectory.node_count),
                            np.swapaxes(vals, 1, 2).reshape(-1, len(names))]).tolist()
    _write_csv(path, header, rows)


def cmd_converge(args) -> int:
    problem = problem_by_label(args.problem)
    variant = SchemeVariant(args.variant)
    if problem.exact_solution is None:
        print(f"problem {problem.label!r} has no exact solution; "
              "a convergence study needs one", file=sys.stderr)
        return 2
    if args.imin > args.imax or args.imin < 0:
        print("need 0 <= imin <= imax", file=sys.stderr)
        return 2

    names = problem.component_names
    errors, hs, failed = [], [], None
    for i in range(args.imin, args.imax + 1):
        h = args.hscale * 2.0**-i
        try:
            config = SolverConfig(q=args.q, p=args.p, dt=h, dx=h, t_final=args.T,
                                  newton_tolerance=args.newton_tol)
            trajectory = run_simulation(variant, problem, config)
        except ConfigurationError as exc:
            print(f"invalid configuration at level {i}: {exc}", file=sys.stderr)
            return 2
        except SolverFailure as failure:
            print(f"solver failure at level {i}, slab {failure.slab_index}: "
                  f"residual {failure.residual_norm:.3e} ({failure})", file=sys.stderr)
            failed = [float(i), h, *(["nan"] * (2 * len(names)))]
            break
        errors.append(bochner_error(trajectory)[-1])
        hs.append(h)

    # The levels solved, with their EOCs (NaN below two levels), then the
    # failed level's row.
    errors = np.reshape(errors, (len(hs), len(names)))
    rates = np.full_like(errors, np.nan)
    if len(hs) >= 2:
        rates[1:] = eoc(errors, hs)
    header = (["i", "h"] + [f"e_{c}" for c in names] + [f"eoc_{c}" for c in names])
    rows = [[float(args.imin + k), hs[k], *errors[k], *rates[k]] for k in range(len(hs))]
    if failed:
        rows.append(failed)
    _write_csv(Path(args.out) / "convergence.csv", header, rows)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"invalid configuration: seed must be nonnegative, got {args.seed}",
              file=sys.stderr)
        return 2
    results = run_property_checks(seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:34s} max-residual={result.residual:.3e} "
              f"tolerance={result.tolerance:.0e}")
        failed += 0 if result.passed else 1
    print(f"{len(results) - failed}/{len(results)} property groups passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = _parse_args(parser, list(sys.argv[1:] if argv is None else argv))
    if args.command == "run":
        return cmd_run(args)
    if args.command == "converge":
        return cmd_converge(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
