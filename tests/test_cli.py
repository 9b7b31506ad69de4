import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mspde
from mspde.checks import _g_skew, run_property_checks
from mspde.cli import main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_invariant_series(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--problem", "linear-wave", "--variant", "cg",
                 "--q", "1", "--p", "1", "--dt", "0.0625", "--dx", "0.0625",
                 "--T", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "invariants.csv")
    assert header == ["t", "mass_u", "mass_v", "mass_w", "momentum", "energy",
                      "dev_mass_u", "dev_mass_v", "dev_mass_w",
                      "dev_momentum", "dev_energy"]
    assert len(rows) == 17
    dev_energy = np.array([float(r[-1]) for r in rows])
    dev_momentum = np.array([float(r[-2]) for r in rows])
    assert dev_energy.max() <= 1e-10
    assert dev_momentum.max() <= 1e-10


def test_run_is_deterministic(tmp_path):
    args = ["run", "--problem", "nonlinear-wave", "--q", "1", "--p", "2",
            "--dt", "0.1", "--dx", "0.25", "--T", "0.5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "invariants.csv").read_bytes()
    b = (tmp_path / "b" / "invariants.csv").read_bytes()
    assert a == b


def test_momentum_variant_writes_the_cg_series(tmp_path):
    # cg-momentum solves the cg slab system, so its invariant series is the
    # cg one, byte for byte.
    args = ["run", "--problem", "nonlinear-wave", "--q", "1", "--p", "2",
            "--dt", "0.1", "--dx", "0.25", "--T", "0.5"]
    assert main(args + ["--variant", "cg", "--out", str(tmp_path / "cg")]) == 0
    assert main(args + ["--variant", "cg-momentum", "--out", str(tmp_path / "cgm")]) == 0
    cg = (tmp_path / "cg" / "invariants.csv").read_bytes()
    cgm = (tmp_path / "cgm" / "invariants.csv").read_bytes()
    assert cg == cgm


def test_run_constant_state_deviations_tiny(tmp_path, monkeypatch):
    # Steady state: every deviation column stays at machine zero.
    import dataclasses

    import mspde.cli
    from mspde.problems import linear_wave

    base = linear_wave()
    steady = dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, 0.8), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )
    monkeypatch.setattr(mspde.cli, "problem_by_label", lambda label: steady)
    out = tmp_path / "steady"
    code = main(["run", "--problem", "linear-wave", "--q", "0", "--p", "1",
                 "--dt", "0.1", "--dx", "0.25", "--T", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "invariants.csv")
    n_dev = 5  # three mass columns plus momentum and energy deviations
    worst = max(abs(float(cell)) for row in rows for cell in row[-n_dev:])
    assert worst <= 1e-12


def test_run_snapshot_output(tmp_path):
    out = tmp_path / "snap"
    code = main(["run", "--problem", "linear-wave", "--q", "0", "--p", "1",
                 "--dt", "0.25", "--dx", "0.25", "--T", "0.5",
                 "--snapshots", "2", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "fields.csv")
    assert header == ["t", "x", "u", "v", "w"]
    assert len(rows) == 3 * 8  # three nodes, four elements, two samples each


def test_invalid_config_exit_code(tmp_path):
    assert main(["run", "--dx", "-0.1", "--out", str(tmp_path)]) == 2
    assert main(["run", "--problem", "nls", "--dx", "0.3",
                 "--out", str(tmp_path)]) == 2
    assert main(["converge", "--newton-tol", "0", "--out", str(tmp_path)]) == 2
    assert main(["converge", "--hscale", "-1", "--out", str(tmp_path)]) == 2
    assert main(["run", "--newton-tol", "nan", "--out", str(tmp_path)]) == 2
    assert main(["run", "--T", "nan", "--out", str(tmp_path)]) == 2
    assert main(["run", "--dt", "inf", "--out", str(tmp_path)]) == 2
    assert main(["converge", "--hscale", "nan", "--out", str(tmp_path)]) == 2


def test_negative_snapshot_count_is_invalid(tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(["run", "--T", "0.2", "--snapshots", "-3", "--out", str(out)]) == 2
    assert "invalid configuration: snapshots must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "nonlinear-wave", "--dx", "0.25", "--T", "0.1"],
    ["converge", "--imin", "2", "--imax", "2", "--T", "0.25"],
])
def test_internal_errors_are_not_invalid_configuration(tmp_path, monkeypatch, argv):
    # Only a configuration that no run can satisfy exits 2; an error raised
    # inside the solver propagates, whatever its type.
    from mspde.solver import SlabAssembler

    def broken(self, *args, **kwargs):
        raise ValueError("not enough values to unpack (expected 4, got 3)")

    monkeypatch.setattr(SlabAssembler, "solve_slab", broken)
    with pytest.raises(ValueError, match="not enough values to unpack"):
        main(argv + ["--out", str(tmp_path)])


def test_solver_failure_exit_code(tmp_path):
    out = tmp_path / "fail"
    code = main(["run", "--problem", "nonlinear-wave", "--q", "1", "--p", "1",
                 "--dt", "0.1", "--dx", "0.25", "--T", "0.5",
                 "--newton-tol", "1e-30", "--out", str(out)])
    assert code == 1
    assert (out / "invariants.csv").exists()  # partial output flushed


def test_converge_table(tmp_path):
    out = tmp_path / "conv"
    code = main(["converge", "--problem", "linear-wave", "--variant", "cg",
                 "--q", "0", "--p", "1", "--imin", "2", "--imax", "4",
                 "--T", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["i", "h", "e_u", "e_v", "e_w", "eoc_u", "eoc_v", "eoc_w"]
    errors = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(errors) < 0)
    assert rows[0][5] == "nan"
    assert float(rows[-1][5]) > 1.5


@pytest.mark.parametrize("failing", [2, 3, 4])
def test_converge_solver_failure_names_level_slab_and_residual(tmp_path, monkeypatch, capsys,
                                                               failing):
    # The levels solved before the failure keep their rows of the complete
    # study (EOCs from the second level on), then the failed level's row
    # holds i, h and NaN.
    import mspde.cli
    from mspde.solver import SolverFailure, run_simulation

    argv = ["converge", "--problem", "linear-wave", "--q", "0", "--p", "1",
            "--imin", "2", "--imax", "4", "--T", "0.25"]
    assert main(argv + ["--out", str(tmp_path / "complete")]) == 0
    complete = (tmp_path / "complete" / "convergence.csv").read_text().splitlines()

    def fail_at_level(variant, problem, config):
        if config.dx == 2.0**-failing:
            raise SolverFailure("stalled", residual_norm=1.0, slab_index=2)
        return run_simulation(variant, problem, config)

    monkeypatch.setattr(mspde.cli, "run_simulation", fail_at_level)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "failed")]) == 1
    err = capsys.readouterr().err
    assert f"level {failing}" in err and "slab 2" in err and "residual 1.000e+00" in err
    assert "stalled" in err
    lines = (tmp_path / "failed" / "convergence.csv").read_text().splitlines()
    solved = failing - 2
    assert lines[: solved + 1] == complete[: solved + 1]
    assert lines[solved + 1:] == [f"{failing},{2.0**-failing}" + ",nan" * 6]


def test_converge_requires_exact_solution(tmp_path):
    code = main(["converge", "--problem", "nonlinear-wave",
                 "--out", str(tmp_path)])
    assert code == 2


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text("problem = linear-wave\nq = 0\np = 2\ndt = 0.25\n"
                   "dx = 0.25\nT = 0.5  # comment\n")
    out = tmp_path / "cfg_run"
    # Explicit --p overrides the file; everything else comes from the file.
    code = main(["run", "--config", str(cfg), "--p", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "invariants.csv")
    assert len(rows) == 3  # T=0.5 with dt=0.25


def test_seed_is_a_verify_option_only(tmp_path):
    # run and converge draw no random numbers, so they take no --seed flag
    # and a config file may not set one either.
    with pytest.raises(SystemExit) as flag:
        main(["run", "--seed", "0", "--out", str(tmp_path)])
    assert flag.value.code == 2
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 1\n")
    with pytest.raises(SystemExit) as key:
        main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert key.value.code == 2


def test_negative_verify_seed_is_invalid(capsys):
    # numpy's generators take no negative seed; verify rejects one as a
    # configuration, before any check runs, with one line on stderr.
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["invalid configuration: seed must be nonnegative, got -1"]


VERIFY_GROUPS = [
    "quadrature-exactness", "basis-partition-of-unity", "basis-derivative-fd",
    "mass-matrix-symmetry", "l2-projection-orthogonality", "problem-skew-symmetry",
    "gradient-hessian-fd", "hessian-symmetry", "exact-solution-pde-residual",
    "derivative-op-constants", "derivative-op-skew-symmetry", "derivative-op-product-rule",
    "derivative-op-local-identities", "slab-jacobian-fd",
    "steady-state-preservation", "trajectory-temporal-continuity",
    "wave-auxiliary-identity", "local-conservation-laws", "slab-factor-solve",
]


def test_verify_passes_with_default_seed(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name]
                                                         for name in VERIFY_GROUPS]
    assert lines[-1] == "19/19 property groups passed"


def test_verify_fails_an_asymmetric_hessian(monkeypatch, capsys):
    # An NLS whose (v, u) Hessian value is off by 1e-8 meets the
    # finite-difference Hessian within 1e-6, and validate rejects its
    # asymmetry; so does verify's symmetry group, and no other group.
    import mspde.problems

    nls = mspde.problems.nls

    def asymmetric():
        base = nls()

        def hess_s(z):
            h = base.hess_s(z).copy()
            h[..., 2] += 1e-8  # the pairs are (u, u), (u, v), (v, u), ...
            return h

        return dataclasses.replace(base, hess_s=hess_s)

    assert not mspde.problems.validate(asymmetric()).passed
    monkeypatch.setattr(mspde.problems, "nls", asymmetric)
    assert main(["verify", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["FAIL" if name == "hessian-symmetry" else "PASS", name] for name in VERIFY_GROUPS]
    assert lines[-1] == "18/19 property groups passed"


def test_verify_builds_no_dense_spatial_operator(monkeypatch):
    # The identity checks run on the sparse operators that the scheme applies.
    def dense(*args, **kwargs):
        raise AssertionError("dense spatial operator built by verify")

    for name, module in list(sys.modules.items()):
        if name.startswith("mspde") and hasattr(module, "g_matrix"):
            monkeypatch.setattr(module, "g_matrix", dense)

    results = run_property_checks(seed=0)
    assert [r.name for r in results] == VERIFY_GROUPS
    assert all(r.passed for r in results)


def test_importing_the_cli_loads_no_second_sparse_factoriser():
    # The LAPACK band LU and the circulant factor (numpy's FFT and batched
    # inverse) are the package's slab factorisations, so the command line
    # never imports scipy.sparse.linalg.
    src = str(Path(mspde.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import mspde.cli; "
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_verify_reports_at_least_twelve_groups():
    results = run_property_checks(seed=1)
    assert len(results) >= 12
    assert all(r.passed for r in results)


def test_skew_check_detects_corrupted_operator():
    # Self-test of the checker: biasing the interface term must trip the
    # skew-symmetry identity.
    rng = np.random.default_rng(0)

    def corrupted(space):
        from mspde.spatial_ops import g_matrix

        g = g_matrix(space).copy()
        g += 0.05 * np.linalg.inv(space.mass_operator().toarray())
        return g

    residual = _g_skew(rng, g_override=corrupted)
    assert residual > 1e-3


def test_solver_failure_flushes_partial_series(tmp_path, monkeypatch):
    # The third slab solve fails: the run writes the two slabs solved before
    # it, then the failure row at the failed slab's start.
    from mspde.solver import SlabAssembler, SolverFailure

    solve_slab, calls = SlabAssembler.solve_slab, []

    def fail_third(self, *args):
        calls.append(None)
        if len(calls) == 3:
            raise SolverFailure("stalled", residual_norm=1.0)
        return solve_slab(self, *args)

    monkeypatch.setattr(SlabAssembler, "solve_slab", fail_third)
    out = tmp_path / "partial"
    code = main(["run", "--problem", "linear-wave", "--q", "0", "--p", "1",
                 "--dt", "0.125", "--dx", "0.125", "--T", "1", "--out", str(out)])
    assert code == 1
    _, rows = read_csv(out / "invariants.csv")
    assert len(rows) == 4  # nodes t=0, 0.125, 0.25, then the failure row
    assert rows[-1][1] == "nan"
    assert float(rows[-1][0]) == pytest.approx(0.25)


def test_singular_slab_jacobian_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    # A singular Jacobian ends the run like any other Newton failure: the
    # failure names the slab, and the CLI writes the partial series, says
    # why on stderr and exits 1.
    from mspde.problems import nls
    from mspde.solver import (SchemeVariant, SlabAssembler, SolverConfig, SolverFailure,
                              run_simulation)

    jacobian = SlabAssembler.jacobian

    def singular(self, z_nodes, state=None):
        jac = jacobian(self, z_nodes, state)
        jac.data[jac.indptr[3]:jac.indptr[4]] = 0.0
        return jac

    monkeypatch.setattr(SlabAssembler, "jacobian", singular)
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.4, t_final=0.3)
    with pytest.raises(SolverFailure) as excinfo:
        run_simulation(SchemeVariant.DG_PRIMARY, nls(), config)
    assert excinfo.value.slab_index == 0
    assert "slab 0" in str(excinfo.value)
    assert excinfo.value.residual_norm > config.newton_tolerance

    out = tmp_path / "singular"
    code = main(["run", "--problem", "nls", "--variant", "dg", "--q", "1", "--p", "2",
                 "--dt", "0.1", "--dx", "0.4", "--T", "0.3", "--out", str(out)])
    assert code == 1
    assert "singular slab Jacobian" in capsys.readouterr().err
    header, rows = read_csv(out / "invariants.csv")
    assert len(rows) == 2  # the initial state's row, then the failure row at t=0
    assert float(rows[0][0]) == 0.0 and rows[0][1] != "nan"
    assert all(float(value) == 0.0 for name, value in zip(header, rows[0])
               if name.startswith("dev_"))
    assert float(rows[1][0]) == 0.0 and rows[1][1] == "nan"


@pytest.mark.parametrize("entry", ["problem = nope", "variant = dgx", "command = verify"])
def test_config_file_entries_are_checked_by_the_parser(tmp_path, entry):
    # A file entry is parsed like the flag it names: an invalid choice or a
    # key that is no option of the subcommand is an invalid configuration.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    with pytest.raises(SystemExit) as bad:
        main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert bad.value.code == 2


def test_abbreviated_explicit_flag_overrides_the_config_file(tmp_path, monkeypatch):
    import mspde.cli

    seen = []
    monkeypatch.setattr(mspde.cli, "cmd_run", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("newton_tol = 1e-10\nq = 2\n")
    assert main(["run", "--config", str(cfg), "--newton", "1e-9"]) == 0
    assert seen[0].newton_tol == 1e-9
    assert seen[0].q == 2


def test_config_file_is_a_run_and_converge_option_only(tmp_path):
    # verify takes only --seed; a config file names the options of a run or
    # a convergence study, so verify rejects --config like any unknown flag.
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("seed = 1\n")
    with pytest.raises(SystemExit) as rejected:
        main(["verify", "--config", str(cfg)])
    assert rejected.value.code == 2
