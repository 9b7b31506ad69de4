"""Conservation laws on set-ups without mirror symmetry.

Every NLS set-up of the acceptance suite puts the soliton on the seam of a
uniform mesh, which makes the discrete problem mirror-symmetric: a defect
whose integrand is odd under the mirror cancels there.  These runs break the
symmetry, by moving the soliton off the seam or by jittering the mesh, and
check the laws the scheme conserves by construction: global energy, and on
broken spaces the element-local momentum and energy laws.  Momentum is not
bounded here; README "Conservation without the mirror symmetry" gives its
measured deviations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspde import solver
from mspde.diagnostics import global_invariants, local_conservation_residuals
from mspde.mesh import Partition1D
from mspde.problems import nls, nonlinear_wave
from mspde.solver import SchemeVariant, SolverConfig, run_simulation
from mspde.spaces import SpatialSpace

ENERGY_BOUND = 1e-9
LOCAL_LAW_BOUND = 1e-10  # verify's local-conservation-laws tolerance


def shifted_nls(shift=0.1):
    """NLS with the soliton started ``shift`` off the seam (0.1 is a quarter
    element at dx=0.4)."""
    base = nls()
    return dataclasses.replace(
        base, initial_state=lambda x: base.exact_solution(0.0, np.asarray(x) - shift),
        exact_solution=None)


def jittered_partition(length, count, amplitude=0.2, seed=1):
    """Periodic partition whose interior nodes are moved by up to
    ``amplitude`` of the element width, uniformly, with a fixed seed."""
    nodes = np.linspace(0.0, length, count + 1)
    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, count - 1)
    nodes[1:-1] += amplitude * (length / count) * jitter
    return Partition1D(nodes)


def run_on(partition, variant, problem, config):
    """run_simulation on ``partition`` in place of build_space's uniform one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "build_space", lambda problem, config, variant:
                      SpatialSpace(partition, config.p, variant.spatial_continuity))
        trajectory = run_simulation(variant, problem, config)
    assert trajectory.space.partition is partition
    return trajectory


def check_conservation(trajectory, problem, last_slabs):
    """Energy over the run, and on a broken space the element-local laws of
    the last ``last_slabs`` slabs."""
    _, _, energy = global_invariants(trajectory).deviations()
    assert energy.max() <= ENERGY_BOUND
    if trajectory.space.continuity == "dg":
        for coeffs in trajectory.slabs[-last_slabs:]:
            laws = local_conservation_residuals(problem, coeffs)
            assert np.max(np.abs(laws.momentum)) <= LOCAL_LAW_BOUND
            assert np.max(np.abs(laws.energy)) <= LOCAL_LAW_BOUND


SETUPS = {
    "nls-shifted": (shifted_nls, 0.4, False),
    "nls-jittered": (nls, 0.4, True),
    "nonlinear-wave-jittered": (nonlinear_wave, 0.05, True),
}


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("variant", ["cg", "dg"])
@pytest.mark.parametrize("setup", list(SETUPS))
def test_conservation_without_mirror_symmetry(setup, variant, p, q):
    factory, dx, jitter = SETUPS[setup]
    problem = factory()
    config = SolverConfig(q=q, p=p, dt=0.1, dx=dx, t_final=1.0)
    if jitter:
        partition = jittered_partition(problem.domain_length,
                                       int(round(problem.domain_length / dx)))
        assert np.ptp(partition.widths) > 0.1 * dx
        trajectory = run_on(partition, SchemeVariant(variant), problem, config)
    else:
        trajectory = run_simulation(SchemeVariant(variant), problem, config)
    check_conservation(trajectory, problem, last_slabs=2)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(p=st.sampled_from([1, 2]), q=st.sampled_from([0, 1]),
       variant=st.sampled_from(["cg", "dg"]),
       jitter=st.floats(0.0, 0.2), shift=st.floats(-0.2, 0.2))
def test_nls_conservation_over_jitter_and_shift(p, q, variant, jitter, shift):
    # NLS at dx=0.4, dt=0.1, T=1 on a mesh jittered by up to ``jitter`` of
    # an element and with the soliton ``shift`` off the seam.
    problem = shifted_nls(shift)
    config = SolverConfig(q=q, p=p, dt=0.1, dx=0.4, t_final=1.0)
    partition = jittered_partition(problem.domain_length,
                                   int(round(problem.domain_length / config.dx)), jitter)
    trajectory = run_on(partition, SchemeVariant(variant), problem, config)
    check_conservation(trajectory, problem, last_slabs=1)
