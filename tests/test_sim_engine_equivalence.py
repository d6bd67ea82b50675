"""Fast path == reference path, bit for bit.

The engine's batched fast path (`Engine._run_section_fast`) must produce
*bit-identical* results to the straightforward reference loop
(`Engine._run_section_reference`) — not approximately equal: the same
floats in every latency sum, the same integers in every counter.  These
tests run real fig. 10/fig. 11 workloads through both loops (and through
the reference loop with a recording observer's hooks on) and compare
complete metric snapshots with exact equality.

If one of these tests fails after an engine/hierarchy/DRAM change, the
fast path has drifted from the model's semantics; fix the drift, never
loosen the comparison.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.alloc.policies import Policy
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import (
    _fresh_environment,
    profile_machine,
    profile_scale,
)
from repro.obs import Observer
from repro.sim.metrics import RunMetrics, ThreadMetrics
from repro.util.rng import RngStream
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticSpec, build_synthetic_program

CONFIG = "16_threads_4_nodes"
PROFILE = "mini"


def snapshot(metrics: RunMetrics) -> dict:
    """Everything a run produced, as plain comparable values."""
    return {
        "summary": metrics.summary(),
        "runtime": metrics.runtime,
        "threads": [dataclasses.asdict(t) for t in metrics.threads],
        "sections": [dataclasses.asdict(s) for s in metrics.sections],
        "dram": dataclasses.asdict(metrics.dram),
        "cache": {
            name: (lvl.hits, lvl.misses) for name, lvl in metrics.cache.items()
        },
    }


def run_fig11(bench: str, policy: Policy, *, fast: bool, traced: bool = False):
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], policy, profile_machine(PROFILE), age_seed=0, **kwargs
    )
    engine.fast_path = fast
    spec = get_workload(bench).scaled(profile_scale(PROFILE))
    program = build_spmd_program(spec, team, RngStream(0, bench, CONFIG))
    return snapshot(engine.run(program))


def run_fig10(policy: Policy, *, fast: bool, traced: bool = False):
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], policy, profile_machine(PROFILE), age_seed=0,
        **kwargs
    )
    engine.fast_path = fast
    spec = SyntheticSpec(per_thread_bytes=64 * 1024)
    program = build_synthetic_program(spec, team)
    return snapshot(engine.run(program))


@pytest.mark.parametrize("bench", ["lbm", "blackscholes"])
@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_fig11_fast_equals_reference(bench, policy):
    fast = run_fig11(bench, policy, fast=True)
    ref = run_fig11(bench, policy, fast=False)
    assert fast == ref


@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_fig10_synthetic_fast_equals_reference(policy):
    fast = run_fig10(policy, fast=True)
    ref = run_fig10(policy, fast=False)
    assert fast == ref


def test_traced_path_matches_reference():
    """A recording observer must not perturb the simulation itself.

    Two inputs: lbm (resident compute sections) and the Fig. 10
    synthetic, where every page demand-faults and so every access runs
    the hook-guarded fault branch.
    """
    ref = run_fig11("lbm", Policy.MEM_LLC, fast=False)
    traced = run_fig11("lbm", Policy.MEM_LLC, fast=True, traced=True)
    assert traced == ref
    ref = run_fig10(Policy.MEM_LLC, fast=False)
    traced = run_fig10(Policy.MEM_LLC, fast=True, traced=True)
    assert traced == ref


# ----------------------------------------------------------- platform grid
PLATFORM_GRID = (
    "opteron_6128_scaled", "opteron_4s", "modern_8ch", "bigbank_4n",
    "disagg_2n",
)


def run_platform(preset: str, policy: Policy, *, fast: bool,
                 traced: bool = False):
    from repro.experiments.configs import configs_for
    from repro.machine.presets import platform
    from repro.util.units import MIB

    machine = platform(preset, 256 * MIB)
    config = next(iter(configs_for(machine.topology).values()))
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        config, policy, machine, age_seed=0, **kwargs
    )
    engine.fast_path = fast
    spec = get_workload("lbm").scaled(profile_scale(PROFILE))
    program = build_spmd_program(spec, team, RngStream(0, "lbm", config.name))
    return snapshot(engine.run(program))


@pytest.mark.parametrize("preset", PLATFORM_GRID)
@pytest.mark.parametrize("policy", [Policy.BUDDY, Policy.MEM_LLC])
def test_platform_fast_equals_reference(preset, policy):
    """Bit identity holds on every preset of the platform family."""
    fast = run_platform(preset, policy, fast=True)
    ref = run_platform(preset, policy, fast=False)
    assert fast == ref


@pytest.mark.parametrize("preset", ["modern_8ch", "disagg_2n"])
def test_platform_traced_matches_reference(preset):
    """The traced path agrees with the reference loop off-Opteron too."""
    ref = run_platform(preset, Policy.MEM_LLC, fast=False)
    traced = run_platform(preset, Policy.MEM_LLC, fast=True, traced=True)
    assert traced == ref


def test_disagg_disables_batched_plan():
    """A disaggregated preset must fall back to the reference loop — the
    batched precompute cannot model DRAM-cache state."""
    from repro.experiments.configs import configs_for
    from repro.machine.presets import platform
    from repro.util.units import MIB

    machine = platform("disagg_2n", 256 * MIB)
    config = next(iter(configs_for(machine.topology).values()))
    team, engine = _fresh_environment(
        config, Policy.BUDDY, machine, age_seed=0
    )
    spec = get_workload("lbm").scaled(profile_scale(PROFILE))
    program = build_spmd_program(
        spec, team, RngStream(0, "lbm", config.name)
    )
    section = next(s for s in program.sections if s.kind == "parallel")
    assert engine._batch_plan(section) is None


#: (route, expected loop, expected engine.kernel_ns kinds).  Only the
#: fast path records kernel_ns; a declined plan is timed as scalar_replay.
DISPATCH_ROUTES = [
    ("fast_path_off", "reference", set()),
    ("observer_on", "reference", set()),
    ("init_section", "reference", {"decode", "scalar_replay"}),
    ("disagg_compute", "reference", {"decode", "scalar_replay"}),
    ("resident_compute", "batched", {"decode", "replay"}),
]


@pytest.mark.parametrize(
    "route,loop,kinds", DISPATCH_ROUTES, ids=[r[0] for r in DISPATCH_ROUTES]
)
def test_fast_path_flag_dispatch(route, loop, kinds):
    """Each section lands in the loop the dispatch table names, and the
    metrics registry labels its replay time accordingly."""
    from repro.machine.presets import platform
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.util.units import MIB

    if route == "disagg_compute":
        from repro.experiments.configs import configs_for

        machine = platform("disagg_2n", 256 * MIB)
        config = next(iter(configs_for(machine.topology).values()))
    else:
        machine = profile_machine(PROFILE)
        config = CONFIGS[CONFIG]
    kwargs = {"observer": Observer()} if route == "observer_on" else {}
    team, engine = _fresh_environment(
        config, Policy.BUDDY, machine, age_seed=0, **kwargs
    )
    assert engine.fast_path  # default on
    engine.fast_path = route != "fast_path_off"
    program = build_spmd_program(
        get_workload("lbm").scaled(profile_scale(PROFILE)),
        team, RngStream(0, "lbm", config.name),
    )
    metrics = RunMetrics(name="x", policy="buddy", nthreads=team.nthreads)
    metrics.threads = [
        ThreadMetrics(thread=i, core=h.core)
        for i, h in enumerate(team.handles)
    ]
    # Replay every section before the target through the real dispatch:
    # the compute routes then find every page resident, the others run
    # the first-touch init section, where every page demand-faults.
    sections = program.sections
    label = "compute[0]" if route.endswith("_compute") else "parallel-init"
    target = next(k for k, s in enumerate(sections) if s.label == label)
    wall = 0.0
    for section in sections[:target]:
        wall = max(engine._run_section(section, wall, metrics).values())

    seen = []
    for name in ("reference", "batched"):
        real = getattr(engine, f"_run_section_{name}")

        def spy(*a, _name=name, _real=real, **k):
            seen.append(_name)
            return _real(*a, **k)

        setattr(engine, f"_run_section_{name}", spy)
    faults = sum(t.faults for t in metrics.threads)
    with obs_metrics.installed(MetricsRegistry()) as reg:
        engine._run_section(sections[target], wall, metrics)
    faulted = sum(t.faults for t in metrics.threads) > faults
    assert faulted == (label == "parallel-init")
    recorded = {
        h["labels"]["kind"] for h in reg.snapshot()["histograms"]
        if h["name"] == "engine.kernel_ns"
    }
    assert seen == [loop]
    assert recorded == kinds
