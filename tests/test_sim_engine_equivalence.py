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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alloc.policies import Policy
from repro.dram.remote import RemoteCache, RemoteTier
from repro.experiments.configs import CONFIGS
from repro.experiments.runner import (
    _fresh_environment,
    profile_machine,
    profile_scale,
)
from repro.machine.presets import tiny_machine
from repro.obs import Observer
from repro.sim.barrier import Program, Section
from repro.sim.engine import MemorySystem
from repro.sim.metrics import RunMetrics, ThreadMetrics
from repro.sim.trace import Trace
from repro.util.rng import RngStream
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticSpec, build_synthetic_program

CONFIG = "16_threads_4_nodes"
PROFILE = "mini"


def snapshot(metrics: RunMetrics, space) -> dict:
    """Everything a run produced, as plain comparable values.

    Includes the end-state page table and first-toucher map in insertion
    order, so a demand fault taken by another thread, or in another
    order, shows up even when every counter agrees.
    """
    return {
        "page_table": list(space.page_table.items()),
        "first_toucher": list(space.first_toucher.items()),
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
    return snapshot(engine.run(program), engine.space)


def run_fig10(policy: Policy, *, fast: bool, traced: bool = False,
              huge: bool = False):
    observer = Observer() if traced else None
    kwargs = {"observer": observer} if observer is not None else {}
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], policy, profile_machine(PROFILE), age_seed=0,
        **kwargs
    )
    engine.fast_path = fast
    spec = SyntheticSpec(per_thread_bytes=64 * 1024)
    program = build_synthetic_program(spec, team, huge=huge)
    snap = snapshot(engine.run(program), engine.space)
    snap["refill_blocks"] = team.tm.kernel.page_allocator.refill_blocks
    return snap


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


# ------------------------------------------------------------ fault order
# The batched loop takes demand faults at per-thread fault stops, in
# merge order.  These cases pin the fault order itself: end-state page
# table and first-toucher map (in insertion order) plus every metric.
@pytest.mark.parametrize("policy", [Policy.BPM, Policy.LLC])
def test_fault_order_fig10_refills(policy):
    """Colored policies refill their color lists inside demand faults."""
    fast = run_fig10(policy, fast=True)
    ref = run_fig10(policy, fast=False)
    assert ref["refill_blocks"] > 0
    assert fast == ref


def test_fault_order_huge_pages():
    """One 2 MiB fault maps 512 base pages; the later first touches of
    those pages find them mapped and take no fault."""
    fast = run_fig10(Policy.MEM_LLC, fast=True, huge=True)
    ref = run_fig10(Policy.MEM_LLC, fast=False, huge=True)
    assert sum(t["faults"] for t in ref["threads"]) < len(ref["page_table"])
    assert fast == ref


def run_shared_region(*, fast: bool):
    """Two threads first-touch one fresh region from opposite ends."""
    team, engine = _fresh_environment(
        CONFIGS[CONFIG], Policy.MEM_LLC, profile_machine(PROFILE), age_seed=0
    )
    engine.fast_path = fast
    page = team.tm.kernel.mapping.page_bytes
    npages, per_page = 16, 4
    base = team.handles[0].malloc(npages * page, label="shared")
    up = base + np.arange(npages * per_page) * (page // per_page)
    traces = {
        0: Trace(vaddrs=up, writes=np.ones(len(up), dtype=bool),
                 think_ns=20.0, label="up"),
        1: Trace(vaddrs=up[::-1].copy(), writes=np.zeros(len(up), dtype=bool),
                 think_ns=35.0, label="down"),
    }
    program = Program(
        sections=[Section(kind="parallel", traces=traces, label="race")],
        nthreads=team.nthreads, name="race",
    )
    return snapshot(engine.run(program), engine.space), npages


def test_fault_order_shared_region():
    """Whichever thread reaches a page first faults it; the second
    toucher finds it mapped and takes no fault."""
    fast, npages = run_shared_region(fast=True)
    ref, _ = run_shared_region(fast=False)
    faults = [t["faults"] for t in ref["threads"][:2]]
    assert sum(faults) == npages and 0 < min(faults) <= max(faults) < npages
    assert fast == ref


def run_disagg_writes(*, fast: bool):
    """All-write Fig. 10 synthetic on disagg_2n, then a resident second
    pass over the same lines.  The footprint spills the LLC, so dirty
    victims on the remote node are absorbed by the DRAM cache and the
    second pass hits it."""
    from repro.experiments.configs import configs_for
    from repro.machine.presets import platform
    from repro.util.units import MIB

    machine = platform("disagg_2n", 256 * MIB)
    # A DRAM cache half the remote node's share of the footprint, so it
    # evicts and its LRU order (hits, absorbed write-backs) matters.
    machine = dataclasses.replace(
        machine, remote=dataclasses.replace(machine.remote, cache_lines=16384)
    )
    config = next(iter(configs_for(machine.topology).values()))
    team, engine = _fresh_environment(
        config, Policy.BUDDY, machine, age_seed=0
    )
    engine.fast_path = fast
    program = build_synthetic_program(
        SyntheticSpec(per_thread_bytes=256 * 1024), team
    )
    program.sections.append(
        dataclasses.replace(program.sections[0], label="rewrite")
    )
    return snapshot(engine.run(program), engine.space)


def test_disagg_fault_order_all_writes(monkeypatch):
    fast = run_disagg_writes(fast=True)
    absorbed = []
    touch = RemoteCache.touch

    def counting_touch(self, line):
        hit = touch(self, line)
        absorbed.append(hit)
        return hit

    monkeypatch.setattr(RemoteCache, "touch", counting_touch)
    ref = run_disagg_writes(fast=False)
    assert any(absorbed)
    assert ref["dram"]["remote_cache_hits"] > 0
    assert ref["dram"]["remote_cache_misses"] > 0
    assert fast == ref


#: tiny_machine with node 1 behind a small DRAM-cache tier.
TINY_REMOTE = dataclasses.replace(
    tiny_machine(),
    remote=RemoteTier(remote_nodes=(1,), cache_lines=64, cache_ways=4),
)


@st.composite
def racing_programs(draw):
    """Two sections of short random traces over a few shared pages."""
    npages = draw(st.integers(1, 6))
    sections = []
    for _ in range(2):
        traces = {}
        for tidx in draw(st.sets(st.integers(0, 3), min_size=1)):
            accesses = draw(st.lists(
                st.tuples(st.integers(0, npages - 1), st.integers(0, 63),
                          st.booleans()),
                max_size=40,
            ))
            think = draw(st.sampled_from([0.0, 0.3, 2.5, 55.0]))
            traces[tidx] = (accesses, think)
        sections.append(traces)
    return npages, sections


def run_racing(machine, policy, fault_ns, npages, sections, *, fast: bool):
    from repro.experiments.configs import configs_for

    config = next(iter(configs_for(machine.topology).values()))
    team, engine = _fresh_environment(config, policy, machine, age_seed=0)
    engine.fast_path = fast
    team.tm.kernel.fault_base_ns = fault_ns
    mapping = team.tm.kernel.mapping
    base = team.handles[0].malloc(npages * mapping.page_bytes, label="fuzz")
    program = Program(
        sections=[
            Section(kind="parallel", label=f"s{k}", traces={
                tidx: Trace(
                    vaddrs=np.array(
                        [base + p * mapping.page_bytes + ln * mapping.line_bytes
                         for p, ln, _ in accesses], dtype=np.int64,
                    ),
                    writes=np.array([w for *_, w in accesses], dtype=bool),
                    think_ns=think,
                )
                for tidx, (accesses, think) in traces.items()
            })
            for k, traces in enumerate(sections)
        ],
        nthreads=team.nthreads, name="fuzz",
    )
    return snapshot(engine.run(program), engine.space)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    machine=st.sampled_from([tiny_machine(), TINY_REMOTE]),
    policy=st.sampled_from([Policy.BUDDY, Policy.BPM, Policy.MEM_LLC]),
    # A non-dyadic fault charge makes a reassociated float chain show.
    fault_ns=st.sampled_from([1200.0, 333.3]),
    drawn=racing_programs(),
)
def test_fault_order_random_traces(machine, policy, fault_ns, drawn):
    """Random multi-thread traces over a few pages: fast == reference."""
    npages, sections = drawn
    fast = run_racing(machine, policy, fault_ns, npages, sections, fast=True)
    ref = run_racing(machine, policy, fault_ns, npages, sections, fast=False)
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
    return snapshot(engine.run(program), engine.space)


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


def test_disagg_plans_batched():
    """A disaggregated preset is planned like any other: accesses to the
    node behind the DRAM-cache tier carry the ``-1`` hop sentinel."""
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
    plan = engine._batch_plan(section)
    assert plan is not None and set(plan) == set(section.traces)
    # plan[13] holds the core's per-node interconnect rows, hops first.
    assert all(p[13][0][1] == -1 for p in plan.values())


#: (route, expected loop, expected engine.kernel_ns kinds).  Only the
#: fast path records kernel_ns; a declined plan is timed as scalar_replay.
#: Prefetch ablation is the one route on real presets that _batch_plan
#: declines.
DISPATCH_ROUTES = [
    ("fast_path_off", "reference", set()),
    ("observer_on", "reference", set()),
    ("init_section", "batched", {"decode", "replay"}),
    ("disagg_compute", "batched", {"decode", "replay"}),
    ("resident_compute", "batched", {"decode", "replay"}),
    ("prefetch_compute", "reference", {"decode", "scalar_replay"}),
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
    if route == "prefetch_compute":
        engine.memory = MemorySystem.for_machine(machine, prefetch=True)
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
