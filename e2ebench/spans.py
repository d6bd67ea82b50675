"""Host-time spans around the simulator's layers, recorded from outside.

A traced unit installs :func:`instrument`, which wraps the public entry
point of each layer (kernel boot, team creation, memory-system build,
workload build, the fault handler, Algorithm 2's ``push_block``,
``Engine.run`` and the service worker's ``run_benchmark``) so every call
opens a span on one :class:`Recorder`.  Nothing inside ``src/repro``
changes: the wrappers are installed on the classes and module globals
for the duration of the unit and restored afterwards.

:func:`layer_metrics` turns one unit's spans, the ``RunMetrics`` the
engine returned, and the ambient ``repro.obs.metrics`` registry snapshot
(``engine.kernel_ns{kind=decode|replay|scalar_replay}``) into the
per-layer numbers.  A span's *self* time is its duration minus its
children's; self times plus ``unattributed_s`` add up to the unit's
traced wall by construction, and :func:`layer_metrics` checks that no
child outlives its parent (which would make a self time negative).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core.session import ColoredTeam
from repro.experiments import matrix as matrix_mod
from repro.experiments import runner as runner_mod
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.kernel import Kernel
from repro.obs import Observer
from repro.obs.metrics import find_metric
from repro.service import worker as worker_mod
from repro.sim.engine import Engine, MemorySystem

#: Every span name a traced unit can record, in report order.  The first
#: component names the layer (the ``repro`` subpackage it wraps).
SPAN_NAMES = (
    "service.sweep",
    "experiments.run",
    "experiments.equivalence",
    "experiments.report",
    "workloads.build",
    "kernel.boot",
    "alloc.team",
    "dram.memsys",
    "engine.run",
    "engine.run_reference",
    "kernel.fault",
    "kernel.push_block",
)

#: Policy labels as metric-name components ("mem+llc(part)" -> "mem_llc_part").
POLICY_KEYS = {
    "buddy": "buddy", "bpm": "bpm", "llc": "llc", "mem": "mem",
    "mem+llc": "mem_llc", "mem+llc(part)": "mem_llc_part",
    "llc+mem(part)": "llc_mem_part",
}


class Recorder:
    """Nested host-time spans kept in memory until the benchmark ends.

    Calls into the wrapped layers are serial (the sweep's inline worker
    runs while the submitting thread waits), so one stack serves the
    submitting thread and the worker thread alike.
    """

    def __init__(self) -> None:
        #: [name, begin_s, end_s, parent index or -1, args] per span.
        self.spans: list[list] = []
        #: (fast_path, RunMetrics, kernel refill blocks) per Engine.run.
        self.runs: list[tuple] = []
        self._stack: list[int] = []

    def push(self, name: str, args: dict | None = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, args])

    def pop(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args):
        self.push(name, args or None)
        try:
            yield
        finally:
            self.pop()

    def to_observer(self, obs: Observer, offset_s: float, unit: int) -> None:
        """Copy the spans into ``obs`` (ns since ``offset_s``) for the
        repro.obs exporters; ``unit`` tags each span's args."""
        for name, t0, t1, _, args in self.spans:
            obs.span(
                name, (t0 - offset_s) * 1e9, (t1 - offset_s) * 1e9,
                track="host", args={"unit": unit, **(args or {})},
            )


def _wrapped(rec: Recorder, name: str, fn, args_of=None):
    def wrapper(*a, **k):
        rec.push(name, args_of(*a, **k) if args_of is not None else None)
        try:
            return fn(*a, **k)
        finally:
            rec.pop()
    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Wrap each layer's public functions with spans on ``rec``."""
    saved = []

    def patch(owner, attr, make):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def method(name, args_of=None):
        return lambda fn: _wrapped(rec, name, fn, args_of)

    def classmethod_(name):
        return lambda cm: classmethod(_wrapped(rec, name, cm.__func__))

    def engine_run(fn):
        def run(self, program):
            rec.push("engine.run" if self.fast_path else "engine.run_reference")
            try:
                metrics = fn(self, program)
            finally:
                rec.pop()
            rec.runs.append((
                self.fast_path, metrics,
                self.kernel.page_allocator.refill_blocks,
            ))
            return metrics
        return run

    patch(Kernel, "__init__", method("kernel.boot"))
    # AddressSpace.fault_handler is bound to Kernel._handle_fault when a
    # process is created, i.e. after this patch.
    patch(Kernel, "_handle_fault", method("kernel.fault"))
    patch(ColorMatrix, "push_block", method(
        "kernel.push_block", lambda self, start, order: {"frames": 1 << order}
    ))
    patch(ColoredTeam, "create", classmethod_("alloc.team"))
    patch(MemorySystem, "for_machine", classmethod_("dram.memsys"))
    patch(Engine, "run", engine_run)
    for module in (runner_mod, matrix_mod):
        patch(module, "build_spmd_program", method("workloads.build"))
    patch(runner_mod, "build_synthetic_program", method("workloads.build"))
    patch(worker_mod, "run_benchmark", method(
        "experiments.run", lambda bench, policy, *a, **k: {"policy": policy.label}
    ))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics
def _hist_sum_s(snapshot: dict, kind: str) -> tuple[float, int]:
    """Seconds and observations of ``engine.kernel_ns{kind=...}``."""
    for hist in snapshot["histograms"]:
        if hist["name"] == "engine.kernel_ns" and hist["labels"] == {"kind": kind}:
            return hist["sum"] / 1e9, hist["count"]
    return 0.0, 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, snapshot: dict, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced unit that lasted ``wall`` seconds,
    and the self time of each span name inside each policy's runs
    (``{policy key: {span name: s}}``, summing to that policy's run_s).

    Raises AssertionError when the span tree is inconsistent: a child
    longer than its parent, or self times that do not add up to the wall.
    """
    spans = rec.spans
    n = len(spans)
    child = [0.0] * n
    policy_of = [None] * n
    top = 0.0
    for i, (name, t0, t1, parent, args) in enumerate(spans):
        if parent < 0:
            top += t1 - t0
        else:
            child[parent] += t1 - t0
            policy_of[i] = policy_of[parent]
        if name == "experiments.run":
            policy_of[i] = args["policy"]

    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    count = dict.fromkeys(SPAN_NAMES, 0)
    per_policy = {key: dict.fromkeys(SPAN_NAMES, 0.0) for key in POLICY_KEYS.values()}
    policy_runs = dict.fromkeys(POLICY_KEYS.values(), 0.0)
    policy_faults = {key: [0.0, 0] for key in POLICY_KEYS.values()}
    fault_in_fast_engine = 0.0
    push_frames = 0
    sweep_jobs = 0
    for i, (name, t0, t1, parent, args) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        if own < -1e-6:
            raise AssertionError(f"span {name} shorter than its children")
        total[name] += dur
        self_s[name] += own
        count[name] += 1
        pol = POLICY_KEYS.get(policy_of[i])
        if pol is not None:
            per_policy[pol][name] += own
        if name == "experiments.run":
            policy_runs[pol] += dur
            if parent >= 0 and spans[parent][0] == "service.sweep":
                sweep_jobs += 1
        elif name == "kernel.fault":
            if pol is not None:
                policy_faults[pol][0] += dur
                policy_faults[pol][1] += 1
            if parent >= 0 and spans[parent][0] == "engine.run":
                fault_in_fast_engine += dur
        elif name == "kernel.push_block":
            push_frames += args["frames"]
    unattributed = wall - top
    if abs(sum(self_s.values()) + unattributed - wall) > 1e-6 * max(wall, 1.0):
        raise AssertionError("self times do not add up to the traced wall")

    plan_s, _ = _hist_sum_s(snapshot, "decode")
    replay_s, batched = _hist_sum_s(snapshot, "replay")
    scalar_s, scalar = _hist_sum_s(snapshot, "scalar_replay")
    accesses_metric = find_metric(snapshot, "counters", "engine.accesses")
    accesses = int(accesses_metric["value"]) if accesses_metric else 0
    engine_s = total["engine.run"] + total["engine.run_reference"]
    faults = count["kernel.fault"]

    out = {
        "traced_wall_s": wall,
        "unattributed_s": unattributed,
        "workloads.build_s": total["workloads.build"],
        "kernel.boot_s": total["kernel.boot"],
        "alloc.team_s": total["alloc.team"],
        "dram.memsys_s": total["dram.memsys"],
        "kernel.fault_s": total["kernel.fault"],
        "kernel.push_block_s": total["kernel.push_block"],
        "kernel.faults": faults,
        "kernel.refill_blocks": sum(refills for _, _, refills in rec.runs),
        "kernel.push_block_frames": push_frames,
        "kernel.fault_us": _ratio(total["kernel.fault"] * 1e6, faults),
        "engine.run_s": engine_s,
        "engine.reference_run_s": total["engine.run_reference"],
        "engine.plan_s": plan_s,
        "engine.batched_replay_s": replay_s,
        "engine.scalar_replay_self_s": scalar_s - fault_in_fast_engine,
        "engine.accesses": accesses,
        "engine.host_ns_per_access": _ratio(engine_s * 1e9, accesses),
        "engine.batched_sections_frac": _ratio(batched, batched + scalar),
        "service.overhead_s": self_s["service.sweep"],
        "service.jobs": sweep_jobs,
        "experiments.equivalence_s": total["experiments.equivalence"],
        "experiments.report_s": total["experiments.report"],
    }
    out.update(_simulated(rec.runs))
    for name in SPAN_NAMES:
        out[f"self.{name}_s"] = self_s[name]
    for key, run_s in policy_runs.items():
        fault_s, faults = policy_faults[key]
        out[f"policy.{key}.run_s"] = run_s
        out[f"policy.{key}.fault_s"] = fault_s
        out[f"policy.{key}.fault_us"] = _ratio(fault_s * 1e6, faults)
        out[f"policy.{key}.fault_frac"] = _ratio(fault_s, run_s)
    return out, per_policy


def _simulated(runs: list[tuple]) -> dict:
    """Simulated (exact) statistics summed over the fast-path runs; the
    reference replays inside the equivalence check duplicate them."""
    hits = {"l1": 0, "l2": 0, "llc": 0}
    misses = dict.fromkeys(hits, 0)
    dram = dict.fromkeys((
        "accesses", "row_hits", "row_conflicts", "remote_accesses",
        "remote_cache_hits", "remote_cache_misses", "wait_bank",
        "wait_chan", "wait_ctrl", "wait_link",
    ), 0)
    runtime = divergence = idle = 0.0
    for fast, metrics, _ in runs:
        if not fast:
            continue
        for level in hits:
            hits[level] += metrics.cache[level].hits
            misses[level] += metrics.cache[level].misses
        for field in dram:
            dram[field] += getattr(metrics.dram, field)
        runtime += metrics.runtime
        divergence += metrics.runtime_spread
        idle += metrics.total_idle
    out = {
        f"cache.{level}_miss_rate": _ratio(misses[level], hits[level] + misses[level])
        for level in hits
    }
    out.update({
        "dram.accesses": dram["accesses"],
        "dram.row_hit_rate": _ratio(dram["row_hits"], dram["accesses"]),
        "dram.row_conflicts": dram["row_conflicts"],
        "dram.remote_fraction": _ratio(dram["remote_accesses"], dram["accesses"]),
        "dram.remote_cache_hits": dram["remote_cache_hits"],
        "dram.remote_cache_misses": dram["remote_cache_misses"],
        "dram.wait_bank_ns": dram["wait_bank"],
        "dram.wait_chan_ns": dram["wait_chan"],
        "dram.wait_ctrl_ns": dram["wait_ctrl"],
        "dram.wait_link_ns": dram["wait_link"],
        "sim.runtime_ns": runtime,
        "sim.divergence_ns": divergence,
        "sim.idle_ns": idle,
    })
    return out
