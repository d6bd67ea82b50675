"""The benchmark's three workloads, their set-up replay and output gate.

Each workload is one unit of the reproduction's real work, run through
the public entry points with tracing and the metrics registry off (the
traced run passes a recorder's ``span`` factory instead of
:func:`no_span`, which only adds spans around these top-level calls):

* ``paper_sweep`` — the Figs. 11-14 cross product (6 benches x 7
  policies on ``16_threads_4_nodes``) through ``sweep(max_workers=1)``,
  the inline ``repro.service`` path, then figures and claims.
* ``fig10_synthetic`` — ``run_synthetic`` over ``FIG10_POLICIES``:
  every page demand-faults, so every section replays on the scalar
  fallback loop.  The stride pattern uses no RNG: this workload does not
  depend on the seed.
* ``platform_matrix`` — the ``matrix`` grid at its defaults, one rep,
  including each platform's fast==reference ``check_equivalence``.  The
  cells go through ``run_benchmark(seed=...)`` because ``run_matrix``
  takes no seed; the aggregation mirrors ``run_matrix``'s.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.alloc.policies import Policy
from repro.core.session import ColoredTeam
from repro.core.tintmalloc import TintMalloc
from repro.experiments.claims import evaluate_fig10_claims, evaluate_main_claims
from repro.experiments.configs import CONFIGS
from repro.experiments.figures import FIG10_POLICIES, fig10, fig11, fig12, fig13, fig14
from repro.experiments.matrix import (
    DEFAULT_PLATFORMS,
    MATRIX_POLICIES,
    MatrixCell,
    check_equivalence,
    headline_config,
    render_markdown,
)
from repro.experiments.runner import (
    RunRecord,
    profile_machine,
    profile_scale,
    run_benchmark,
    run_synthetic,
    sweep,
)
from repro.kernel.kernel import Kernel
from repro.machine.presets import platform
from repro.sim.engine import MemorySystem
from repro.util.rng import RngStream
from repro.util.units import MIB
from repro.workloads.base import build_spmd_program
from repro.workloads.registry import BENCH_ORDER, get_workload
from repro.workloads.synthetic import SyntheticSpec, build_synthetic_program

HEADLINE = "16_threads_4_nodes"
#: The scaled profile takes 81 s a sweep on a 2-CPU host, more than one
#: run may last; mini keeps all 42 cells at a twentieth of the accesses.
SWEEP_PROFILE = "mini"
FIG10_PROFILE = "scaled"
#: run_matrix's defaults.
MATRIX_MEMORY = 256 * MIB
MATRIX_SCALE = 0.05
MATRIX_BENCHES = ("lbm", "art")


@contextmanager
def no_span(name: str, **args):
    yield


@dataclass
class Outcome:
    """What one unit of a workload produced."""

    #: run key of every run the unit attempted.
    expected: list[str]
    #: run key -> record, for the runs that completed.
    records: dict[str, RunRecord]
    #: JSON-able summary of the figures/claims/cells step (None if it raised).
    report: object
    claims_held: int

    def digests(self) -> dict[str, str]:
        out = {key: digest(rec.to_json()) for key, rec in self.records.items()}
        out["report"] = digest(self.report)
        return out


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: What :func:`attempt` returns for a call that raised.
FAILED = object()


def attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or FAILED after printing why it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return FAILED


def _claims_report(claims) -> list:
    return [[c.claim_id, c.measured, c.holds] for c in claims]


def _outcome(expected, records, report, claims_held=None) -> Outcome:
    """``claims_held`` defaults to the claims in a claims report that hold."""
    if report is FAILED:
        return Outcome(expected, records, None, 0)
    if claims_held is None:
        claims_held = sum(holds for _, _, holds in report)
    return Outcome(expected, records, report, claims_held)


# ------------------------------------------------------------ paper_sweep
def paper_sweep(seed: int, span=no_span) -> Outcome:
    expected = [f"{b}/{p.label}" for b in BENCH_ORDER for p in Policy]
    with span("service.sweep"):
        records = attempt(
            sweep, list(BENCH_ORDER), list(Policy), [HEADLINE], reps=1,
            profile=SWEEP_PROFILE, seed=seed, max_workers=1,
        )
    if records is FAILED:
        records = []
    with span("experiments.report"):
        report = attempt(_paper_report, records)
    return _outcome(expected, {f"{r.bench}/{r.policy}": r for r in records},
                    report)


def _paper_report(records):
    for figure in (fig11(records), fig12(records)):
        figure.render(HEADLINE)
    fig13(records, HEADLINE).render("lbm")
    fig14(records, HEADLINE).render("lbm")
    return _claims_report(evaluate_main_claims(records))


# -------------------------------------------------------- fig10_synthetic
def fig10_synthetic(seed: int, span=no_span) -> Outcome:
    del seed  # the alternating-stride pattern draws no random numbers
    records = {}
    for policy in FIG10_POLICIES:
        with span("experiments.run", policy=policy.label):
            rec = attempt(run_synthetic, policy, HEADLINE, rep=0,
                          profile=FIG10_PROFILE)
        if rec is not FAILED:
            records[f"synthetic/{policy.label}"] = rec
    with span("experiments.report"):
        report = attempt(_fig10_report, list(records.values()))
    return _outcome([f"synthetic/{p.label}" for p in FIG10_POLICIES],
                    records, report)


def _fig10_report(records):
    fig10(records).render()
    return _claims_report(evaluate_fig10_claims(records))


# -------------------------------------------------------- platform_matrix
def platform_matrix(seed: int, span=no_span) -> Outcome:
    records = {}
    equivalent = 0
    for pname in DEFAULT_PLATFORMS:
        machine = platform(pname, MATRIX_MEMORY)
        with span("experiments.equivalence", platform=pname):
            checked = attempt(check_equivalence, machine, MATRIX_BENCHES[0],
                              MATRIX_SCALE)
        if checked is FAILED:
            continue  # the platform's runs count as failed
        equivalent += 1
        config = headline_config(machine)
        for bench in MATRIX_BENCHES:
            for policy in MATRIX_POLICIES:
                with span("experiments.run", policy=policy.label):
                    rec = attempt(
                        run_benchmark, bench, policy, config, rep=0,
                        seed=seed, machine=machine, scale=MATRIX_SCALE,
                    )
                if rec is not FAILED:
                    records[f"{pname}/{bench}/{policy.label}"] = rec
    with span("experiments.report"):
        report = attempt(_matrix_report, records)
    expected = [
        f"{pname}/{bench}/{policy.label}" for pname in DEFAULT_PLATFORMS
        for bench in MATRIX_BENCHES for policy in MATRIX_POLICIES
    ]
    # A matrix "claim": the platform's fast replay is bit-identical to
    # the reference loop.
    return _outcome(expected, records, report, claims_held=equivalent)


def _matrix_report(records):
    cells = matrix_cells(records)
    render_markdown(cells)
    return [asdict(cell) for cell in cells]


def matrix_cells(records: dict[str, RunRecord]) -> list[MatrixCell]:
    """``run_matrix``'s aggregation for one rep."""
    cells = []
    for pname in DEFAULT_PLATFORMS:
        for bench in MATRIX_BENCHES:
            buddy = records.get(f"{pname}/{bench}/{Policy.BUDDY.label}")
            if buddy is None:
                continue
            for policy in MATRIX_POLICIES:
                rec = records.get(f"{pname}/{bench}/{policy.label}")
                if rec is None:
                    continue
                cells.append(MatrixCell(
                    platform=pname,
                    bench=bench,
                    policy=policy.label,
                    runtime=rec.runtime,
                    payoff_pct=100.0 * (buddy.runtime - rec.runtime) / buddy.runtime
                    if buddy.runtime else 0.0,
                    divergence=rec.runtime_spread / rec.max_thread_runtime
                    if rec.max_thread_runtime > 0.0 else 0.0,
                    remote_fraction=rec.remote_fraction,
                    dram_accesses=float(rec.dram_accesses),
                    inverted=policy is not Policy.BUDDY
                    and rec.runtime > buddy.runtime,
                ))
    return cells


WORKLOADS = {
    "paper_sweep": paper_sweep,
    "fig10_synthetic": fig10_synthetic,
    "platform_matrix": platform_matrix,
}

#: Workloads whose inputs do not depend on the seed.
SEED_FREE = {"fig10_synthetic"}


# ------------------------------------------------------------------ set-up
def setups(workload: str, seed: int) -> list[tuple]:
    """One ``(machine factory, cores, policy, program builder)`` per engine
    run of the workload, mirroring how its entry points set runs up."""
    out = []
    if workload == "paper_sweep":
        cores = CONFIGS[HEADLINE].cores
        for bench in BENCH_ORDER:
            for policy in Policy:
                out.append((
                    lambda: profile_machine(SWEEP_PROFILE), cores, policy,
                    lambda team, machine, b=bench: build_spmd_program(
                        get_workload(b).scaled(profile_scale(SWEEP_PROFILE)),
                        team, RngStream(seed, b, HEADLINE),
                    ),
                ))
    elif workload == "fig10_synthetic":
        cores = CONFIGS[HEADLINE].cores
        for policy in FIG10_POLICIES:
            out.append((
                lambda: profile_machine(FIG10_PROFILE), cores, policy,
                lambda team, machine: build_synthetic_program(
                    SyntheticSpec.for_machine(
                        machine, profile_scale(FIG10_PROFILE)
                    ),
                    team,
                ),
            ))
    else:
        for pname in DEFAULT_PLATFORMS:
            config = headline_config(platform(pname, MATRIX_MEMORY))
            runs = [(Policy.MEM_LLC, MATRIX_BENCHES[0], 0)] * 2  # equivalence
            runs += [(policy, bench, seed) for bench in MATRIX_BENCHES
                     for policy in MATRIX_POLICIES]
            for policy, bench, run_seed in runs:
                out.append((
                    lambda p=pname: platform(p, MATRIX_MEMORY), config.cores,
                    policy,
                    lambda team, machine, b=bench, s=run_seed, c=config.name:
                    build_spmd_program(
                        get_workload(b).scaled(MATRIX_SCALE), team,
                        RngStream(s, b, c),
                    ),
                ))
    return out


def setup_pass(specs: list[tuple]) -> tuple[float, int]:
    """Host seconds from machine build to a built program, summed over
    ``specs``, and the simulated accesses those programs will replay."""
    seconds = 0.0
    accesses = 0
    for machine_of, cores, policy, build in specs:
        t0 = time.perf_counter()
        machine = machine_of()
        kernel = Kernel(machine)
        team = ColoredTeam.create(TintMalloc(kernel=kernel), list(cores), policy)
        MemorySystem.for_machine(machine)
        program = build(team, machine)
        seconds += time.perf_counter() - t0
        accesses += program.total_accesses
    return seconds, accesses


# -------------------------------------------------------------------- gate
class Gate:
    """Output-correctness gate over the units of one benchmark run.

    A run fails when it raised, when its digest differs from the one
    recorded for this seed, or when it differs from the same run in the
    first unit (every unit of one seed must repeat exactly).  A report
    (figures, claims, matrix cells) that differs the same way makes the
    whole result incorrect.
    """

    def __init__(self, recorded: dict[str, str] | None) -> None:
        self.recorded = recorded
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outcome: Outcome) -> None:
        got = outcome.digests()
        refs = [ref for ref in (self.recorded, self.first) if ref is not None]
        self.attempted += len(outcome.expected)
        for key in outcome.expected:
            if key not in got or any(ref.get(key) != got[key] for ref in refs):
                self.failed += 1
                self.problems.append(f"run {key}: raised or digest mismatch")
        if outcome.report is None or any(
            ref.get("report") != got["report"] for ref in refs
        ):
            self.problems.append("report raised or digest mismatch")
        if self.first is None:
            self.first = got
