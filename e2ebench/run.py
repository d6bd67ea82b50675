"""End-to-end benchmark of the TintMalloc reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload paper_sweep --seed 0 --seconds 35 --trace 0

``--trace 0`` repeats the workload (tracing and the metrics registry
off) for ``--seconds`` and reports the end-to-end metrics named in
``BENCHMARK.json``: the median unit wall, simulated accesses per host
second, the median set-up pass (one beside every unit, at least three),
peak RSS, the share of runs that passed the output gate, and the claims
that hold.  ``--trace 1``
alternates plain and traced units for ``--seconds`` and reports the
per-layer metrics: span self times, the registry's engine histograms,
the simulated statistics, the tracing overhead, the per-layer
microbenchmarks and the host calibration score.  The traced units'
spans are written once, at the end, to ``e2ebench/out/`` as a Perfetto
trace plus a JSONL event log.

Everything runs in this one process: the sweep uses the service's inline
worker (one extra thread), so the benchmark never uses more than two
CPUs.  The last line of standard output is the JSON result.

``--record`` stores this seed's run digests in ``digests.json`` (use it
only when a change is meant to alter simulated results).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_PASSES = 3

#: Per-layer counts that are simulated, not timed: every traced unit of
#: one seed must reproduce them exactly.
EXACT = (
    "kernel.faults", "kernel.refill_blocks", "kernel.push_block_frames",
    "engine.accesses", "engine.batched_sections_frac", "service.jobs",
    "cache.l1_miss_rate", "cache.l2_miss_rate", "cache.llc_miss_rate",
    "dram.accesses", "dram.row_hit_rate", "dram.row_conflicts",
    "dram.remote_fraction", "dram.remote_cache_hits", "dram.remote_cache_misses",
    "dram.wait_bank_ns", "dram.wait_chan_ns", "dram.wait_ctrl_ns",
    "dram.wait_link_ns", "sim.runtime_ns", "sim.divergence_ns", "sim.idle_ns",
)


def _load_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]


def _recorded(workload: str, seed: int, seed_free: bool) -> dict | None:
    if not DIGESTS.is_file():
        return None
    by_seed = json.loads(DIGESTS.read_text()).get(workload, {})
    return by_seed.get("any" if seed_free else str(seed))


def _record(workload: str, seed: int, seed_free: bool, digests: dict) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data.setdefault(workload, {})["any" if seed_free else str(seed)] = digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _timed_units(seconds: float, step) -> None:
    """Call ``step()`` (which returns its own duration) until the next
    call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    _load_program()
    import micro
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = workloads.WORKLOADS[args.workload]
    seed_free = args.workload in workloads.SEED_FREE
    if seed_free:
        print(f"note: {args.workload} draws no random numbers; "
              f"--seed {args.seed} does not change its inputs")
    gate = workloads.Gate(
        None if args.record else _recorded(args.workload, args.seed, seed_free)
    )
    print(f"output gate: {'recorded digests' if gate.recorded else 'self-consistency only'}"
          f" for seed {args.seed}")
    cal = micro.Calibration()
    samples = [cal.sample() for _ in range(3)]

    def calibrate() -> None:
        samples.extend(cal.sample() for _ in range(2))

    specs = workloads.setups(args.workload, args.seed)
    passes = []

    def setup() -> None:
        passes.append(workloads.setup_pass(specs))
        calibrate()

    if args.trace:
        setup()  # only to cross-check engine.accesses
        metrics = _traced(args, unit, gate, passes[0][1])
        calibrate()
        score = cal.score(samples)
        metrics["host.calibration_ops_per_s"] = score
        metrics.update(micro.run_micro())
        section = "per_layer"
    else:
        walls = []
        claims = []

        def step() -> float:
            # A set-up pass beside every unit, so both sample the same
            # stretch of host time.
            t0 = time.perf_counter()
            setup()
            t1 = time.perf_counter()
            outcome = unit(args.seed)
            walls.append(time.perf_counter() - t1)
            calibrate()
            gate.check(outcome)
            claims.append(outcome.claims_held)
            return time.perf_counter() - t0

        _timed_units(args.seconds, step)
        while len(passes) < SETUP_PASSES:
            setup()
        score = cal.score(samples)
        wall = statistics.median(walls)
        print(f"units: {len(walls)}, walls: {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"set-up passes: {', '.join(f'{s:.3f}' for s, _ in passes)} s")
        metrics = {
            "wall_s": wall,
            "sim_accesses_per_s": passes[0][1] / wall,
            "setup_s": statistics.median(s for s, _ in passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - gate.failed / gate.attempted,
            "claims_held": claims[0],
        }
        section = "end_to_end"
    print(f"host calibration score: {score:.6g} ops/s "
          f"(median of {len(samples)} samples between units)")
    if len({accesses for _, accesses in passes}) != 1:
        gate.problems.append("set-up passes built different programs")

    if args.record:
        _record(args.workload, args.seed, seed_free, gate.first)
        print(f"recorded digests in {DIGESTS}")
    for problem in gate.problems:
        print(f"GATE: {problem}")
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    print(f"failed_frac: {gate.failed}/{gate.attempted} runs")
    for name, unit_name in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit_name}")
    print(json.dumps({
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_name}
            for name, unit_name in units.items()
        },
    }))
    return 0


def _traced(args, unit, gate, setup_accesses: int) -> dict:
    """Alternate plain and traced units; per-layer metrics of the median
    traced unit (the EXACT ones must agree between all of them)."""
    import spans
    from repro.obs import Observer, export_run
    from repro.obs import metrics as obs_metrics

    plain_walls: list[float] = []
    per_unit: list[tuple[dict, dict]] = []
    obs = Observer()
    origin = time.perf_counter()

    def pair() -> float:
        t0 = time.perf_counter()
        gate.check(unit(args.seed))
        plain_walls.append(time.perf_counter() - t0)

        rec = spans.Recorder()
        registry = obs_metrics.MetricsRegistry()
        t1 = time.perf_counter()
        with obs_metrics.installed(registry), spans.instrument(rec):
            outcome = unit(args.seed, rec.span)
        wall = time.perf_counter() - t1
        gate.check(outcome)
        per_unit.append(spans.layer_metrics(rec, registry.snapshot(), wall))
        rec.to_observer(obs, origin, len(per_unit))
        return time.perf_counter() - t0

    _timed_units(args.seconds, pair)
    for name in EXACT:
        if len({m[name] for m, _ in per_unit}) != 1:
            gate.problems.append(f"{name} differs between traced units")
    if per_unit[0][0]["engine.accesses"] != setup_accesses:
        gate.problems.append("engine.accesses differs from the built programs")

    # Report one whole unit (the median by traced wall), so its self
    # times and unattributed_s add up to its traced_wall_s exactly.
    median_wall = statistics.median_low(m["traced_wall_s"] for m, _ in per_unit)
    metrics, by_policy = next(
        unit for unit in per_unit if unit[0]["traced_wall_s"] == median_wall
    )
    plain = statistics.median(plain_walls)
    metrics["trace_overhead_frac"] = (metrics["traced_wall_s"] - plain) / plain
    print(f"pairs: {len(per_unit)}, plain walls: "
          f"{', '.join(f'{w:.3f}' for w in plain_walls)} s")
    _print_accounting(metrics, by_policy)
    paths = export_run(obs, str(HERE / "out"), f"{args.workload}-seed{args.seed}")
    print(f"spans: {paths['perfetto']} ({len(obs.events)} spans)")
    return metrics


def _print_accounting(metrics: dict, by_policy: dict) -> None:
    """Self time per span name: the whole unit, then each policy's runs."""
    import spans

    wall = metrics["traced_wall_s"]
    print(f"traced wall {wall:.3f} s = self times + unattributed:")
    for name in spans.SPAN_NAMES:
        own = metrics[f"self.{name}_s"]
        print(f"  {name:26s} {own:9.3f} s {own / wall:7.1%}")
    print(f"  {'unattributed':26s} {metrics['unattributed_s']:9.3f} s")
    for key, own in by_policy.items():
        run_s = metrics[f"policy.{key}.run_s"]
        if run_s:
            split = ", ".join(
                f"{name} {s:.3f}" for name, s in own.items() if s >= 0.0005
            )
            print(f"  policy {key}: runs {run_s:.3f} s = {split} s; "
                  f"{metrics[f'policy.{key}.fault_us']:.0f} us/fault")


if __name__ == "__main__":
    sys.exit(main())
