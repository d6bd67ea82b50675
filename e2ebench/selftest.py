"""Self-test of the benchmark's gates.

Run from the repository root::

    python3 e2ebench/selftest.py

1. The output gate passes an unchanged ``fig10_synthetic`` unit against
   the digests recorded in ``digests.json``, and fails it when one run
   record is perturbed, when one run is missing (it raised), or when a
   second unit disagrees with the first.
2. A traced unit's self times plus ``unattributed_s`` add up to its
   wall, and the layer wrappers are removed when the unit ends.

Exits 0 when every check behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import run


def main() -> int:
    run._load_program()
    import spans
    import workloads
    from repro.alloc.policies import Policy
    from repro.kernel.kernel import Kernel
    from repro.obs import metrics as obs_metrics

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    recorded = run._recorded("fig10_synthetic", 0, seed_free=True)
    expect(recorded is not None, "digests recorded for fig10_synthetic")
    outcome = workloads.fig10_synthetic(0)

    gate = workloads.Gate(recorded)
    gate.check(outcome)
    expect(gate.failed == 0 and not gate.problems, "unchanged unit passes")

    key = next(iter(outcome.records))
    rec = outcome.records[key]
    perturbed = dataclasses.replace(
        outcome, records={**outcome.records, key: dataclasses.replace(
            rec, runtime=rec.runtime * (1 + 1e-12))},
    )
    gate = workloads.Gate(recorded)
    gate.check(perturbed)
    expect(gate.failed == 1 and bool(gate.problems),
           "perturbed record fails the recorded-digest gate")

    missing = dataclasses.replace(
        outcome, records={k: v for k, v in outcome.records.items() if k != key}
    )
    gate = workloads.Gate(recorded)
    gate.check(missing)
    expect(gate.failed == 1, "a run that raised counts as failed")

    gate = workloads.Gate(None)
    gate.check(outcome)
    gate.check(perturbed)
    expect(gate.attempted == 2 * len(outcome.expected) and gate.failed == 1,
           "a unit that disagrees with the first fails the repeat gate")

    original = Kernel._handle_fault
    rec = spans.Recorder()
    registry = obs_metrics.MetricsRegistry()
    t0 = time.perf_counter()
    with obs_metrics.installed(registry), spans.instrument(rec):
        with rec.span("experiments.run", policy=Policy.MEM_LLC.label):
            workloads.run_synthetic(Policy.MEM_LLC, workloads.HEADLINE,
                                    profile="mini")
    wall = time.perf_counter() - t0
    layers, by_policy = spans.layer_metrics(rec, registry.snapshot(), wall)
    own = sum(layers[f"self.{name}_s"] for name in spans.SPAN_NAMES)
    expect(abs(own + layers["unattributed_s"] - wall) < 1e-9,
           "self times + unattributed_s == traced wall")
    expect(abs(sum(by_policy["mem_llc"].values()) - layers["policy.mem_llc.run_s"]) < 1e-9,
           "a policy's self times == its runs' time")
    expect(layers["kernel.faults"] > 0 and layers["engine.accesses"] > 0,
           "traced unit recorded faults and engine accesses")
    expect(Kernel._handle_fault is original, "wrappers removed after the unit")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
