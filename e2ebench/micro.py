"""Per-layer microbenchmarks and the host calibration score.

Each microbenchmark drives one layer's public function on fixed inputs
drawn from :data:`MICRO_SEED` (never from the workload seed, so the
numbers are comparable across runs) and reports operations per host
second, the median of :data:`REPS` timed repetitions.  Which workload
and end-to-end metric each one feeds is listed in ``README.md``.

The calibration score is a fixed pure-Python loop of the kind the replay
loops run, sampled between the units of every run.  It is reported
beside every run's numbers so entries recorded on different hosts can
be read side by side; nothing is gated on it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.cache.batch import set_index_batch
from repro.cache.cache import Cache
from repro.dram.system import DramSystem
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool
from repro.machine.presets import disagg_2n, opteron_6128_scaled
from repro.util.units import GIB, MIB

MICRO_SEED = 12345
REPS = 5


def _ops_per_s(ops: int, run, prepare=None) -> float:
    rates = []
    for _ in range(REPS):
        state = prepare() if prepare is not None else None
        t0 = time.perf_counter()
        run(state)
        rates.append(ops / (time.perf_counter() - t0))
    return statistics.median(rates)


class Calibration:
    """A fixed pure-Python loop (integer arithmetic and small-dict
    updates, like the replay loops) timed beside the workload."""

    OPS = 100_000

    def sample(self) -> float:
        """Host seconds for one pass of the loop (:attr:`OPS` operations)."""
        counts: dict[int, int] = {}
        x = 1
        t0 = time.perf_counter()
        for _ in range(self.OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x & 4095
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0

    def score(self, samples: list[float]) -> float:
        """Operations per second over the median of ``samples``."""
        return self.OPS / statistics.median(samples)


def run_micro() -> dict[str, float]:
    """Every microbenchmark, keyed by its per-layer metric name."""
    rng = np.random.default_rng(MICRO_SEED)
    machine = opteron_6128_scaled(1 * GIB)
    mapping = machine.mapping
    out = {}

    pfns = rng.integers(0, mapping.num_frames, 1 << 16)
    out["micro.decode_batch_ops_per_s"] = _ops_per_s(
        pfns.size * 10, lambda _: [mapping.decode_batch(pfns) for _ in range(10)]
    )

    lines = rng.integers(0, 1 << 40, 1 << 18)
    l1 = machine.topology.l1
    sets = l1.size_bytes // (l1.line_bytes * l1.ways)
    index_bits = sets.bit_length() - 1
    out["micro.set_index_batch_ops_per_s"] = _ops_per_s(
        lines.size * 10,
        lambda _: [set_index_batch(lines, index_bits, sets - 1, True)
                   for _ in range(10)],
    )

    # Algorithm 2 over 16 order-9 blocks (8192 frames) of a fresh pool.
    small = opteron_6128_scaled(256 * MIB).mapping
    blocks = [int(b) << 9 for b in rng.choice(small.num_frames >> 9, 16, replace=False)]

    def push_blocks(matrix):
        for start in blocks:
            matrix.push_block(start, 9)

    out["micro.push_block_frames_per_s"] = _ops_per_s(
        len(blocks) << 9, push_blocks, lambda: ColorMatrix(FramePool(small))
    )

    orders = rng.integers(0, 4, 4096).tolist()
    free_order = rng.permutation(len(orders)).tolist()

    def buddy_churn(buddy):
        starts = [buddy.alloc(order) for order in orders]
        for i in free_order:
            buddy.free(starts[i], orders[i])

    out["micro.buddy_ops_per_s"] = _ops_per_s(
        2 * len(orders), buddy_churn, lambda: BuddyAllocator(0, 1 << 16)
    )

    # Scalar DRAM path on the disaggregated preset: half the frames sit
    # behind the remote tier with its link queue and DRAM cache.
    remote = disagg_2n(256 * MIB)
    paddrs = (
        (rng.integers(0, remote.mapping.num_frames, 1 << 14) << remote.mapping.page_bits)
        + rng.integers(0, 32, 1 << 14) * remote.mapping.line_bytes
    ).tolist()
    cores = rng.integers(0, remote.topology.num_cores, len(paddrs)).tolist()
    writes = (rng.random(len(paddrs)) < 0.3).tolist()

    def dram_stream(dram):
        now = 0.0
        for paddr, core, write in zip(paddrs, cores, writes):
            now += 20.0
            dram.access(paddr, core, now, write)

    out["micro.dram_access_ops_per_s"] = _ops_per_s(
        len(paddrs), dram_stream,
        lambda: DramSystem(remote.mapping, remote.topology, remote=remote.remote),
    )

    # LRU probe + fill on the LLC geometry over a working set twice its size.
    llc = machine.topology.llc
    llc_lines = llc.size_bytes // llc.line_bytes
    probe = rng.integers(0, 2 * llc_lines, 1 << 16).tolist()

    def lru(cache):
        for line in probe:
            if not cache.lookup(line, False):
                cache.insert(line, False)

    out["micro.cache_ops_per_s"] = _ops_per_s(
        len(probe), lru, lambda: Cache(llc, name="llc")
    )
    return out
