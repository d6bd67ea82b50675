"""The execution engine: merge-by-timestamp replay of a fork-join program.

Within a parallel section every thread holds a private clock; the engine
repeatedly advances the thread with the smallest clock by one memory
access.  Because latencies come from *shared* mutable state (LLC, bank row
buffers, controller/channel/link occupancies), threads perturb each other
exactly as co-running hardware threads do, while the smallest-clock rule
keeps the interleaving deterministic for a given program.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics

from repro.cache.batch import set_index_batch
from repro.cache.cache import _ABSENT
from repro.cache.hierarchy import CacheHierarchy, CacheTiming, MemoryLevel
from repro.core.session import ColoredTeam
from repro.dram.bank import RowKind
from repro.dram.system import DramSystem
from repro.dram.timing import DEFAULT_TIMING, DramTiming
from repro.machine.presets import MachineSpec
from repro.obs.observer import NULL_OBSERVER, BaseObserver
from repro.sim.barrier import Program, Section
from repro.sim.metrics import RunMetrics, SectionMetrics, ThreadMetrics


def page_route(links: tuple, node: int, channel: int, bank_color: int) -> tuple:
    """One page's DRAM route as seen from one core, packed for replay.

    ``links`` is the core's per-node (hops, propagation, link occupancy,
    link key) rows.  The batched loop unpacks the result once per LLC
    miss: (node, channel bus, bank color, hops, propagation, link
    occupancy, link key).  Every access to the page shares the tuple.
    """
    hops, prop, occupancy, keys = links
    return (node, channel, bank_color, hops[node], prop[node],
            occupancy[node], keys[node])


@dataclass
class MemorySystem:
    """Caches + DRAM bundled for one simulated machine."""

    dram: DramSystem
    hierarchy: CacheHierarchy

    @classmethod
    def for_machine(
        cls,
        machine: MachineSpec,
        dram_timing: DramTiming = DEFAULT_TIMING,
        cache_timing: CacheTiming = CacheTiming(),
        prefetch: bool = False,
        observer: BaseObserver = NULL_OBSERVER,
    ) -> "MemorySystem":
        """Build the cache hierarchy + DRAM system for *machine*."""
        dram = DramSystem(
            machine.mapping, machine.topology, dram_timing, observer=observer,
            remote=machine.remote,
        )
        hierarchy = CacheHierarchy(
            machine.topology, dram, cache_timing, prefetch=prefetch,
            observer=observer,
        )
        return cls(dram=dram, hierarchy=hierarchy)

    def reset(self) -> None:
        """Empty all caches and restore every bank/occupancy to idle."""
        self.dram.reset()
        self.hierarchy.reset()


class Engine:
    """Runs :class:`~repro.sim.barrier.Program` objects over a team.

    Args:
        team: pinned, colored thread team (allocation policy already set).
        memory: the machine's cache/DRAM state.
        observer: tracing sink; an enabled observer sends every section
            through :meth:`_run_section_reference` with its hooks on.
        fast_path: when True (default) and the observer is disabled,
            sections replay through :meth:`_run_section_fast` — the
            batched loop for every section that can be planned (all but
            prefetch ablation and a degenerate row layout), the
            reference loop for the rest.  Set False to force
            :meth:`_run_section_reference` for every section, the
            straightforward loop kept for equivalence testing and as the
            perf baseline (``benchmarks/perf_baseline.py``).  Both paths
            produce bit-identical :class:`~repro.sim.metrics.RunMetrics`.
    """

    def __init__(
        self,
        team: ColoredTeam,
        memory: MemorySystem,
        observer: BaseObserver = NULL_OBSERVER,
        fast_path: bool = True,
    ) -> None:
        self.team = team
        self.memory = memory
        self.kernel = team.tm.kernel
        self.space = team.tm.process.address_space
        self.observer = observer
        self.fast_path = fast_path

    # ------------------------------------------------------------------ run
    def run(self, program: Program) -> RunMetrics:
        """Execute the program; returns the paper's four metrics + counters."""
        if program.nthreads != self.team.nthreads:
            raise ValueError(
                f"program built for {program.nthreads} threads, team has "
                f"{self.team.nthreads}"
            )
        metrics = RunMetrics(
            name=program.name,
            policy=self.team.policy.label,
            nthreads=self.team.nthreads,
        )
        metrics.threads = [
            ThreadMetrics(thread=i, core=h.core)
            for i, h in enumerate(self.team.handles)
        ]
        obs = self.observer
        tracing = obs.enabled
        # Ambient labeled metrics (repro.obs.metrics): one check per run
        # and a few observations per *section* — never per access, so
        # the metrics-off path stays inside the ≤3% overhead budget
        # (benchmarks/test_obs_overhead.py) and the metrics-on path adds
        # only section-granularity work.
        mreg = obs_metrics.active()
        host_t0 = time.perf_counter() if mreg is not None else 0.0
        if tracing:
            obs.instant(
                "run.begin", 0.0, track="engine",
                args={"program": program.name, "policy": self.team.policy.label,
                      "nthreads": self.team.nthreads},
            )
        wall = 0.0
        for section in program.sections:
            label = section.label or section.kind
            if tracing:
                obs.span_begin(
                    label, wall, track="engine",
                    args={"kind": section.kind, "accesses": section.accesses},
                )
            faults_before = sum(t.faults for t in metrics.threads)
            fault_ns_before = sum(t.fault_ns for t in metrics.threads)
            ends = self._run_section(section, wall, metrics)
            section_end = max(ends.values())
            sm = SectionMetrics(
                label=section.label, kind=section.kind,
                start=wall, end=section_end,
                accesses=section.accesses,
                faults=sum(t.faults for t in metrics.threads) - faults_before,
                fault_ns=sum(t.fault_ns for t in metrics.threads)
                - fault_ns_before,
            )
            if section.kind == "parallel":
                metrics.barriers += 1
                metrics.parallel_runtime += section_end - wall
                for tidx in section.traces:
                    tm = metrics.threads[tidx]
                    tm.parallel_runtime += ends[tidx] - wall
                    idle = section_end - ends[tidx]
                    tm.idle_time += idle
                    sm.idle += idle
                    if tracing and idle > 0.0:
                        obs.span(
                            "barrier.wait", ends[tidx], section_end,
                            track="threads", tid=tidx,
                            args={"section": label,
                                  "core": metrics.threads[tidx].core},
                        )
            else:
                metrics.serial_runtime += section_end - wall
            if tracing:
                obs.span_end(section_end, track="engine",
                             args={"idle": sm.idle, "faults": sm.faults})
                obs.checkpoint(label, section_end)
            if mreg is not None:
                mreg.histogram(
                    "engine.section_ns", kind=section.kind
                ).observe(section_end - wall)
            metrics.sections.append(sm)
            wall = section_end
        metrics.runtime = wall
        metrics.dram = self.memory.dram.stats
        metrics.cache = self.memory.hierarchy.level_stats()
        obs.finish(wall)
        if mreg is not None:
            host_wall = time.perf_counter() - host_t0
            accesses = sum(t.accesses for t in metrics.threads)
            mreg.counter("engine.runs").inc()
            mreg.counter("engine.accesses").inc(accesses)
            mreg.histogram("engine.run_host_s").observe(host_wall)
            if host_wall > 0:
                mreg.histogram("engine.accesses_per_s").observe(
                    accesses / host_wall
                )
        return metrics

    # ------------------------------------------------------------------ section
    #: A thread keeps executing without re-entering the scheduler heap while
    #: its clock stays within this window of the next-soonest thread.  Small
    #: relative to DRAM latencies, so contention fidelity is preserved while
    #: heap traffic drops severalfold.
    BATCH_SLACK_NS = 60.0

    def _run_section(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """Run one section; returns per-thread end times (Algorithm 3's
        ``end[tid]``).

        Two loops, one dispatch: the batched fast path when
        ``fast_path`` is on and the observer is off, the reference loop
        otherwise.  The reference loop carries the observer hooks behind
        one per-section flag, so the disabled-observer path costs one
        branch per access (guarded by ``benchmarks/test_obs_overhead.py``);
        ``fast_path=False`` keeps the original engine available to the
        equivalence test and the perf baseline.
        """
        if self.fast_path and not self.observer.enabled:
            return self._run_section_fast(section, start, metrics)
        return self._run_section_reference(section, start, metrics)

    def _run_section_fast(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """The zero-observability fast path: batched replay when possible.

        Two-stage structure (see docs/PERFORMANCE.md for the model):

        1. :meth:`_batch_plan` vectorises all *stateless* per-access
           work for the whole section with numpy — address translation
           (unique-page gather), physical line construction, DRAM
           routes (:meth:`DramSystem.route_batch`, a gather from the
           mapping's shared frame-color table), row numbers, interconnect
           constants, and every cache set index
           (:func:`repro.cache.batch.set_index_batch`).  A trace that
           touches unmapped pages is planned up to its first fault
           stop; replay plans the rest one window at a time, after
           each fault.
        2. :meth:`_run_section_batched` replays the residual *stateful*
           work — LRU content, bank/queue occupancies, demand faults,
           the remote DRAM-cache tier, the merge order itself — through
           a lean scalar loop over the plan, bit-identical to the
           reference loop.

        When :meth:`_batch_plan` declines the section (prefetch
        ablation, a degenerate row layout), it runs through
        :meth:`_run_section_reference`.  Per-stage wall time is recorded
        in the ambient metrics registry (``engine.kernel_ns{kind=decode|
        replay|scalar_replay}``; ``scalar_replay`` times the reference
        loop on declined sections) so ``repro.obs top`` shows where
        replay time goes.
        """
        mreg = obs_metrics.active()
        if mreg is None:
            plan = self._batch_plan(section)
            if plan is not None:
                return self._run_section_batched(section, start, metrics, plan)
            return self._run_section_reference(section, start, metrics)
        t0 = time.perf_counter()
        plan = self._batch_plan(section)
        t1 = time.perf_counter()
        mreg.histogram("engine.kernel_ns", kind="decode").observe(
            (t1 - t0) * 1e9
        )
        if plan is not None:
            ends = self._run_section_batched(section, start, metrics, plan)
            kind = "replay"
        else:
            ends = self._run_section_reference(section, start, metrics)
            kind = "scalar_replay"
        mreg.histogram("engine.kernel_ns", kind=kind).observe(
            (time.perf_counter() - t1) * 1e9
        )
        return ends

    def _batch_plan(self, section: Section) -> dict[int, tuple] | None:
        """Vectorised per-access precompute for one section, or None.

        Returns one plan tuple per non-empty trace: plain Python lists
        (fast scalar indexing) of the line address, L1/L2/LLC set index,
        write flag, think time, DRAM route (a :func:`page_route` tuple
        shared by every access to the page) and row number of every
        access, plus the issuing core's cache bindings, the trace's
        *fault stops* and the core's interconnect rows.  All of it is
        stateless address math, so it can leave the replay loop;
        everything computed here is bit-identical to what the reference
        loop derives per access.  Pages on a node behind the remote
        DRAM-cache tier carry the hop sentinel ``-1``, which routes
        their accesses through the tier in the replay loop.

        A trace that touches pages unmapped now is planned only up to
        its first fault stop.  Its fault stops are the sorted first
        indices at which it touches each such page, followed by the
        trace length.  The rest of every address-derived list is a
        ``0`` placeholder that :meth:`_run_section_batched` fills one
        window ``[stop_k, stop_k+1)`` at a time, once replay reaches
        ``stop_k`` and the page is mapped.

        This is the one place that decides whether a section can be
        planned.  Returns None — caller falls back to
        :meth:`_run_section_reference` — only when prefetch ablation is
        on (prefetches mutate cache state per access) or the row layout
        puts row bits inside the line offset.
        """
        mapping = self.kernel.mapping
        page_bits = mapping.page_bits
        page_mask = (1 << page_bits) - 1
        hierarchy = self.memory.hierarchy
        dram = self.memory.dram
        if hierarchy.prefetchers is not None:
            return None
        line_bits = hierarchy._line_bits
        row_shift = dram._row_shift
        if row_shift < line_bits:
            return None
        page_line_shift = page_bits - line_bits
        row_line_shift = row_shift - line_bits
        topo = hierarchy.topology
        l1_geom, l2_geom = topo.l1, topo.l2
        l1_set_mask = l1_geom.num_sets - 1
        l2_set_mask = l2_geom.num_sets - 1
        llc_mask = hierarchy._llc_mask
        ic = dram.interconnect
        num_nodes = mapping.num_nodes
        remote_nodes = dram._remote_caches
        page_table_get = self.space.page_table.get
        handles = self.team.handles
        plans: dict[int, tuple] = {}
        for tidx, trace in section.traces.items():
            n = len(trace)
            if n == 0:
                continue
            va = trace.vaddrs
            vpns = va >> page_bits
            uvpn, inv = np.unique(vpns, return_inverse=True)
            upfns = [page_table_get(v) for v in uvpn.tolist()]
            stops = None
            planned = n
            if None in upfns:
                unmapped = np.array([p is None for p in upfns])
                first = np.unique(vpns, return_index=True)[1]
                stops = np.sort(first[unmapped]).tolist()
                stops.append(n)
                planned = stops[0]
                # Frame 0 stands in for the unmapped pages; no planned
                # access touches them.
                upfns = [0 if p is None else p for p in upfns]
                va = va[:planned]
                inv = inv[:planned]
            # Unplanned tail: shared 0 placeholders, filled at replay.
            tail = [0] * (n - planned)

            def listed(a: np.ndarray) -> list:
                return a.tolist() + tail if tail else a.tolist()

            pfns_u = np.asarray(upfns, dtype=np.int64)
            lines = (pfns_u[inv] << page_line_shift) | (
                (va & page_mask) >> line_bits
            )
            bc_u, node_u, chan_u = dram.route_batch(pfns_u)
            core = handles[tidx].core
            hop_row = ic._hops[core]
            if remote_nodes:
                hop_row = [
                    -1 if nd in remote_nodes else h
                    for nd, h in enumerate(hop_row)
                ]
            src = ic._src_node[core]
            links = (
                hop_row, ic._prop[core], ic._occupancy[core],
                [(src, nd) for nd in range(num_nodes)],
            )
            route_u = [
                page_route(links, nd, ch, bc)
                for nd, ch, bc in zip(
                    node_u.tolist(), chan_u.tolist(), bc_u.tolist()
                )
            ]
            routes = [route_u[u] for u in inv.tolist()]
            if tail:
                routes += tail
            tn = trace.think_ns
            thinks = (
                tn.astype(float).tolist()
                if isinstance(tn, np.ndarray)
                else [float(tn)] * n
            )
            plans[tidx] = (
                listed(lines),
                listed(set_index_batch(
                    lines, l1_geom.index_bits, l1_set_mask, True
                )),
                listed(set_index_batch(
                    lines, l2_geom.index_bits, l2_set_mask, True
                )),
                listed(lines & llc_mask),
                trace.writes.tolist(), thinks, routes,
                listed(lines >> row_line_shift),
                hierarchy.l1[core], hierarchy._l1_sets[core],
                hierarchy.l2[core], hierarchy._l2_sets[core],
                stops, links,
            )
        return plans

    def _run_section_batched(
        self,
        section: Section,
        start: float,
        metrics: RunMetrics,
        plans: dict[int, tuple],
    ) -> dict[int, float]:
        """Replay a section over a :meth:`_batch_plan` — the hot loop.

        The merge-by-timestamp schedule (heap + batching window) is
        replicated exactly from :meth:`_run_section_reference`; what
        changed is the per-access body: every address-derived value
        comes from the plan's lists, the whole hierarchy/DRAM call chain
        is inlined (no :class:`HierarchyResult`/``AccessResult``
        allocation), and shared accumulators — DRAM statistics, bank
        row-buffer state, LLC counters, dirty-eviction and
        remote-transfer counts, the remote tier's network links and
        DRAM-cache counters — live in section-local mirrors that are
        loaded once, mutated in execution order (so every float
        accumulation chain is unchanged), and stored back once.  Keep
        the replay semantics in lockstep with the reference loop.

        Demand faults are taken in merge order.  A thread's loop limit
        is its next fault stop (see :meth:`_batch_plan`).  At a stop the
        horizon check comes first, as in the reference loop; then the
        page is faulted in unless another thread mapped it meanwhile,
        and the window up to the next stop is planned with scalar
        math.  A fault touches only allocator and page-table state, so
        the mirrors stay valid across it.  The faulting access ends at
        ``clock + ((think + lat) + fault_ns)``: the charge is applied
        from the pre-access clock once the loop reaches ``stop + 1``.
        """
        hierarchy = self.memory.hierarchy
        dram = self.memory.dram
        ic = dram.interconnect
        stats = dram.stats
        timing = hierarchy.timing
        l1_hit_t = timing.l1_hit
        l2_hit_t = timing.l2_hit
        llc_hit_t = timing.llc_hit
        l1_ways = hierarchy._l1_ways
        l2_ways = hierarchy._l2_ways
        llc_ways = hierarchy._llc_ways
        l1_ib = hierarchy._l1_ib
        l1_ib2 = l1_ib + l1_ib
        l1_mask = hierarchy._l1_mask
        l2_ib = hierarchy._l2_ib
        l2_ib2 = l2_ib + l2_ib
        l2_mask = hierarchy._l2_mask
        llc_sets = hierarchy._llc_sets
        llc_mask = hierarchy._llc_mask
        llc = hierarchy.llc
        banks = dram.banks
        ctrl_busy = dram._ctrl_busy
        chan_busy = dram._chan_busy
        link_busy = ic._link_busy
        link_busy_get = link_busy.get
        frame_route_get = dram._frame_route.get
        dram_route = dram._route
        ctrl_service = dram._ctrl_service
        ctrl_overhead = dram._ctrl_overhead
        channel_service = dram._channel_service
        refresh_interval = dram._refresh_interval
        row_hit_ns = dram._row_hit_ns
        row_miss_ns = dram._row_miss_ns
        row_conflict_ns = dram._row_conflict_ns
        write_recovery = dram._write_recovery
        wb_scale = dram._wb_scale
        line_bits = hierarchy._line_bits
        page_bits = self.kernel.mapping.page_bits
        page_mask = (1 << page_bits) - 1
        page_line_shift = page_bits - line_bits
        row_line_shift = dram._row_shift - line_bits
        page_table = self.space.page_table
        page_table_get = page_table.get
        translate = self.space.translate
        kernel = self.kernel
        ABSENT = _ABSENT
        pop = heapq.heappop
        replace = heapq.heapreplace
        slack = self.BATCH_SLACK_NS
        inf = float("inf")
        threads = metrics.threads
        handles = self.team.handles

        # The remote DRAM-cache tier (DramSystem._remote_access): per
        # node, the cache's set list (None for ordinary nodes) and
        # mirrors of its network link and probe counters.
        num_nodes = len(ctrl_busy)
        remote_caches = dram._remote_caches
        tier = dram.remote
        rc_sets: list = [None] * num_nodes
        rc_hit_n = [0] * num_nodes
        rc_miss_n = [0] * num_nodes
        net_busy = [0.0] * num_nodes
        for nd, cache in remote_caches.items():
            rc_sets[nd] = cache._sets
            rc_hit_n[nd] = cache.hits
            rc_miss_n[nd] = cache.misses
            net_busy[nd] = dram._net_busy[nd]
        if tier is not None:
            rc_mask = tier.num_sets - 1
            rc_ways = tier.cache_ways
            net_ns = tier.network_ns
            net_service = tier.network_service_ns
            cache_hit_ns = tier.cache_hit_ns

        # Section-local mirrors of every shared accumulator the loop
        # touches.  Loaded once, updated in exactly the order the
        # reference loop would update the originals (same int sums, same
        # float accumulation chains), stored back before returning.
        bank_busy = [b.busy_until for b in banks]
        bank_row: list[int | None] = [b.open_row for b in banks]
        bank_epoch = [b.refresh_epoch for b in banks]
        bank_hit_n = [b.hits for b in banks]
        bank_miss_n = [b.misses for b in banks]
        bank_conf_n = [b.conflicts for b in banks]
        s_llc_hits = llc.hits
        s_llc_misses = llc.misses
        s_wait_link = stats.wait_link
        s_wait_ctrl = stats.wait_ctrl
        s_wait_chan = stats.wait_chan
        s_wait_bank = stats.wait_bank
        s_accesses = stats.accesses
        s_total_latency = stats.total_latency
        s_total_queue_wait = stats.total_queue_wait
        s_row_hits = stats.row_hits
        s_row_misses = stats.row_misses
        s_row_conflicts = stats.row_conflicts
        s_remote = stats.remote_accesses
        s_local = stats.local_accesses
        s_writebacks = stats.writebacks
        s_rc_hits = stats.remote_cache_hits
        s_rc_misses = stats.remote_cache_misses
        per_node = stats.per_node_accesses
        pn_n = [0] * num_nodes
        de_n = hierarchy.dirty_evictions
        remote_tr_n = ic.remote_transfers

        def wb(old: int, now: float) -> None:
            # DramSystem.writeback(old << line_bits, now), inlined over
            # the section-local bank/channel/network tables.
            nonlocal s_writebacks
            wpfn = old >> page_line_shift
            route = frame_route_get(wpfn)
            if route is None:
                route = dram_route(wpfn)
            wbc, wnd, wch, _ = route
            rsets = rc_sets[wnd]
            if rsets is not None:
                rset = rsets[old & rc_mask]
                if old in rset:
                    # Absorbed by the DRAM cache (RemoteCache.touch).
                    del rset[old]
                    rset[old] = None
                    s_writebacks += 1
                    return
                busy = net_busy[wnd]
                wstart = now if now > busy else busy
                net_busy[wnd] = wstart + net_service
                now = wstart + net_ns
            busy = chan_busy[wch]
            chan_busy[wch] = (now if now > busy else busy) + channel_service
            busy = bank_busy[wbc]
            wstart = now if now > busy else busy
            epoch = int(wstart // refresh_interval)
            if epoch != bank_epoch[wbc]:
                bank_epoch[wbc] = epoch
                bank_row[wbc] = None
                base = row_miss_ns
            else:
                orow = bank_row[wbc]
                if orow is None:
                    base = row_miss_ns
                elif orow == old >> row_line_shift:
                    base = row_hit_ns
                else:
                    base = row_conflict_ns
            bank_busy[wbc] = wstart + ((base + write_recovery) * wb_scale)
            s_writebacks += 1

        def spill_insert(llc_set: dict, line: int, now: float) -> None:
            # Absent-line half of CacheHierarchy._spill_to_llc (callers
            # handle the already-present fast path inline): evict the
            # set's LRU line, write a dirty victim back, insert dirty.
            nonlocal de_n
            if len(llc_set) >= llc_ways:
                old = next(iter(llc_set))
                if llc_set.pop(old):
                    de_n += 1
                    wb(old, now)
            llc_set[line] = True

        def resolve(fault: list, i: int) -> tuple[float, int]:
            # Fault stop ``i``: demand-fault its page under the thread's
            # policy unless another thread mapped it first, then plan
            # the window up to the next stop with scalar math (the same
            # route, XOR-fold and shift arithmetic as _batch_plan).
            # Returns (fault charge, next stop).
            (k, stops, vaddrs, tm, task, links,
             lines, l1i, l2i, lci, routes, rows) = fault
            k += 1
            fault[0] = k
            end = stops[k]
            window = vaddrs[i:end].tolist()
            vaddr = window[0]
            fault_ns = 0.0
            if page_table_get(vaddr >> page_bits) is None:
                translate(vaddr, task)
                fault_ns = kernel.last_fault_charge.total_ns
                tm.faults += 1
                tm.fault_ns += fault_ns
            vpns = [va >> page_bits for va in window]
            bases = {}
            page_routes = {}
            for vpn in set(vpns):
                pfn = page_table[vpn]
                route = frame_route_get(pfn)
                if route is None:
                    route = dram_route(pfn)
                bases[vpn] = pfn << page_line_shift
                page_routes[vpn] = page_route(
                    links, route[1], route[2], route[0]
                )
            seg = [
                bases[vpn] | ((va & page_mask) >> line_bits)
                for vpn, va in zip(vpns, window)
            ]
            lines[i:end] = seg
            l1i[i:end] = [
                (x ^ (x >> l1_ib) ^ (x >> l1_ib2)) & l1_mask for x in seg
            ]
            l2i[i:end] = [
                (x ^ (x >> l2_ib) ^ (x >> l2_ib2)) & l2_mask for x in seg
            ]
            lci[i:end] = [x & llc_mask for x in seg]
            routes[i:end] = [page_routes[vpn] for vpn in vpns]
            rows[i:end] = [x >> row_line_shift for x in seg]
            return fault_ns, end

        states: dict[int, list] = {}
        heap: list[tuple[float, int]] = []
        for tidx in section.traces:
            plan = plans.get(tidx)
            if plan is None:
                continue
            n = len(plan[0])
            stops = plan[12]
            fault = None
            if stops is not None:
                fault = [
                    0, stops, section.traces[tidx].vaddrs,
                    threads[tidx], handles[tidx].task, plan[13],
                    plan[0], plan[1], plan[2], plan[3], plan[6], plan[7],
                ]
            # Mutable per-thread state: cursor, trace length, the plan's
            # record lists, the core's set tables, six event counters
            # flushed into the shared metrics once per section, the loop
            # limit (next fault stop, else the trace length) and the
            # fault-stop record (None for a fully planned trace).
            states[tidx] = [
                0, n, plan[0], plan[1], plan[2], plan[3], plan[4],
                plan[5], plan[6], plan[7], plan[9], plan[11],
                0, 0, 0, 0, 0, 0,
                n if stops is None else stops[0], fault,
            ]
            heapq.heappush(heap, (start, tidx))
        ends: dict[int, float] = {tidx: start for tidx in section.traces}
        if not heap:
            return ends

        while heap:
            clock, tidx = heap[0]
            state = states[tidx]
            (i, n, lines, l1i, l2i, lci, writes, thinks, routes, rows,
             l1_sets_c, l2_sets_c, dram_n, remote_n, conflict_n,
             l1_miss_n, l2_hit_n, l2_miss_n, lim, fault) = state
            # Burst window.  The root is peeked, not popped; the heap
            # minimum *after* removing the root is the smaller of the
            # root's two children, so the horizon matches the reference
            # loop's pop-then-peek exactly while letting the burst end
            # with a single heapreplace instead of a pop + push.
            m = len(heap)
            if m > 2:
                a = heap[1][0]
                b = heap[2][0]
                horizon = (a if a < b else b) + slack
            elif m == 2:
                horizon = heap[1][0] + slack
            else:
                horizon = inf
            fault_ns = 0.0
            if i == lim:
                # Resumed at a fault stop it yielded on.
                fault_ns, nxt = resolve(fault, i)
                fault_clock = clock
                lim = state[18] = i + 1 if fault_ns else nxt

            while True:
                line = lines[i]
                entries = l1_sets_c[l1i[i]]
                d = entries.pop(line, ABSENT)
                if d is not ABSENT:
                    entries[line] = d or writes[i]
                    lat = l1_hit_t
                else:
                    l1_miss_n += 1
                    is_w = writes[i]
                    l2_set = l2_sets_c[l2i[i]]
                    d = l2_set.pop(line, ABSENT)
                    if d is not ABSENT:
                        # L2 hit: refresh LRU, fill the L1 (the probe
                        # above already proved the line absent there).
                        l2_hit_n += 1
                        l2_set[line] = d or is_w
                        if len(entries) >= l1_ways:
                            old = next(iter(entries))
                            old_dirty = entries.pop(old)
                            entries[line] = is_w
                            if old_dirty:
                                down = l2_sets_c[
                                    (old ^ (old >> l2_ib) ^ (old >> l2_ib2))
                                    & l2_mask
                                ]
                                if old in down:
                                    down[old] = True
                                else:
                                    sset = llc_sets[old & llc_mask]
                                    if old in sset:
                                        sset[old] = True
                                    else:
                                        spill_insert(sset, old, clock)
                        else:
                            entries[line] = is_w
                        lat = l2_hit_t
                    else:
                        l2_miss_n += 1
                        llc_set = llc_sets[lci[i]]
                        d = llc_set.pop(line, ABSENT)
                        if d is not ABSENT:
                            s_llc_hits += 1
                            llc_set[line] = d or is_w
                            lat = llc_hit_t
                        else:
                            # LLC miss -> DRAM (DramSystem.access inlined
                            # over the plan's precomputed route).
                            s_llc_misses += 1
                            nd, ch, bc, hp, pr, occ, key = routes[i]
                            if hp < 0 and line in (
                                rset := rc_sets[nd][line & rc_mask]
                            ):
                                # DRAM-cache hit: a flat latency that is
                                # a local row hit in the stats.
                                del rset[line]
                                rset[line] = None
                                rc_hit_n[nd] += 1
                                s_rc_hits += 1
                                dram_lat = cache_hit_ns
                                s_accesses += 1
                                s_total_latency += dram_lat
                                s_row_hits += 1
                                s_local += 1
                            else:
                                if hp:
                                    if hp > 0:
                                        busy = link_busy_get(key, 0.0)
                                        lstart = (
                                            busy if busy > clock else clock
                                        )
                                        link_busy[key] = lstart + occ
                                        remote_tr_n += 1
                                        arrival = lstart + pr
                                    else:
                                        # DRAM-cache miss: queue on the
                                        # node's network link.
                                        rc_miss_n[nd] += 1
                                        busy = net_busy[nd]
                                        lstart = (
                                            clock if clock > busy else busy
                                        )
                                        net_busy[nd] = lstart + net_service
                                        arrival = lstart + net_ns
                                else:
                                    arrival = clock
                                busy = ctrl_busy[nd]
                                ctrl_start = (
                                    arrival if arrival > busy else busy
                                )
                                ctrl_busy[nd] = ctrl_start + ctrl_service
                                after_ctrl = ctrl_start + ctrl_overhead
                                busy = chan_busy[ch]
                                chan_start = (
                                    after_ctrl if after_ctrl > busy else busy
                                )
                                chan_busy[ch] = chan_start + channel_service
                                busy = bank_busy[bc]
                                bank_start = (
                                    chan_start if chan_start > busy else busy
                                )
                                epoch = int(bank_start // refresh_interval)
                                row = rows[i]
                                if epoch != bank_epoch[bc]:
                                    bank_epoch[bc] = epoch
                                    service = row_miss_ns
                                    bank_miss_n[bc] += 1
                                    s_row_misses += 1
                                else:
                                    orow = bank_row[bc]
                                    if orow is None:
                                        service = row_miss_ns
                                        bank_miss_n[bc] += 1
                                        s_row_misses += 1
                                    elif orow == row:
                                        service = row_hit_ns
                                        bank_hit_n[bc] += 1
                                        s_row_hits += 1
                                    else:
                                        service = row_conflict_ns
                                        bank_conf_n[bc] += 1
                                        s_row_conflicts += 1
                                        conflict_n += 1
                                bank_row[bc] = row
                                bank_busy[bc] = bank_start + (
                                    service
                                    + (write_recovery if is_w else 0.0)
                                )
                                if hp:
                                    if hp > 0:
                                        done = bank_start + service + pr
                                        w_link = arrival - clock - pr
                                        if w_link < 0.0:
                                            w_link = 0.0
                                    else:
                                        # Install the fetched line in the
                                        # DRAM cache (clean LRU eviction).
                                        if len(rset) >= rc_ways:
                                            del rset[next(iter(rset))]
                                        rset[line] = None
                                        done = bank_start + service + net_ns
                                        w_link = lstart - clock
                                        s_rc_misses += 1
                                    remote_n += 1
                                    s_remote += 1
                                else:
                                    done = bank_start + service + 0.0
                                    w_link = 0.0
                                    s_local += 1
                                dram_lat = done - clock
                                w_ctrl = ctrl_start - arrival
                                w_chan = chan_start - after_ctrl
                                w_bank = bank_start - chan_start
                                s_wait_link += w_link
                                s_wait_ctrl += w_ctrl
                                s_wait_chan += w_chan
                                s_wait_bank += w_bank
                                s_accesses += 1
                                s_total_latency += dram_lat
                                s_total_queue_wait += (
                                    w_link + w_ctrl + w_chan + w_bank
                                )
                            pn_n[nd] += 1
                            dram_n += 1
                            # LLC fill: evict the set's LRU line (dirty
                            # victims post write-backs), install the line.
                            if len(llc_set) >= llc_ways:
                                old = next(iter(llc_set))
                                if llc_set.pop(old):
                                    de_n += 1
                                    wb(old, clock)
                            llc_set[line] = is_w
                            lat = llc_hit_t + dram_lat
                        # _fill_private, inlined: L2 insert then L1
                        # insert (both probes above proved absence).
                        if len(l2_set) >= l2_ways:
                            old = next(iter(l2_set))
                            old_dirty = l2_set.pop(old)
                            l2_set[line] = False
                            if old_dirty:
                                sset = llc_sets[old & llc_mask]
                                if old in sset:
                                    sset[old] = True
                                else:
                                    spill_insert(sset, old, clock)
                        else:
                            l2_set[line] = False
                        if len(entries) >= l1_ways:
                            old = next(iter(entries))
                            old_dirty = entries.pop(old)
                            entries[line] = is_w
                            if old_dirty:
                                down = l2_sets_c[
                                    (old ^ (old >> l2_ib) ^ (old >> l2_ib2))
                                    & l2_mask
                                ]
                                if old in down:
                                    down[old] = True
                                else:
                                    sset = llc_sets[old & llc_mask]
                                    if old in sset:
                                        sset[old] = True
                                    else:
                                        spill_insert(sset, old, clock)
                        else:
                            entries[line] = is_w
                clock += thinks[i] + lat

                i += 1
                if i >= lim:
                    if fault_ns:
                        # The faulting access (i - 1) ends at
                        # clock + ((think + lat) + fault_ns), exactly as
                        # in the reference loop.
                        clock = fault_clock + ((thinks[i - 1] + lat) + fault_ns)
                        fault_ns = 0.0
                        lim = state[18] = nxt
                    if i >= n:
                        ends[tidx] = clock
                        pop(heap)
                        break
                    if i == lim:
                        # Fault stop: the horizon check comes first, so
                        # the fault happens in merge order.
                        if clock > horizon:
                            state[0] = i
                            replace(heap, (clock, tidx))
                            break
                        fault_ns, nxt = resolve(fault, i)
                        fault_clock = clock
                        lim = state[18] = i + 1 if fault_ns else nxt
                        continue
                if clock > horizon:
                    state[0] = i
                    replace(heap, (clock, tidx))
                    break
            state[12] = dram_n
            state[13] = remote_n
            state[14] = conflict_n
            state[15] = l1_miss_n
            state[16] = l2_hit_n
            state[17] = l2_miss_n

        # Flush per-thread event counters into the shared metrics
        # objects (pure integer sums, so a single end-of-section flush
        # is exact).  Every access of every planned trace completes
        # within the section, so the access count is the trace length.
        for tidx, state in states.items():
            plan = plans[tidx]
            tm = threads[tidx]
            n = state[1]
            l1_miss_n = state[15]
            tm.accesses += n
            tm.dram_accesses += state[12]
            tm.remote_accesses += state[13]
            tm.row_conflicts += state[14]
            l1_cache = plan[8]
            l1_cache.hits += n - l1_miss_n
            l1_cache.misses += l1_miss_n
            l2_cache = plan[10]
            l2_cache.hits += state[16]
            l2_cache.misses += state[17]

        # Store the section-local mirrors back into the shared objects.
        llc.hits = s_llc_hits
        llc.misses = s_llc_misses
        stats.wait_link = s_wait_link
        stats.wait_ctrl = s_wait_ctrl
        stats.wait_chan = s_wait_chan
        stats.wait_bank = s_wait_bank
        stats.accesses = s_accesses
        stats.total_latency = s_total_latency
        stats.total_queue_wait = s_total_queue_wait
        stats.row_hits = s_row_hits
        stats.row_misses = s_row_misses
        stats.row_conflicts = s_row_conflicts
        stats.remote_accesses = s_remote
        stats.local_accesses = s_local
        stats.writebacks = s_writebacks
        stats.remote_cache_hits = s_rc_hits
        stats.remote_cache_misses = s_rc_misses
        hierarchy.dirty_evictions = de_n
        ic.remote_transfers = remote_tr_n
        for nd, cache in remote_caches.items():
            cache.hits = rc_hit_n[nd]
            cache.misses = rc_miss_n[nd]
            dram._net_busy[nd] = net_busy[nd]
        per_node_get = per_node.get
        for ndx, cnt in enumerate(pn_n):
            if cnt:
                per_node[ndx] = per_node_get(ndx, 0) + cnt
        for b, busy, row, ep, hit, miss, conf in zip(
            banks, bank_busy, bank_row, bank_epoch,
            bank_hit_n, bank_miss_n, bank_conf_n,
        ):
            b.busy_until = busy
            b.open_row = row
            b.refresh_epoch = ep
            b.hits = hit
            b.misses = miss
            b.conflicts = conf
        return ends

    def _run_section_reference(
        self, section: Section, start: float, metrics: RunMetrics
    ) -> dict[int, float]:
        """The straightforward replay loop (the *slow path*).

        This is the engine as it existed before the fast path: every
        access enters :meth:`CacheHierarchy.access`, and per-thread
        counters update one access at a time.  It is the behavioural
        reference — ``tests/test_sim_engine_equivalence.py`` asserts the
        batched loop reproduces its :class:`RunMetrics` bit-for-bit, and
        ``benchmarks/perf_baseline.py`` measures the fast path's speedup
        against it — and it runs every section the batched loop cannot
        plan: prefetch ablation and a degenerate row layout.

        With an enabled observer it also carries the tracing hooks: the
        observer's sim-time cursor before a fault (so kernel events carry
        timestamps), a span per page-fault service, and the
        counter-sampling cadence check per access.  DRAM transaction
        spans are emitted by :class:`~repro.dram.system.DramSystem`
        itself.  The hooks only observe; they never change the replay.
        """
        # Per-thread replay state.
        states: dict[int, list] = {}
        heap: list[tuple[float, int]] = []
        for tidx, trace in section.traces.items():
            if len(trace) == 0:
                continue
            vaddrs, writes, thinks = trace.as_lists()
            handle = self.team.handles[tidx]
            states[tidx] = [0, vaddrs, writes, thinks, handle.task, handle.core]
            heapq.heappush(heap, (start, tidx))
        ends: dict[int, float] = {tidx: start for tidx in section.traces}
        if not heap:
            return ends

        # Local bindings for the hot loop.
        page_bits = self.kernel.mapping.page_bits
        page_mask = (1 << page_bits) - 1
        page_table = self.space.page_table
        translate = self.space.translate
        access = self.memory.hierarchy.access
        kernel = self.kernel
        threads = metrics.threads
        DRAM = MemoryLevel.DRAM
        CONFLICT = RowKind.CONFLICT
        push, pop = heapq.heappush, heapq.heappop
        slack = self.BATCH_SLACK_NS
        inf = float("inf")
        obs = self.observer
        tracing = obs.enabled
        obs_sample = obs.maybe_sample

        while heap:
            clock, tidx = pop(heap)
            state = states[tidx]
            i, vaddrs, writes, thinks, task, core = state
            tm = threads[tidx]
            n = len(vaddrs)
            # Run this thread until it overtakes the next-soonest thread
            # (plus slack) or finishes its trace.
            horizon = (heap[0][0] + slack) if heap else inf

            while True:
                vaddr = vaddrs[i]
                vpn = vaddr >> page_bits
                pfn = page_table.get(vpn)
                fault_ns = 0.0
                if pfn is None:
                    # Demand fault under the faulting task's policy.
                    if tracing:
                        obs.now = clock
                    paddr, _ = translate(vaddr, task)
                    fault_ns = kernel.last_fault_charge.total_ns
                    tm.faults += 1
                    tm.fault_ns += fault_ns
                    if tracing:
                        obs.span(
                            "fault", clock, clock + fault_ns,
                            track="threads", tid=tidx,
                            args={"vpn": vpn, "core": core},
                        )
                else:
                    paddr = (pfn << page_bits) | (vaddr & page_mask)

                result = access(paddr, core, clock, writes[i])
                tm.accesses += 1
                if result.level is DRAM:
                    dram = result.dram
                    tm.dram_accesses += 1
                    if dram.hops:
                        tm.remote_accesses += 1
                    if dram.row_kind is CONFLICT:
                        tm.row_conflicts += 1

                clock += thinks[i] + result.latency + fault_ns
                if tracing:
                    obs_sample(clock)
                i += 1
                if i >= n:
                    ends[tidx] = clock
                    break
                if clock > horizon:
                    state[0] = i
                    push(heap, (clock, tidx))
                    break
        return ends
