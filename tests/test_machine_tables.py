"""The per-mapping table store: one read-only color table per mapping value.

:meth:`AddressMapping.frame_colors` derives every frame's bank and LLC
color once per mapping *value* and shares the two read-only arrays with
every equal mapping.  The kernel's frame pool and the DRAM model's
routing both read them, so these tests pin, on every platform preset and
on the ``mini``/``scaled`` run profiles:

* ``DramSystem.route_batch`` and ``DramSystem._route`` equal what the
  bit-gathering decode (``decode_batch`` / ``frame_decode``) derives,
  and frames outside memory still raise ``ValueError``;
* a kernel booted from one ``platform()`` call and a DRAM system built
  from a second call read the same table objects;
* the shared arrays reject writes, and ``frame_color_table()`` still
  hands out private int64 copies;
* the counts cached on each mapping instance equal their formulas and
  survive a pickle round-trip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.system import DramSystem
from repro.experiments.runner import profile_machine
from repro.kernel.kernel import Kernel
from repro.machine import address
from repro.machine.address import AddressMapping, contiguous
from repro.machine.presets import PLATFORMS, platform
from repro.util.units import MIB

#: Machines under test: every preset at its default memory size, plus
#: the run profiles the experiments use.
MACHINE_IDS = sorted(PLATFORMS) + ["profile:mini", "profile:scaled"]


def _machine(name: str):
    if name.startswith("profile:"):
        return profile_machine(name.split(":", 1)[1])
    return platform(name)


_DRAMS: dict[str, DramSystem] = {}


def _dram(name: str) -> DramSystem:
    """One DRAM system per machine for the whole module."""
    if name not in _DRAMS:
        spec = _machine(name)
        _DRAMS[name] = DramSystem(spec.mapping, spec.topology, remote=spec.remote)
    return _DRAMS[name]


@st.composite
def frame_arrays(draw, num_frames: int):
    """Frame arrays with empty, duplicate, first and last frames."""
    pick = st.one_of(
        st.sampled_from([0, num_frames - 1]),
        st.integers(0, num_frames - 1),
    )
    pfns = draw(st.lists(pick, max_size=40))
    if pfns and draw(st.booleans()):
        pfns += pfns[: draw(st.integers(1, len(pfns)))]
    return np.asarray(pfns, dtype=np.int64)


def _decoded_routes(mapping: AddressMapping, pfns: np.ndarray):
    """(bank color, node, global channel bus) by bit-gathering decode."""
    d = mapping.decode_batch(pfns)
    return d.bank_color, d.node, d.node * mapping.num_channels + d.channel


@pytest.mark.parametrize("name", MACHINE_IDS)
class TestRoutesFromTable:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_route_batch_equals_decode(self, name, data):
        dram = _dram(name)
        mapping = dram.mapping
        pfns = data.draw(frame_arrays(mapping.num_frames))
        got = dram.route_batch(pfns)
        want = _decoded_routes(mapping, pfns)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert g.shape == pfns.shape
            assert np.array_equal(g, w)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_route_equals_frame_decode(self, name, data):
        dram = _dram(name)
        mapping = dram.mapping
        for pfn in data.draw(frame_arrays(mapping.num_frames)).tolist():
            d = mapping.frame_decode(pfn)
            route = dram._route(pfn)
            assert route[:3] == (
                d.bank_color, d.node, d.node * mapping.num_channels + d.channel
            )
            assert all(type(v) is int for v in route[:3])
            assert route[3] is dram.banks[d.bank_color]

    def test_out_of_range_frames_raise(self, name):
        dram = _dram(name)
        n = dram.mapping.num_frames
        for bad in (-1, n, n + 7):
            with pytest.raises(ValueError, match="outside physical memory"):
                dram.route_batch(np.asarray([0, bad], dtype=np.int64))
            with pytest.raises(ValueError, match="outside physical memory"):
                dram._route(bad)
        # decode_batch keeps its own error for the same frames.
        with pytest.raises(ValueError, match="outside physical memory"):
            dram.mapping.decode_batch(np.asarray([n], dtype=np.int64))


@pytest.mark.parametrize("name", sorted(PLATFORMS))
class TestSharedTable:
    def test_kernel_and_dram_read_one_table(self, name):
        booted = Kernel(platform(name, 256 * MIB))
        spec = platform(name, 256 * MIB)
        dram = DramSystem(spec.mapping, spec.topology, remote=spec.remote)
        # Three distinct, equal mapping instances: the preset's, the one
        # the kernel re-derived from the PCI registers, the second call's.
        assert booted.mapping is not booted.machine.mapping
        assert booted.mapping is not spec.mapping
        assert booted.mapping == spec.mapping
        assert dram._bank_colors is booted.pool.bank_color
        bank, llc = spec.mapping.frame_colors()
        assert bank is booted.pool.bank_color
        assert llc is booted.pool.llc_color
        assert (
            spec.mapping.color_compat_table()
            is booted.mapping.color_compat_table()
        )

    def test_shared_arrays_reject_writes(self, name):
        mapping = platform(name, 256 * MIB).mapping
        for table in (*mapping.frame_colors(), mapping.color_compat_table()):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
        pool = Kernel(platform(name, 256 * MIB)).pool
        with pytest.raises(ValueError):
            pool.bank_color[0] = 1
        with pytest.raises(ValueError):
            pool.llc_color[-1] = 0

    def test_frame_color_table_is_an_int64_copy(self, name):
        mapping = platform(name, 256 * MIB).mapping
        bank, llc = mapping.frame_colors()
        assert bank.dtype == llc.dtype == np.int16
        assert len(bank) == len(llc) == mapping.num_frames
        table_bank, table_llc = mapping.frame_color_table()
        for table, shared in ((table_bank, bank), (table_llc, llc)):
            assert table.dtype == np.int64
            assert np.array_equal(table, shared)
            assert table.flags.writeable
            assert not np.shares_memory(table, shared)

    def test_cached_counts_equal_formulas(self, name):
        m = platform(name).mapping
        nodes, channels, ranks, banks = (
            1 << len(m.fields[f]) for f in ("node", "channel", "rank", "bank")
        )
        want = {
            "num_nodes": nodes,
            "num_channels": channels,
            "num_ranks": ranks,
            "num_banks": banks,
            "num_bank_colors": nodes * channels * ranks * banks,
            "bank_colors_per_node": channels * ranks * banks,
            "num_llc_colors": 1 << len(m.llc_color_positions),
            "page_bytes": 1 << m.page_bits,
            "line_bytes": 1 << m.line_bits,
            "memory_bytes": 1 << m.total_bits,
            "num_frames": 1 << (m.total_bits - m.page_bits),
        }
        clone = pickle.loads(pickle.dumps(m))
        for attr, value in want.items():
            assert getattr(m, attr) == value, attr
            assert clone.__dict__[attr] == value, attr
        assert clone == m
        # The clone is keyed by value, so it reads the same shared table.
        assert clone.frame_colors()[0] is m.frame_colors()[0]


def test_store_is_bounded():
    """Many distinct mappings evict old tables instead of piling up."""
    mappings = [
        AddressMapping(
            total_bits=bits,
            line_bits=6,
            page_bits=12,
            fields={
                "node": contiguous(bits - 1, 1),
                "channel": contiguous(13, 1),
                "rank": contiguous(14, 1),
                "bank": contiguous(15, 2),
            },
            llc_color_positions=contiguous(12, 2),
        )
        for bits in range(18, 18 + address._TABLE_STORE_SIZE + 2)
    ]
    for m in mappings:
        m.frame_colors()
        m.color_compat_table()
        assert len(address._TABLE_STORE) <= address._TABLE_STORE_SIZE
    # An evicted value is rebuilt on demand, equal to the bit-gather.
    first = mappings[0]
    bank, llc = first.frame_colors()
    pfns = np.arange(first.num_frames, dtype=np.int64)
    assert np.array_equal(bank, first.decode_batch(pfns).bank_color)
    assert np.array_equal(llc, first.decode_batch(pfns).llc_color)
