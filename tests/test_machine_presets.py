"""Unit tests for machine presets."""

import pickle

import numpy as np
import pytest

from repro.machine.presets import (
    PLATFORMS,
    MachineSpec,
    opteron_6128,
    tiny_machine,
)
from repro.util.units import GIB, MIB


class TestOpteronPreset:
    def test_paper_figures(self):
        spec = opteron_6128()
        # §IV: 16 cores, 4 controllers, 128 bank colors, 32 LLC colors.
        assert spec.topology.num_cores == 16
        assert spec.mapping.num_bank_colors == 128
        assert spec.mapping.num_llc_colors == 32
        assert spec.topology.llc.size_bytes == 12 * MIB
        assert spec.topology.line_bytes == 128

    def test_memory_scaling(self):
        small = opteron_6128(memory_bytes=256 * MIB)
        big = opteron_6128(memory_bytes=8 * GIB)
        assert big.mapping.num_frames == 32 * small.mapping.num_frames
        assert small.mapping.num_bank_colors == big.mapping.num_bank_colors

    def test_fig5_bank_bits(self):
        # The bank field uses the paper's literal Fig. 5 bits, overlapping
        # the LLC color field (see presets docstring).
        spec = opteron_6128()
        assert spec.mapping.fields["bank"] == (15, 16, 18)
        assert spec.mapping.shared_color_bits == 2

    def test_channel_rank_above_llc_index(self):
        # Channel/rank must not constrain LLC sets: they sit above the
        # index, and the only in-index DRAM bits are LLC *color* bits.
        spec = opteron_6128()
        llc_index_top = 7 + spec.topology.llc.index_bits - 1
        for name in ("channel", "rank"):
            for bit in spec.mapping.fields[name]:
                assert bit > llc_index_top
        # Bank bits inside the index are either LLC color bits (handled by
        # compatibility) or covered by both values within any thread's
        # compatible bank set, so coloring never silently halves the LLC.
        color_bits = set(spec.mapping.llc_color_positions)
        in_index_not_color = [
            bit for bit in spec.mapping.fields["bank"]
            if bit <= llc_index_top and bit not in color_bits
        ]
        for llc_color in range(spec.mapping.num_llc_colors):
            banks = spec.mapping.compatible_bank_colors(llc_color, node=0)
            for bit in in_index_not_color:
                values = {
                    (spec.mapping.compose(  # rebuild addresses per bank
                        *spec.mapping.split_bank_color(bc), 0
                    ) >> bit) & 1
                    for bc in banks
                }
                assert values == {0, 1}

    def test_color_compatibility_structure(self):
        # Each bank color is compatible with exactly 8 of the 32 LLC
        # colors (2 shared bits), and every thread-sized bank span (all 8
        # banks of one channel/rank) covers every LLC color.
        mapping = opteron_6128().mapping
        for bc in (0, 5, 77, 127):
            assert len(mapping.compatible_llc_colors(bc)) == 8
        covered = set()
        for bc in range(8):  # banks 0-7 of node 0, channel 0, rank 0
            covered.update(mapping.compatible_llc_colors(bc))
        assert covered == set(range(32))

    def test_non_power_of_two_memory_rejected(self):
        with pytest.raises(ValueError):
            opteron_6128(memory_bytes=3 * GIB)

    def test_too_small_memory_rejected(self):
        with pytest.raises(ValueError):
            opteron_6128(memory_bytes=32 * MIB)


class TestTinyPreset:
    def test_structure(self):
        spec = tiny_machine()
        assert spec.topology.num_cores == 4
        assert spec.mapping.num_bank_colors == 32
        assert spec.mapping.num_llc_colors == 4

    def test_frame_invariance_required(self):
        assert tiny_machine().mapping.frame_colors_invariant()

    def test_coupling_analogue(self):
        # One bank bit overlaps the LLC color field, like the full preset.
        mapping = tiny_machine().mapping
        assert mapping.shared_color_bits == 1
        for bc in range(mapping.num_bank_colors):
            assert len(mapping.compatible_llc_colors(bc)) == 2


class TestMachineSpecValidation:
    def test_node_count_mismatch_rejected(self):
        a, b = opteron_6128(), tiny_machine()
        with pytest.raises(ValueError):
            MachineSpec(topology=a.topology, mapping=b.mapping, pci=b.pci)


class TestColorCompatTable:
    # PLATFORMS includes tiny_machine (as "tiny").
    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_table_is_the_physical_color_pairs(self, name):
        mapping = PLATFORMS[name]().mapping
        table = mapping.color_compat_table()
        bank, llc = mapping.frame_color_table()
        existing = np.zeros(
            (mapping.num_bank_colors, mapping.num_llc_colors), dtype=bool
        )
        existing[bank, llc] = True
        assert np.array_equal(table, existing)
        for bc in (0, mapping.num_bank_colors - 1):
            assert mapping.compatible_llc_colors(bc) == tuple(
                np.flatnonzero(existing[bc]).tolist()
            )
            for lc in range(mapping.num_llc_colors):
                assert mapping.colors_compatible(bc, lc) == existing[bc, lc]
        node = mapping.num_nodes - 1
        lo = node * mapping.bank_colors_per_node
        hi = lo + mapping.bank_colors_per_node
        assert mapping.compatible_bank_colors(0, node=node) == tuple(
            (np.flatnonzero(existing[lo:hi, 0]) + lo).tolist()
        )

    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_table_survives_pickle(self, name):
        mapping = PLATFORMS[name]().mapping
        table = mapping.color_compat_table()
        clone = pickle.loads(pickle.dumps(mapping))
        assert clone.__dict__["_color_compat"] is not None
        assert np.array_equal(clone.color_compat_table(), table)
        # A mapping pickled before first use builds the same table.
        fresh = pickle.loads(pickle.dumps(PLATFORMS[name]().mapping))
        assert np.array_equal(fresh.color_compat_table(), table)

    def test_out_of_range_bank_color_rejected(self):
        mapping = tiny_machine().mapping
        for bad in (-1, mapping.num_bank_colors):
            with pytest.raises(ValueError, match="out of range"):
                mapping.colors_compatible(bad, 0)
            with pytest.raises(ValueError, match="out of range"):
                mapping.compatible_llc_colors(bad)
        with pytest.raises(ValueError, match="out of range"):
            mapping.compatible_bank_colors(0, node=mapping.num_nodes)
