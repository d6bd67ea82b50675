"""Unit + property tests for the colored free-page matrix."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.colorlist import ColorMatrix
from repro.kernel.frame import FramePool, FrameState
from repro.machine.presets import (
    bigbank_4n,
    disagg_2n,
    modern_8ch,
    opteron_6128_scaled,
    tiny_machine,
)


@pytest.fixture
def pool(tiny):
    return FramePool(tiny.mapping)


@pytest.fixture
def matrix(pool):
    return ColorMatrix(pool)


def find_frame(pool, mem=None, llc=None, exclude=()):
    for pfn in range(pool.num_frames):
        if pfn in exclude:
            continue
        if mem is not None and pool.bank_color[pfn] != mem:
            continue
        if llc is not None and pool.llc_color[pfn] != llc:
            continue
        return pfn
    raise AssertionError("no frame with requested colors")


class TestPushPop:
    def test_push_then_pop_exact(self, pool, matrix):
        pfn = find_frame(pool, mem=3)
        llc = int(pool.llc_color[pfn])
        matrix.push(pfn)
        assert matrix.total_free == 1
        got = matrix.pop_matching([3], [llc])
        assert got == pfn
        assert matrix.total_free == 0

    def test_pop_respects_mem_constraint(self, pool, matrix):
        pfn = find_frame(pool, mem=3)
        matrix.push(pfn)
        assert matrix.pop_matching([4], None) is None
        assert matrix.pop_matching([3], None) == pfn

    def test_pop_respects_llc_constraint(self, pool, matrix):
        pfn = find_frame(pool, llc=1)
        matrix.push(pfn)
        assert matrix.pop_matching(None, [0]) is None
        assert matrix.pop_matching(None, [1]) == pfn

    def test_pop_both_constraints_must_match_jointly(self, pool, matrix):
        a = find_frame(pool, mem=0)
        llc_a = int(pool.llc_color[a])
        other_llc = (llc_a + 1) % pool.mapping.num_llc_colors
        matrix.push(a)
        assert matrix.pop_matching([0], [other_llc]) is None
        assert matrix.pop_matching([0], [llc_a]) == a

    def test_pop_requires_some_constraint(self, matrix):
        with pytest.raises(ValueError):
            matrix.pop_matching(None, None)

    def test_push_updates_frame_state(self, pool, matrix):
        matrix.push(0)
        assert pool.state[0] == FrameState.COLORED_FREE

    def test_double_push_rejected(self, pool, matrix):
        matrix.push(0)
        with pytest.raises(ValueError):
            matrix.push(0)


class TestRotation:
    def test_pops_rotate_across_colors(self, pool, matrix):
        """A task with several colors should receive pages spread over
        them, not drain one list first."""
        mem_colors = [0, 1]
        for mc in mem_colors:
            for _ in range(4):
                pfn = find_frame(
                    pool, mem=mc,
                    exclude={p for b in matrix._lists.values() for p in b},
                )
                matrix.push(pfn)
        got_colors = [
            int(pool.bank_color[matrix.pop_matching(mem_colors, None)])
            for _ in range(4)
        ]
        assert set(got_colors) == {0, 1}


class TestPreference:
    def test_mem_preference_orders_unconstrained_pop(self, pool, matrix):
        llc = 0
        # Pick bank colors compatible with llc 0 on each node.
        mapping = pool.mapping
        local_color = mapping.compatible_bank_colors(llc, node=0)[0]
        remote_color = mapping.compatible_bank_colors(llc, node=1)[0]
        remote = find_frame(pool, mem=remote_color, llc=llc)
        local = find_frame(pool, mem=local_color, llc=llc)
        matrix.push(remote)
        matrix.push(local)
        node0 = list(pool.mapping.bank_colors_of_node(0))
        got = matrix.pop_matching(None, [llc], mem_preference=node0)
        assert got == local

    def test_preference_falls_back_to_any(self, pool, matrix):
        llc = 0
        remote = find_frame(pool, mem=16, llc=llc)
        matrix.push(remote)
        node0 = list(pool.mapping.bank_colors_of_node(0))
        got = matrix.pop_matching(None, [llc], mem_preference=node0)
        assert got == remote


class TestHasMatching:
    def test_has_matching_all_modes(self, pool, matrix):
        pfn = find_frame(pool, mem=2)
        llc = int(pool.llc_color[pfn])
        matrix.push(pfn)
        assert matrix.has_matching([2], None)
        assert matrix.has_matching(None, [llc])
        assert matrix.has_matching([2], [llc])
        assert not matrix.has_matching([3], None)
        assert not matrix.has_matching([2], [(llc + 1) % 4])


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True))
    def test_push_pop_conserves_and_indexes_stay_consistent(self, pfns):
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        for pfn in pfns:
            matrix.push(pfn)
        matrix.check_invariants()
        popped = []
        while True:
            pfn = matrix.pop_matching(
                list(range(pool.mapping.num_bank_colors)), None
            )
            if pfn is None:
                break
            popped.append(pfn)
        assert sorted(popped) == sorted(pfns)
        matrix.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True),
        st.integers(0, 31),
    )
    def test_pop_returns_only_requested_colors(self, pfns, mem_color):
        pool = FramePool(tiny_machine().mapping)
        matrix = ColorMatrix(pool)
        for pfn in pfns:
            matrix.push(pfn)
        while True:
            pfn = matrix.pop_matching([mem_color], None)
            if pfn is None:
                break
            assert int(pool.bank_color[pfn]) == mem_color
        matrix.check_invariants()


# ---------------------------------------------------------------- Algorithm 2
PUSH_BLOCK_PRESETS = {
    "opteron_6128_scaled": opteron_6128_scaled,
    "modern_8ch": modern_8ch,
    "bigbank_4n": bigbank_4n,
    "disagg_2n": disagg_2n,
    "tiny_machine": tiny_machine,
}


@functools.lru_cache(maxsize=None)
def preset_mapping(name):
    return PUSH_BLOCK_PRESETS[name]().mapping


def snapshot(matrix):
    """Everything push/push_block may change, in comparable form (dict
    insertion order included)."""
    return (
        [(key, list(bucket)) for key, bucket in matrix._lists.items()],
        [(mem, list(llcs)) for mem, llcs in matrix._llc_of_mem.items()],
        [(llc, list(mems)) for llc, mems in matrix._mem_of_llc.items()],
        matrix.pool.state.tobytes(),
        matrix.pool.owner.tobytes(),
        matrix.total_free,
    )


def push_frames(matrix, start, order):
    """The per-frame reference for ``push_block``."""
    for pfn in range(start, start + (1 << order)):
        matrix.push(pfn)


def block_is_free(matrix, start, order):
    state = matrix.pool.state[start:start + (1 << order)]
    return not (state == FrameState.COLORED_FREE).any()


def drain(matrix, count, by_llc):
    """Pop up to ``count`` frames, rotating over every color of one axis
    so that some buckets empty out and their keys leave the indexes."""
    mapping = matrix.pool.mapping
    for _ in range(count):
        if by_llc:
            pfn = matrix.pop_matching(None, list(range(mapping.num_llc_colors)))
        else:
            pfn = matrix.pop_matching(list(range(mapping.num_bank_colors)), None)
        if pfn is None:
            return


class TestPushBlock:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_push_block_equals_per_frame_push(self, data):
        mapping = preset_mapping(
            data.draw(st.sampled_from(sorted(PUSH_BLOCK_PRESETS)))
        )
        reference = ColorMatrix(FramePool(mapping))

        def draw_block():
            order = data.draw(st.integers(0, 10))
            # A few low blocks only, so history and target overlap often.
            index = data.draw(
                st.integers(0, min(7, (mapping.num_frames >> order) - 1))
            )
            return index << order, order

        # History: per-frame pushes and pops, so that some (mem, llc) keys
        # were removed and the target block re-adds them.
        for _ in range(data.draw(st.integers(0, 3))):
            start, order = draw_block()
            if block_is_free(reference, start, order):
                push_frames(reference, start, order)
            drain(reference, data.draw(st.integers(0, 1 << order)),
                  data.draw(st.booleans()))
        reference.check_invariants()
        fast = copy.deepcopy(reference)
        start, order = draw_block()
        if not block_is_free(reference, start, order):
            before = snapshot(fast)
            with pytest.raises(ValueError, match="already on a color list"):
                fast.push_block(start, order)
            assert snapshot(fast) == before
            return
        fast.push_block(start, order)
        push_frames(reference, start, order)
        assert snapshot(fast) == snapshot(reference)
        fast.check_invariants()

    @pytest.mark.parametrize("name", sorted(PUSH_BLOCK_PRESETS))
    def test_drained_keys_are_re_added_in_per_frame_order(self, name):
        mapping = preset_mapping(name)
        reference = ColorMatrix(FramePool(mapping))
        push_frames(reference, 0, 10)
        drain(reference, 1 << 10, by_llc=False)
        push_frames(reference, 1 << 10, 4)
        drain(reference, 5, by_llc=True)
        assert reference.total_free > 0
        # Some keys were emptied; the block below files frames under them.
        assert any(not bucket for bucket in reference._lists.values())
        fast = copy.deepcopy(reference)
        fast.push_block(0, 10)
        push_frames(reference, 0, 10)
        assert snapshot(fast) == snapshot(reference)
        fast.check_invariants()

    @pytest.mark.parametrize("name", sorted(PUSH_BLOCK_PRESETS))
    def test_colored_frame_in_block_rejected_without_change(self, name):
        matrix = ColorMatrix(FramePool(preset_mapping(name)))
        matrix.push_block(0, 2)
        matrix.push(37)
        matrix.push(45)
        before = snapshot(matrix)
        with pytest.raises(ValueError, match="frame 37 already on a color list"):
            matrix.push_block(32, 4)
        assert snapshot(matrix) == before
        matrix.check_invariants()

    def test_block_frames_marked_colored_free(self, pool, matrix):
        pool.mark_allocated(5, owner=3)
        matrix.push_block(4, 2)
        assert np.all(pool.state[4:8] == FrameState.COLORED_FREE)
        assert np.all(pool.owner[4:8] == -1)
        assert matrix.total_free == 4
