"""Physical frame pool: per-frame colors and allocation state.

Every frame's bank color (Eq. 1) and LLC color — the analogue of the
per-``struct page`` color fields the paper's kernel derives from PCI
registers at boot — come from the mapping's shared, read-only color
arrays (:meth:`~repro.machine.address.AddressMapping.frame_colors`),
derived once per mapping value rather than once per boot.  The pool
owns only the mutable per-frame state and owner arrays.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.machine.address import AddressMapping


class FrameState(enum.IntEnum):
    """Where a frame currently lives."""

    BUDDY = 0  # on a buddy free list (possibly inside a larger block)
    COLORED_FREE = 1  # on a color_list[mem][llc] free list
    ALLOCATED = 2  # handed out to a task


# Plain-int copies for the per-frame hot paths: comparing against an
# IntEnum member costs an enum attribute lookup on every call.
BUDDY = FrameState.BUDDY.value
COLORED_FREE = FrameState.COLORED_FREE.value
ALLOCATED = FrameState.ALLOCATED.value


class FramePool:
    """All physical frames of the machine with color and state tracking."""

    def __init__(self, mapping: AddressMapping) -> None:
        if not mapping.frame_colors_invariant():
            raise ValueError(
                "address mapping does not give frames invariant colors; "
                "coloring requires all color bits at/above the page offset"
            )
        # node_frame_range() (and the kernel's per-node buddy allocators)
        # assume each node owns one contiguous frame range, i.e. the node
        # field occupies the top address bits.  Every scheme built by
        # repro.machine.address.MappingScheme satisfies this; reject
        # hand-rolled mappings that do not rather than mis-route frames.
        node_bits = mapping.fields["node"]
        expected = tuple(
            range(mapping.total_bits - len(node_bits), mapping.total_bits)
        )
        if node_bits != expected:
            raise ValueError(
                f"node field bits {node_bits} are not the top address bits "
                f"{expected}; per-node frame ranges would not be contiguous"
            )
        self.mapping = mapping
        self.num_frames = mapping.num_frames
        bank, llc = mapping.frame_colors()
        #: bank color (Eq. 1) per frame, int16; shared and read-only.
        self.bank_color: np.ndarray = bank
        #: LLC color per frame, int16; shared and read-only.
        self.llc_color: np.ndarray = llc
        #: FrameState per frame.
        self.state: np.ndarray = np.full(
            self.num_frames, FrameState.BUDDY, dtype=np.int8
        )
        #: owning task id per frame, -1 when not ALLOCATED.
        self.owner: np.ndarray = np.full(self.num_frames, -1, dtype=np.int32)

    @property
    def frames_per_node(self) -> int:
        return self.num_frames // self.mapping.num_nodes

    def node_of_frame(self, pfn: int) -> int:
        """Memory node serving ``pfn`` (from its bank color)."""
        return int(self.bank_color[pfn]) // self.mapping.bank_colors_per_node

    def node_frame_range(self, node: int) -> tuple[int, int]:
        """[start, end) frame numbers owned by ``node``.

        Valid because presets place the node field in the top address bits
        (each controller owns a contiguous range — DRAM base/limit style).
        """
        per = self.frames_per_node
        return node * per, (node + 1) * per

    # --- state transitions, each validating its precondition -----------------
    def mark_allocated(self, pfn: int, owner: int) -> None:
        if self.state[pfn] == ALLOCATED:
            raise ValueError(f"frame {pfn} already allocated (double alloc)")
        self.state[pfn] = ALLOCATED
        self.owner[pfn] = owner

    def mark_colored_free(self, pfn: int) -> None:
        if self.state[pfn] == COLORED_FREE:
            raise ValueError(f"frame {pfn} already on a color list")
        self.state[pfn] = COLORED_FREE
        self.owner[pfn] = -1

    def mark_buddy(self, pfn: int) -> None:
        self.state[pfn] = BUDDY
        self.owner[pfn] = -1

    def counts(self) -> dict[str, int]:
        """Frame counts per state (for invariant checks and stats)."""
        values, counts = np.unique(self.state, return_counts=True)
        by_state = dict(zip(values.tolist(), counts.tolist()))
        return {
            "buddy": by_state.get(int(FrameState.BUDDY), 0),
            "colored_free": by_state.get(int(FrameState.COLORED_FREE), 0),
            "allocated": by_state.get(int(FrameState.ALLOCATED), 0),
        }
