"""Cache-line primitives: addresses, MESI states, and cache blocks.

The whole simulator works at cache-block granularity for coherence and
persistence, while stores carry byte-level (offset, value) payloads so that
crash-recovery checks can compare actual memory images.

Addresses are plain integers in a flat physical address space.  The address
space is split by :class:`repro.sim.config.MemConfig` into a DRAM range and an
NVMM range; a sub-range of NVMM is the *persistent* region managed by
``repro.workloads.alloc.PersistentHeap``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple


class MESIState(enum.Enum):
    """Coherence states of the MESI protocol (terminology follows [83])."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not MESIState.INVALID

    @property
    def can_write(self) -> bool:
        """Whether a store may hit in this state without a coherence upgrade."""
        return self in (MESIState.MODIFIED, MESIState.EXCLUSIVE)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Short aliases used pervasively by the protocol code.
M = MESIState.MODIFIED
E = MESIState.EXCLUSIVE
S = MESIState.SHARED
I = MESIState.INVALID  # noqa: E741  - standard MESI letter


def block_address(addr: int, block_size: int) -> int:
    """Return the block-aligned address containing byte address ``addr``."""
    return addr & ~(block_size - 1)


def block_offset(addr: int, block_size: int) -> int:
    """Return the byte offset of ``addr`` within its cache block."""
    return addr & (block_size - 1)


class BlockData:
    """Byte-granular contents of one cache block, packed into two ints.

    ``val`` holds the block's bytes little-endian (byte ``i`` at bits
    ``8*i .. 8*i+7``); ``mask`` holds ``0xFF`` over every byte ever
    written.  Unwritten bytes read as 0 and are always 0 in ``val``, so
    overlaying, copying and comparing blocks are a few int operations
    instead of per-byte dict work.  ``BlockData({offset: byte})`` builds a
    block from a sparse byte map, and :attr:`bytes` gives that map back as
    a read-only view.
    """

    __slots__ = ("val", "mask")

    def __init__(self, bytes: Optional[Mapping[int, int]] = None) -> None:
        val = mask = 0
        if bytes:
            for off, byte in bytes.items():
                shift = off << 3
                val = (val & ~(0xFF << shift)) | ((byte & 0xFF) << shift)
                mask |= 0xFF << shift
        self.val = val
        self.mask = mask

    @property
    def bytes(self) -> Mapping[int, int]:
        """Read-only ``{offset: byte}`` view of the written bytes."""
        return MappingProxyType(dict(self.items()))

    def items(self) -> List[Tuple[int, int]]:
        """``(offset, byte)`` for every written byte, by ascending offset."""
        mask = self.mask
        if not mask:
            return []
        n = (mask.bit_length() + 7) >> 3
        raw = self.val.to_bytes(n, "little")
        return [(off, raw[off])
                for off, m in enumerate(mask.to_bytes(n, "little")) if m]

    def write(self, offset: int, value: int) -> None:
        shift = offset << 3
        self.val = (self.val & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.mask |= 0xFF << shift

    def write_word(self, offset: int, value: int, size: int = 8) -> None:
        """Write ``size`` bytes of ``value`` little-endian at ``offset``."""
        shift = offset << 3
        m = ((1 << (size << 3)) - 1) << shift
        self.val = (self.val & ~m) | ((value << shift) & m)
        self.mask |= m

    def read(self, offset: int) -> int:
        return (self.val >> (offset << 3)) & 0xFF

    def read_word(self, offset: int, size: int = 8) -> int:
        return (self.val >> (offset << 3)) & ((1 << (size << 3)) - 1)

    def flip_bit(self, offset: int, bit: int) -> None:
        """Invert bit ``bit`` (0-7) of the byte at ``offset`` (marking the
        byte written) — the media/buffer corruption fault."""
        shift = offset << 3
        self.val ^= 1 << (shift + (bit & 7))
        self.mask |= 0xFF << shift

    def merge_from(self, other: "BlockData") -> None:
        """Overlay ``other``'s written bytes onto this block (other wins)."""
        m = other.mask
        self.val = (self.val & ~m) | other.val
        self.mask |= m

    def copy(self) -> "BlockData":
        clone = BlockData.__new__(BlockData)
        clone.val = self.val
        clone.mask = self.mask
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockData):
            return NotImplemented
        # Unwritten bytes are 0 in ``val``: an explicit zero equals an
        # unwritten byte, exactly as reading them does.
        return self.val == other.val

    def __bool__(self) -> bool:
        return bool(self.mask)

    def __repr__(self) -> str:
        return f"BlockData({dict(self.items())!r})"


def block_digest_bytes(data: BlockData) -> bytes:
    """``offset, byte`` pairs of every written byte, by ascending offset —
    the per-block payload the durable-image fingerprints hash."""
    return bytes(b for item in data.items() for b in item)


@dataclass
class CacheBlock:
    """One cache frame: tag + MESI state + data + persistence annotations.

    ``persistent`` implements the per-block bit from Section III-B of the
    paper: a dirty block holding persistent data is *not* written back to
    NVMM on eviction because its durable copy lives (or lived) in a bbPB.
    """

    addr: int
    state: MESIState = I
    data: BlockData = field(default_factory=BlockData)
    dirty: bool = False
    persistent: bool = False
    last_use: int = 0

    @property
    def valid(self) -> bool:
        return self.state is not I

    def invalidate(self) -> None:
        self.state = I
        self.dirty = False
        self.persistent = False
        self.data = BlockData()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("D" if self.dirty else "") + ("P" if self.persistent else "")
        return f"CacheBlock(0x{self.addr:x}, {self.state}{',' + flags if flags else ''})"
