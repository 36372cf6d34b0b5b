"""Chunked sparse bitsets for the happens-before closure engine.

The incremental closure historically stored one dense Python big-int
bitset per key node.  A big int's size is set by its *highest* bit, so
a node that reaches a single late node pays for the whole id range —
on traces past ~10⁵ key nodes the closure memory grows quadratically
even when actual reachability is sparse (most event pairs are
concurrent, which is the whole point of the analysis).

:class:`SparseBits` stores the same bitset as fixed-width word chunks
keyed by block index: bit ``i`` lives in chunk ``i >> CHUNK_SHIFT`` at
offset ``i & CHUNK_LOW``.  Only populated blocks exist (the zero chunk
is never stored), so memory tracks the set's *population layout*, not
the id range.  All bulk operations — union, subset, popcount,
intersection, iteration — run in chunk space: one Python-int word op
per populated block instead of one op over the whole range.  A chunk
equal to :data:`FULL_CHUNK` is *dense* and gets a fast path (union
into it is a no-op, subset against it always holds).

Sharing is copy-on-write at chunk granularity.  Chunks are immutable
Python ints, so :meth:`SparseBits.ior` adopts blocks the receiver
lacks *by reference*: after ``reach[u] |= reach[v]`` the predecessor's
blocks alias the successor's, and :meth:`SparseBits.copy` is a shallow
block-table copy that keeps every chunk shared until a mutation
replaces that one block.  On the key graphs produced from real traces
— long program-order chains where ``reach[i]`` is ``reach[i+1]`` plus
one bit — almost every block of a node's reach set aliases its
successor's, which is where the measured memory win comes from (see
``benchmarks/bounds_pr5.json``).  :func:`vector_stats` measures that
sharing by object identity.

Both Roemer & Bond (arXiv:1907.08337) and Mathur et al.
(arXiv:1808.00185) support the underlying bet: set representations
tuned to the analysis' access pattern beat uniform dense state, and
HB reasoning stays sound when the closure state is maintained
incrementally — the representation may change, the relation may not.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence

#: bits per chunk.  Power of two so bit->block is a shift.  1024 is the
#: sweet spot measured on the stock app traces: wide enough that the
#: block tables stay small (~4 populated blocks per key node at
#: K≈10⁴), narrow enough that one changed bit does not clone a large
#: chunk and destroy sharing.
CHUNK_BITS = 1024
CHUNK_SHIFT = CHUNK_BITS.bit_length() - 1
assert 1 << CHUNK_SHIFT == CHUNK_BITS, "CHUNK_BITS must be a power of two"
#: low-bits mask: offset of a bit inside its chunk
CHUNK_LOW = CHUNK_BITS - 1
#: the all-ones chunk — the "dense chunk" of the fast paths
FULL_CHUNK = (1 << CHUNK_BITS) - 1


class SparseBits:
    """A set of non-negative ints as fixed-width chunks keyed by block.

    Invariant: ``chunks`` never stores a zero value — an absent block
    *is* the zero chunk.  All methods preserve it, and equality,
    hashing-free comparison, and the byte accounting rely on it.

    Mutating methods (:meth:`set`, :meth:`ior`) mutate in place;
    :meth:`copy` is O(blocks) and shares every chunk with the source
    until a mutation replaces that block (chunks are immutable ints,
    so sharing is always safe — copy-on-write comes for free).
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks: Dict[int, int] | None = None) -> None:
        self.chunks: Dict[int, int] = chunks if chunks is not None else {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, i: int) -> "SparseBits":
        """The singleton set ``{i}``."""
        return cls({i >> CHUNK_SHIFT: 1 << (i & CHUNK_LOW)})

    @classmethod
    def from_int(cls, value: int) -> "SparseBits":
        """Build from a dense big-int bitset (differential tests)."""
        if value < 0:
            raise ValueError("SparseBits holds non-negative bit indices only")
        chunks: Dict[int, int] = {}
        block = 0
        while value:
            low = value & FULL_CHUNK
            if low:
                chunks[block] = low
            value >>= CHUNK_BITS
            block += 1
        return cls(chunks)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SparseBits":
        bits = cls()
        for i in indices:
            bits.set(i)
        return bits

    def to_int(self) -> int:
        """The equivalent dense big-int bitset."""
        acc = 0
        for block, chunk in self.chunks.items():
            acc |= chunk << (block << CHUNK_SHIFT)
        return acc

    def copy(self) -> "SparseBits":
        """Shallow block-table copy; every chunk stays shared."""
        return SparseBits(dict(self.chunks))

    # -- point operations ----------------------------------------------

    def test(self, i: int) -> bool:
        """Is bit ``i`` set?"""
        chunk = self.chunks.get(i >> CHUNK_SHIFT)
        return chunk is not None and (chunk >> (i & CHUNK_LOW)) & 1 == 1

    __contains__ = test

    def set(self, i: int) -> None:
        """Set bit ``i`` (in place; clones at most one chunk)."""
        block = i >> CHUNK_SHIFT
        self.chunks[block] = self.chunks.get(block, 0) | (1 << (i & CHUNK_LOW))

    # -- bulk operations (all in chunk space) ---------------------------

    def ior(self, other: "SparseBits") -> int:
        """In-place union; returns the number of bits newly set.

        Blocks the receiver lacks are adopted from ``other`` *by
        reference* (chunk sharing); a receiver chunk that is already
        :data:`FULL_CHUNK` is dense and skipped without any word work.
        """
        gained = 0
        chunks = self.chunks
        get = chunks.get
        for block, theirs in other.chunks.items():
            mine = get(block)
            if mine is None:
                chunks[block] = theirs  # adopted: shared by reference
                gained += theirs.bit_count()
            elif mine is not theirs and mine != FULL_CHUNK:
                new = (theirs & ~mine)
                if new:
                    gained += new.bit_count()
                    chunks[block] = mine | theirs
        return gained

    def intersects(self, other: "SparseBits") -> bool:
        """Is the intersection non-empty?  O(min(blocks))."""
        a, b = self.chunks, other.chunks
        if len(b) < len(a):
            a, b = b, a
        get = b.get
        for block, chunk in a.items():
            theirs = get(block)
            if theirs is not None and chunk & theirs:
                return True
        return False

    def and_iter(self, other: "SparseBits") -> Iterator[int]:
        """Iterate set bits of the intersection in ascending order."""
        a, b = self.chunks, other.chunks
        if len(b) < len(a):
            a, b = b, a
        get = b.get
        for block in sorted(a):
            theirs = get(block)
            if theirs is None:
                continue
            word = a[block] & theirs
            base = block << CHUNK_SHIFT
            while word:
                low = word & -word
                word ^= low
                yield base + low.bit_length() - 1

    def issubset(self, other: "SparseBits") -> bool:
        """Is every bit of self set in ``other``?"""
        get = other.chunks.get
        for block, chunk in self.chunks.items():
            theirs = get(block)
            if theirs is None:
                return False
            if theirs != FULL_CHUNK and chunk & ~theirs:
                return False
        return True

    def any_in_range(self, lo: int, hi: int) -> bool:
        """Is any bit in ``[lo, hi)`` set?  O(blocks overlapping range).

        The query path's replacement for the dense prefix-mask AND:
        a task's key nodes occupy a contiguous id range, so "is any of
        the first ``hi`` key nodes reachable" is a range probe.
        """
        if hi <= lo:
            return False
        chunks = self.chunks
        first, last = lo >> CHUNK_SHIFT, (hi - 1) >> CHUNK_SHIFT
        if first == last:
            chunk = chunks.get(first)
            if chunk is None:
                return False
            mask = ((1 << (hi - lo)) - 1) << (lo & CHUNK_LOW)
            return bool(chunk & mask)
        chunk = chunks.get(first)
        if chunk is not None and chunk >> (lo & CHUNK_LOW):
            return True
        # Any populated interior block is a hit (zero chunks are never
        # stored).  Walk whichever is smaller: the range or the table.
        if last - first - 1 <= len(chunks):
            for block in range(first + 1, last):
                if block in chunks:
                    return True
        else:
            for block in chunks:
                if first < block < last:
                    return True
        chunk = chunks.get(last)
        if chunk is not None:
            mask = (1 << (((hi - 1) & CHUNK_LOW) + 1)) - 1
            if chunk & mask:
                return True
        return False

    # -- whole-set queries ---------------------------------------------

    def bit_count(self) -> int:
        """Population count (named after ``int.bit_count``)."""
        return sum(chunk.bit_count() for chunk in self.chunks.values())

    def __bool__(self) -> bool:
        return bool(self.chunks)

    def __iter__(self) -> Iterator[int]:
        """Iterate set bits in ascending order."""
        chunks = self.chunks
        for block in sorted(chunks):
            word = chunks[block]
            base = block << CHUNK_SHIFT
            while word:
                low = word & -word
                word ^= low
                yield base + low.bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseBits):
            return self.chunks == other.chunks
        if isinstance(other, int):
            return self.to_int() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:
        n = self.bit_count()
        return f"<SparseBits {n} bits in {len(self.chunks)} chunks>"

    def nbytes(self) -> int:
        """Retained bytes of this set alone (no cross-set sharing)."""
        return (
            sys.getsizeof(self)
            + sys.getsizeof(self.chunks)
            + sum(sys.getsizeof(chunk) for chunk in self.chunks.values())
        )


@dataclass
class ChunkStats:
    """Storage accounting over a vector of :class:`SparseBits`.

    ``chunk_refs`` counts block-table entries; ``chunks_allocated``
    counts distinct chunk objects (by identity, so a chunk adopted by
    reference through :meth:`SparseBits.ior` or :meth:`SparseBits.copy`
    is counted once); the difference is ``chunks_shared``.
    ``dense_chunk_ratio`` is the fraction of references whose chunk is
    the all-ones :data:`FULL_CHUNK` (the dense fast path).
    """

    sets: int = 0
    chunk_refs: int = 0
    chunks_allocated: int = 0
    chunks_shared: int = 0
    dense_chunks: int = 0
    bytes: int = 0

    @property
    def dense_chunk_ratio(self) -> float:
        return self.dense_chunks / self.chunk_refs if self.chunk_refs else 0.0

    @property
    def share_ratio(self) -> float:
        return self.chunks_shared / self.chunk_refs if self.chunk_refs else 0.0


def vector_stats(sets: Sequence[SparseBits]) -> ChunkStats:
    """Sharing-aware storage accounting for a closure's reach vector.

    Chunk bytes are attributed once per distinct chunk *object*:
    CPython ints are immutable, so two block tables referencing the
    same chunk genuinely share its memory.
    """
    stats = ChunkStats(sets=len(sets))
    seen: Dict[int, None] = {}
    for bits in sets:
        stats.bytes += sys.getsizeof(bits) + sys.getsizeof(bits.chunks)
        for chunk in bits.chunks.values():
            stats.chunk_refs += 1
            if chunk == FULL_CHUNK:
                stats.dense_chunks += 1
            key = id(chunk)
            if key not in seen:
                seen[key] = None
                stats.chunks_allocated += 1
                stats.bytes += sys.getsizeof(chunk)
            else:
                stats.chunks_shared += 1
    return stats
