"""The two false-positive pruning heuristics of Section 4.3.

Both heuristics recognize programming patterns that make two events
containing a use-free race *commutative*, and both apply **only** when
the use and the free execute in events processed by the same looper
thread — between events of one looper the whole event is atomic, so a
guard checked at the start of the region cannot be invalidated
mid-event; across threads it could.

**If-guard** — a use is safe when a logged branch certifies the same
pointer non-null and the dereference lies in the branch's safe region
(Figure 6).  For a branch at ``pc`` jumping to ``target``:

* ``if-eqz`` forward, not taken: safe region ``[pc+1, target)``;
* ``if-eqz`` backward, not taken: safe region ``[pc+1, end)``;
* ``if-nez``/``if-eq`` forward, taken: safe region ``[target, end)``;
* ``if-nez``/``if-eq`` backward, taken: safe region ``[target, pc)``.

**Intra-event-allocation** — a free is invisible outside its event when
the same event later re-allocates the slot; a use cannot observe an
outside free when its own event allocated the slot before it.
"""

from __future__ import annotations

import sys
from typing import Tuple

from ..trace import BranchKind
from .accesses import AccessIndex, PointerWrite, Use

_END_OF_METHOD = sys.maxsize


def branch_safe_region(kind: BranchKind, pc: int, target: int) -> Tuple[int, int]:
    """The half-open pc interval a logged branch certifies non-null."""
    if kind is BranchKind.IF_EQZ:
        if target > pc:
            return (pc + 1, target)
        return (pc + 1, _END_OF_METHOD)
    # if-nez and if-eq give the same guarantee (Section 5.3).
    if target > pc:
        return (target, _END_OF_METHOD)
    return (target, pc)


def use_is_guarded(index: AccessIndex, use: Use) -> bool:
    """The if-guard check: is every dereference of this use covered by
    an earlier same-task branch on the same pointer whose safe region
    contains the dereference (or the read itself)?"""
    candidate_guards = [
        g
        for g in index.guards
        if g.task == use.task and g.address == use.address and g.method == use.method
    ]
    if not candidate_guards:
        return False
    store = index.trace.store
    for deref_index in use.deref_indices:
        deref_pc = store.field_of(deref_index, "pc", -1)
        covered = False
        for guard in candidate_guards:
            if guard.index > deref_index:
                continue  # the guard must execute before the dereference
            lo, hi = branch_safe_region(
                store.field_of(guard.index, "branch_kind"), guard.pc, guard.target
            )
            if lo <= deref_pc < hi or lo <= use.read_pc < hi:
                covered = True
                break
        if not covered:
            return False
    return True


def free_has_intra_event_realloc(index: AccessIndex, free: PointerWrite) -> bool:
    """Is there an allocation of the same slot after the free, within
    the same event?  Then the null never escapes the event."""
    return any(
        alloc.task == free.task
        and alloc.address == free.address
        and alloc.index > free.index
        for alloc in index.allocs
    )


def use_has_intra_event_alloc(index: AccessIndex, use: Use) -> bool:
    """Is there an allocation of the same slot before the use, within
    the same event?  Then the use cannot observe an outside free."""
    return any(
        alloc.task == use.task
        and alloc.address == use.address
        and alloc.index < use.read_index
        for alloc in index.allocs
    )
