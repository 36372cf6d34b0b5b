"""The happens-before graph and its reachability index.

Section 4.2 explains why CAFA runs offline: the atomicity and
event-queue rules depend on *future* operations and on reachability
between *past* operations, so the happens-before relation is computed
as a fixpoint over a graph rather than with vector clocks.

The graph here is a *key-node* graph.  Operations that can source or
sink a cross-task edge (begin/end, fork/join, wait/notify, send,
sendAtFront, register/perform, the IPC records — see
:data:`repro.trace.SYNC_KINDS`) become graph nodes, and so does each
task's last operation; all other operations (memory accesses, pointer
records, branches) are located purely by their task, read off the
store's task column, and their index, which within a task follows
program order.  Because a task's operations form a chain, the
reachable set of an arbitrary operation equals the reachable set of
the first key node at or after it in the same task, so ordering
queries between arbitrary operations reduce to key-node reachability
plus two bisections of the task's key-node op indices.

Reachability over key nodes is kept as one chunked sparse bitset per
node (:mod:`repro.hb.bits`) — fixed-width word chunks keyed by block
index, with chunk-level copy-on-write sharing between a node and its
successors, so the closure's memory tracks how much each node actually
reaches instead of the key-node count squared.  The *first* closure is
computed in reverse topological order and from then on the index is
maintained *incrementally*: ``add_edge(u, v)`` on a closed graph ORs
``reach[v]`` into ``reach[u]`` and propagates the gained bits backward
through predecessors with a worklist, stopping as soon as a bitset
stops changing.  The builder's fixpoint therefore pays one full
closure total instead of one per round, which is what makes it scale
(Section 4.2 reports offline analysis times of minutes to hours on
real traces; see ``docs/model.md`` for the algorithm's invariants).

Two counters make the closure work observable:
``closure_recomputations`` (full from-scratch closure builds) and
``bits_propagated`` (reachability bits newly set by incremental
propagation).  ``benchmarks/test_analysis_scaling.py`` asserts the
former stays constant across the fixpoint, and
``benchmarks/test_closure_engine.py`` bounds the closure's memory,
which :attr:`HappensBefore.profile` measures (one walk of the closure)
when it is first read.

Querying takes two bisections and one bitset probe.  An arbitrary
operation pair ``(a, b)`` reduces to the triple ``(ka, tb, hi)`` —
first key node at-or-after ``a``, ``b``'s task, ``b``'s key-prefix
length — and because :meth:`KeyGraph.add_chain` gives each task's key
nodes contiguous ids, "does ``ka`` reach one of ``tb``'s first ``hi``
key nodes" is a single chunk-level range probe.  The batched
:meth:`HappensBefore.concurrent_pairs` memoizes whole verdicts per
pair of op signatures, which makes the detector's repeated event-pair
queries dictionary lookups.  A :class:`QueryProfile` (query counts,
memo hits, per-task query structures) makes the query work
observable.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .bits import ChunkStats, SparseBits, vector_stats

if TYPE_CHECKING:
    from .builder import BuildProfile

#: LRU bound of the pair memo (entries).  At roughly 100 bytes per
#: entry this caps memo memory near 100 MB, where an unbounded memo
#: would grow with the number of *distinct* queries — unbounded in
#: trace length for the batched detectors.
DEFAULT_MEMO_CAPACITY = 1 << 20


class HBCycleError(Exception):
    """The derived happens-before relation contains a cycle.

    A cycle means the trace is inconsistent with the model (e.g. a
    hand-written trace violates the looper atomicity guarantee).  The
    offending cycle is reported as a list of operation indices.
    """

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        super().__init__(f"happens-before cycle through ops {self.cycle}")


class HBInvariantError(RuntimeError):
    """An internal consistency invariant of the reachability index broke.

    Raised instead of ``assert`` so the checks survive ``python -O``
    and fail with a descriptive message rather than a downstream
    ``TypeError``.  Seeing this exception always indicates a bug in
    :mod:`repro.hb`, never a property of the analyzed trace.
    """


@dataclass
class QueryProfile:
    """Work counters of the happens-before *query* side.

    Attached to every :class:`HappensBefore` and surfaced by
    ``repro.hb.stats`` / ``python -m repro stats``, the counters make
    the cost of ordering queries — and the effect of the range probe
    and the pair memo — observable without a profiler, the query
    counterpart of the builder's ``BuildProfile``.
    """

    #: ordering queries evaluated (``ordered()`` calls, including via
    #: ``concurrent``, and the directions a batched pair evaluated)
    queries: int = 0
    #: queries answered by a same-task position comparison
    same_task: int = 0
    #: batched pairs answered from the pair-signature memo of
    #: :meth:`HappensBefore.concurrent_pairs`
    memo_hits: int = 0
    #: cross-task lookups that had to touch the reachability bitsets
    memo_misses: int = 0
    #: pairs answered through :meth:`HappensBefore.concurrent_pairs`
    batched_pairs: int = 0
    #: tasks whose key-node range has been resolved
    mask_tasks: int = 0
    #: memory held by the resolved per-task ranges
    mask_bytes: int = 0
    #: memo entries dropped by the LRU bound
    memo_evictions: int = 0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of cross-task queries served from the memo."""
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


class KeyGraph:
    """A DAG over key operations with bitset transitive closure.

    Nodes are identified by dense integer ids; each node corresponds to
    one trace operation index.  Edges carry a provenance label (the
    name of the rule that created them) for explanation output.

    The transitive closure is computed once, by :meth:`close` or the
    first query, and maintained across ``add_node``/``add_edge`` from
    then on; each node's row is a chunked
    :class:`~repro.hb.bits.SparseBits`.
    """

    def __init__(self) -> None:
        self._op_of_node: List[int] = []
        self._node_of_op: Dict[int, int] = {}
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        self._edge_rule: Dict[Tuple[int, int], str] = {}
        self._reach: Optional[List[SparseBits]] = None
        #: a topological order of the current edge set, or None once an
        #: added node or edge may have broken it
        self._order: Optional[List[int]] = None
        #: full from-scratch transitive-closure builds performed
        self.closure_recomputations = 0
        #: reachability bits newly set by incremental edge propagation
        self.bits_propagated = 0

    # -- construction -----------------------------------------------------

    def add_node(self, op_index: int) -> int:
        """Register ``op_index`` as a key node; returns its node id."""
        existing = self._node_of_op.get(op_index)
        if existing is not None:
            return existing
        node = len(self._op_of_node)
        self._op_of_node.append(op_index)
        self._node_of_op[op_index] = node
        self._succ.append([])
        self._pred.append([])
        self._order = None
        if self._reach is not None:
            # A fresh node has no edges yet: it reaches only itself.
            self._reach.append(SparseBits.single(node))
        return node

    def add_chain(self, op_indices: Sequence[int], rule: str) -> List[int]:
        """Allocate nodes for ``op_indices`` in one uninterrupted run
        and chain consecutive ones with ``rule`` edges.

        This is how the builder allocates each task's key nodes, and it
        *guarantees* the contiguous-id invariant the sparse query
        path's range probe relies on: the returned ids are always
        ``[base, base + len)``.  Registering an op that already has a
        node would break the run, so it raises
        :class:`HBInvariantError` instead of silently deduplicating.
        """
        nodes: List[int] = []
        for op_index in op_indices:
            node = self.add_node(op_index)
            if nodes:
                if node != nodes[-1] + 1:
                    raise HBInvariantError(
                        f"add_chain got non-contiguous node id {node} after "
                        f"{nodes[-1]} (op {op_index} already registered?)"
                    )
                self.add_edge(nodes[-1], node, rule)
            nodes.append(node)
        return nodes

    def node_of(self, op_index: int) -> int:
        """Node id for a key operation index (KeyError if not a key)."""
        return self._node_of_op[op_index]

    def op_of(self, node: int) -> int:
        """Operation index of a node id."""
        return self._op_of_node[node]

    def has_node(self, op_index: int) -> bool:
        return op_index in self._node_of_op

    def add_edge(self, u: int, v: int, rule: str) -> bool:
        """Add edge ``u -> v`` between node ids; returns False if present.

        On a graph whose closure is already computed the reachability
        index is updated in place, and an edge that closes a cycle raises
        :class:`HBCycleError` immediately; on a never-closed graph cycles
        are detected by the first closure computation.
        """
        if (u, v) in self._edge_rule:
            return False
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._edge_rule[(u, v)] = rule
        self._order = None
        if self._reach is not None:
            self._propagate(u, v)
        return True

    def edge_rule(self, u: int, v: int) -> Optional[str]:
        return self._edge_rule.get((u, v))

    @property
    def node_count(self) -> int:
        return len(self._op_of_node)

    @property
    def edge_count(self) -> int:
        return len(self._edge_rule)

    def edges(self) -> Iterable[Tuple[int, int, str]]:
        """All edges as ``(u, v, rule)`` triples (node ids)."""
        for (u, v), rule in self._edge_rule.items():
            yield u, v, rule

    # -- closure -----------------------------------------------------------

    def _propagate(self, u: int, v: int) -> None:
        """Fold the new edge ``u -> v`` into the live closure.

        OR ``reach[v]`` into ``reach[u]``, then push the gained bits
        backward through predecessors with a worklist; a node is
        revisited only while its bitset actually changes, so already-
        implied edges cost one chunk-level union and nothing else.
        """
        reach = self._reach
        if reach is None:  # pragma: no cover - guarded by add_edge
            raise HBInvariantError("_propagate called without a closure")
        if reach[v].test(u):
            # v already reaches u, so u -> v closes a cycle.
            raise HBCycleError(self._find_cycle())
        count = reach[u].ior(reach[v])
        if not count:
            return
        self.bits_propagated += count
        stack = [u]
        while stack:
            x = stack.pop()
            rx = reach[x]
            for p in self._pred[x]:
                count = reach[p].ior(rx)
                if count:
                    self.bits_propagated += count
                    stack.append(p)

    def _toposort(self) -> List[int]:
        n = self.node_count
        indegree = [len(self._pred[v]) for v in range(n)]
        queue = deque(v for v in range(n) if indegree[v] == 0)
        order: List[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in self._succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        if len(order) != n:
            raise HBCycleError(self._find_cycle())
        return order

    def _find_cycle(self) -> List[int]:
        """Locate one cycle for diagnostics (iterative DFS)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * self.node_count
        parent: Dict[int, int] = {}
        for root in range(self.node_count):
            if color[root] != WHITE:
                continue
            stack = [(root, iter(self._succ[root]))]
            color[root] = GRAY
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if color[w] == WHITE:
                        color[w] = GRAY
                        parent[w] = v
                        stack.append((w, iter(self._succ[w])))
                        advanced = True
                        break
                    if color[w] == GRAY:
                        cycle = [w, v]
                        cur = v
                        while cur != w and cur in parent:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return [self._op_of_node[x] for x in cycle]
                if not advanced:
                    color[v] = BLACK
                    stack.pop()
        return []

    def _closure(self) -> List[SparseBits]:
        if self._reach is not None:
            return self._reach
        order = self.topological_order()
        n = self.node_count
        # Reverse-topological pass, seeding each node from its *widest*
        # successor via a shallow copy: the successor's chunks are
        # adopted by reference, so along the program-order chains that
        # dominate real traces a node's blocks alias its successor's
        # until a mutation diverges one.
        reach = [SparseBits()] * n
        for v in reversed(order):
            succ = self._succ[v]
            if succ:
                base = succ[0]
                if len(succ) > 1:
                    for w in succ[1:]:
                        if len(reach[w].chunks) > len(reach[base].chunks):
                            base = w
                bits = reach[base].copy()
                for w in succ:
                    if w != base:
                        bits.ior(reach[w])
            else:
                bits = SparseBits()
            bits.set(v)
            reach[v] = bits
        self._reach = reach
        self.closure_recomputations += 1
        return reach

    def close(self) -> None:
        """Force the transitive closure (and with it the cycle check).

        A no-op when the closure is already current; raises
        :class:`HBCycleError` if the graph is cyclic.
        """
        if self.node_count:
            self._closure()

    def reach_vector(self) -> List[SparseBits]:
        """The live list of per-node reach bitsets, indexed by node id.

        This is the graph's own closure storage, not a copy: entries
        change under ``add_edge``/``add_node``.  Callers must treat it
        as read-only.
        """
        return self._closure()

    def topological_order(self) -> List[int]:
        """A topological order of the node ids (raises
        :class:`HBCycleError` on a cyclic graph).  The order the first
        closure computed is reused until a node or edge is added."""
        if self._order is None:
            self._order = self._toposort()
        return self._order

    def project(self, own_bit: Dict[int, int]) -> List[int]:
        """For every node ``x``, the Python-int bitset with bit
        ``own_bit[y]`` set for each node ``y`` that ``x`` reaches
        (``x`` itself included) and that ``own_bit`` lists.

        One reverse-topological pass: a node's projection is its own
        bit ORed with its successors'.  A node with one successor and
        no own bit shares that successor's int, so program-order runs
        cost no copies.
        """
        succ = self._succ
        proj = [0] * self.node_count
        own = own_bit.get
        for v in reversed(self.topological_order()):
            ws = succ[v]
            if len(ws) == 1:
                p = proj[ws[0]]
            else:
                p = 0
                for w in ws:
                    p |= proj[w]
            bit = own(v)
            if bit is not None:
                p |= 1 << bit
            proj[v] = p
        return proj

    def reaches(self, u: int, v: int) -> bool:
        """Reflexive-transitive reachability between node ids."""
        return self._closure()[u].test(v)

    def reach_set(self, u: int) -> SparseBits:
        """The reachability bitset of node ``u`` (includes ``u``); it
        compares equal to the same big-int value and exposes
        ``bit_count()``."""
        return self._closure()[u]

    def chunk_stats(self) -> Optional[ChunkStats]:
        """Chunk-level storage accounting of the closure (its bytes
        measured sharing-aware: a chunk referenced from several block
        tables is counted once), or None when it is not yet computed."""
        if self._reach is None:
            return None
        return vector_stats(self._reach)

    def find_path(self, u: int, v: int) -> Optional[List[int]]:
        """A shortest edge path ``u -> ... -> v`` (node ids), or None."""
        if u == v:
            return [u]
        prev: Dict[int, int] = {u: u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in self._succ[x]:
                if w in prev:
                    continue
                prev[w] = x
                if w == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
        return None


class HappensBefore:
    """Queryable happens-before relation over a trace.

    Built by :func:`repro.hb.builder.build_happens_before` (and, over
    the ops streamed so far, by :meth:`repro.stream.IncrementalHB.poll`).
    Queries accept arbitrary operation indices of the underlying trace.
    """

    def __init__(
        self,
        graph: KeyGraph,
        task_ids: Sequence[int],
        task_of_id: Dict[int, str],
        task_key_ops: Dict[str, List[int]],
        task_key_nodes: Dict[str, List[int]],
        event_bounds: Dict[str, Tuple[int, int]],
        profile: BuildProfile,
    ) -> None:
        self.graph = graph
        #: the store's per-op task symbol ids, and symbol id -> task
        self._task_ids = task_ids
        self._task_of_id = task_of_id
        #: task -> the ops of its key nodes, ascending (so in program order)
        self._task_key_ops = task_key_ops
        self._task_key_nodes = task_key_nodes
        self._event_bounds = event_bounds
        #: the build's profile, its closure storage not yet measured
        self._profile = profile
        #: query-side work counters (see :class:`QueryProfile`)
        self.query_profile = QueryProfile()
        #: task -> base node id of its (contiguous) key-node id range
        #: (resolved lazily per task)
        self._task_range: Dict[str, int] = {}
        #: op -> its interned query signature, for the ops queried so far
        self._op_sig: Dict[int, int] = {}
        #: (first key node at-or-after, task, key-prefix length) -> its
        #: signature id, and the reverse list
        self._sig_of: Dict[Tuple[int, str, int], int] = {}
        self._sig_parts: List[Tuple[int, str, int]] = []
        #: (sig_a << 32 | sig_b) -> concurrent verdict, LRU-bounded
        self._pair_memo: OrderedDict[int, bool] = OrderedDict()

    @cached_property
    def profile(self) -> BuildProfile:
        """The build's phase timings and counters
        (:class:`repro.hb.builder.BuildProfile`).  The first read sizes
        the closure's storage (``closure_bytes``, ``chunks_allocated``,
        ``chunks_shared``, ``dense_chunk_ratio``) with one walk of the
        reach vector; a build that nobody asks pays no walk."""
        profile = self._profile
        stats = self.graph.chunk_stats()
        if stats is not None:
            profile.closure_bytes = stats.bytes
            profile.chunks_allocated = stats.chunks_allocated
            profile.chunks_shared = stats.chunks_shared
            profile.dense_chunk_ratio = stats.dense_chunk_ratio
        return profile

    @property
    def iterations(self) -> int:
        """Fixpoint rounds the builder needed."""
        return self._profile.rounds

    @property
    def derived_edges(self) -> int:
        """Edges contributed by the derived (fixpoint) rules."""
        return sum(self._profile.edges_per_round)

    # -- core queries -------------------------------------------------------

    def _task_of(self, op: int) -> str:
        """The task whose program order ``op`` is in."""
        return self._task_of_id[self._task_ids[op]]

    def ordered(self, a: int, b: int) -> bool:
        """Strict happens-before between operation indices: ``a < b``."""
        prof = self.query_profile
        prof.queries += 1
        ta, tb = self._task_of(a), self._task_of(b)
        if ta == tb:
            prof.same_task += 1
            return a < b
        ka = self._first_key_at_or_after(ta, a)
        if ka is None:
            return False
        hi = bisect_right(self._task_key_ops.get(tb, ()), b)
        if hi == 0:
            return False
        prof.memo_misses += 1
        return self._hit(ka, tb, hi)

    def concurrent(self, a: int, b: int) -> bool:
        """True when neither ``a < b`` nor ``b < a``."""
        return not self.ordered(a, b) and not self.ordered(b, a)

    def concurrent_pairs(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[bool]:
        """Batched :meth:`concurrent` over ``(a, b)`` operation pairs.

        The workhorse of the batched detector.  A cross-task pair's
        verdict is fully determined by the two operations' query
        signatures — the interned ``(first key node at-or-after, task,
        key-prefix length)`` triples of :meth:`_signature` — so the
        batch memoizes whole *concurrency verdicts* keyed by the
        signature pair, collapsing all operation pairs between the same
        key-node neighborhoods (for event tasks, effectively one entry
        per event pair) into a single integer-keyed dictionary probe.
        Only a pair-memo miss touches the reachability bitsets, with at
        most two range probes.  Returns verdicts in input order;
        identical to calling :meth:`concurrent` per pair.
        """
        prof = self.query_profile
        task_ids, task_of_id = self._task_ids, self._task_of_id
        op_sig, signature, sig_parts = self._op_sig, self._signature, self._sig_parts
        hit = self._hit
        pair_memo = self._pair_memo
        memo_get, move_to_end = pair_memo.get, pair_memo.move_to_end
        verdicts: List[bool] = []
        append = verdicts.append
        batched = queries = same_task = hits = misses = evictions = 0
        for a, b in pairs:
            batched += 1
            ta, tb = task_of_id[task_ids[a]], task_of_id[task_ids[b]]
            if ta == tb:
                # ordered one way unless the ops coincide
                same_task += 1
                queries += 1
                append(a == b)
                continue
            sa = op_sig.get(a)
            if sa is None:
                sa = signature(a)
            sb = op_sig.get(b)
            if sb is None:
                sb = signature(b)
            key = sa << 32 | sb
            cached = memo_get(key)
            if cached is not None:
                hits += 1
                move_to_end(key)
                append(cached)
                continue
            misses += 1
            queries += 1
            ka, _, hia = sig_parts[sa]
            kb, _, hib = sig_parts[sb]
            # ordered(a, b)
            forward = ka >= 0 and hib > 0 and hit(ka, tb, hib)
            if forward:
                cached = False
            else:
                # ordered(b, a)
                queries += 1
                if kb >= 0 and hia:
                    cached = not hit(kb, ta, hia)
                else:
                    cached = True
            pair_memo[key] = cached
            if len(pair_memo) > DEFAULT_MEMO_CAPACITY:
                pair_memo.popitem(last=False)
                evictions += 1
            append(cached)
        prof.batched_pairs += batched
        prof.queries += queries
        prof.same_task += same_task
        prof.memo_hits += hits
        prof.memo_misses += misses
        prof.memo_evictions += evictions
        return verdicts

    def event_ordered(self, e1: str, e2: str) -> bool:
        """``end(e1) < begin(e2)`` — the paper's shorthand "e1 happens-
        before e2" for whole events/tasks."""
        end1 = self._event_bounds[e1][1]
        begin2 = self._event_bounds[e2][0]
        return self.ordered(end1, begin2)

    def task_bounds(self, task: str) -> Tuple[int, int]:
        """(begin op index, end op index) of a task."""
        return self._event_bounds[task]

    def _first_key_at_or_after(self, task: str, op: int) -> Optional[int]:
        key_ops = self._task_key_ops.get(task)
        if not key_ops:
            return None
        i = bisect_left(key_ops, op)
        if i == len(key_ops):
            return None
        return self._task_key_nodes[task][i]

    def _first_reachable_key(
        self, reach: SparseBits, task: str, hi: int
    ) -> Optional[int]:
        """First of ``task``'s initial ``hi`` key nodes present in
        ``reach``, or None.

        :meth:`explain` needs the *witness node*, not just existence,
        so it scans instead of using the range probe.
        """
        nodes = self._task_key_nodes[task]
        test = reach.test
        for i in range(hi):
            if test(nodes[i]):
                return nodes[i]
        return None

    def _hit(self, ka: int, task: str, hi: int) -> bool:
        """Does node ``ka`` reach any of ``task``'s first ``hi`` key
        nodes?  The one reachability probe of the query path.

        :meth:`KeyGraph.add_chain` guarantees each task's key nodes hold
        *contiguous* node ids, so the probe is a chunk-level range test.
        A graph that breaks the contiguity invariant fails loudly in
        :meth:`_range_of` rather than being silently range-probed
        against the wrong nodes.
        """
        base = self._range_of(task)
        return self.graph.reach_set(ka).any_in_range(base, base + hi)

    def _signature(self, op: int) -> int:
        """The interned query signature of ``op``, computed by bisection
        when the op is first queried.

        Two operations are query-equivalent when they share the first
        key node at-or-after them, their task and their key-prefix
        length (the number of their task's key nodes at-or-before
        them): every ordering query involving them — in either role —
        evaluates identically.  Interning those triples gives dense
        signature ids, so the batch memoizes whole concurrency verdicts
        under a single small-int key instead of hashing tuples.
        """
        task = self._task_of(op)
        key_ops = self._task_key_ops.get(task, ())
        i = bisect_left(key_ops, op)
        if i < len(key_ops):
            hi = i + 1 if key_ops[i] == op else i
            triple = (self._task_key_nodes[task][i], task, hi)
        else:
            triple = (-1, task, i)
        sig = self._sig_of.get(triple)
        if sig is None:
            sig = self._sig_of[triple] = len(self._sig_parts)
            self._sig_parts.append(triple)
        self._op_sig[op] = sig
        return sig

    def _range_of(self, task: str) -> int:
        """Base node id of the task's contiguous key-node id range.

        The ids being contiguous — guaranteed by
        :meth:`KeyGraph.add_chain`, which allocates each task's nodes in
        one uninterrupted run — the first ``hi`` key nodes are exactly
        ``[base, base + hi)``.  Raises :class:`HBInvariantError` on a
        gap (a hand-assembled graph that interleaved ``add_node`` calls
        across tasks).  Counted in ``mask_tasks``/``mask_bytes`` as the
        per-task query structure.
        """
        base = self._task_range.get(task)
        if base is None:
            nodes = self._task_key_nodes.get(task) or ()
            base = nodes[0] if nodes else 0
            for i in range(1, len(nodes)):
                if nodes[i] != base + i:
                    raise HBInvariantError(
                        f"key nodes of task {task!r} are not contiguous "
                        f"(node {nodes[i]} at offset {i} from base {base}); "
                        "queries require chains allocated via "
                        "KeyGraph.add_chain"
                    )
            self._task_range[task] = base
            prof = self.query_profile
            prof.mask_tasks += 1
            prof.mask_bytes += sys.getsizeof(base)
        return base

    # -- explanations ---------------------------------------------------

    def explain(self, a: int, b: int) -> Optional[List[Tuple[int, str]]]:
        """Why does ``a < b`` hold?

        Returns a list of ``(op_index, rule)`` steps where ``rule`` is
        the label of the edge *into* that operation ("program-order"
        for intra-task hops), or ``None`` when ``a < b`` does not hold.
        """
        if not self.ordered(a, b):
            return None
        ta, tb = self._task_of(a), self._task_of(b)
        if ta == tb:
            return [(a, "start"), (b, "program-order")]
        ka = self._first_key_at_or_after(ta, a)
        if ka is None:
            raise HBInvariantError(
                f"ordered({a}, {b}) holds but op {a} has no key node at or "
                f"after it in task {ta!r}; the per-task key index "
                "disagrees with the reachability index"
            )
        reach = self.graph.reach_set(ka)
        hi = bisect_right(self._task_key_ops[tb], b)
        target = self._first_reachable_key(reach, tb, hi)
        if target is None:
            raise HBInvariantError(
                f"ordered({a}, {b}) holds but no key node of task {tb!r} at "
                f"or before op {b} is reachable from node {ka}; the "
                "closure bitsets are inconsistent"
            )
        path = self.graph.find_path(ka, target)
        if path is None:
            raise HBInvariantError(
                f"node {target} is in the reach set of node {ka} but no "
                "edge path connects them; the closure bitsets disagree "
                "with the edge lists"
            )
        steps: List[Tuple[int, str]] = [(a, "start")]
        prev = None
        for node in path:
            op = self.graph.op_of(node)
            if prev is None:
                rule = "program-order" if op != a else "start"
                if op != a:
                    steps.append((op, rule))
            else:
                steps.append((op, self.graph.edge_rule(prev, node) or "?"))
            prev = node
        if steps[-1][0] != b:
            steps.append((b, "program-order"))
        return steps
