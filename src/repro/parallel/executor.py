"""The batch fan-out executor (one function, many items, N processes).

Extracted from ``repro.analysis.pipeline._fan_out`` so that every
pool user shares a single contract:

* results come back **in item order**, regardless of which worker
  finishes first — parallel runs are byte-identical to serial ones
  for deterministic workloads;
* a worker exception aborts the fan-out and is re-raised as a
  ``RuntimeError`` **naming the item** whose pipeline failed (chained
  to the original exception);
* a worker *process* that dies without raising — OOM-killed,
  segfaulted native code, ``os._exit`` — surfaces as the same
  item-named ``RuntimeError`` (chained to the ``BrokenProcessPool``)
  instead of the pool's bare, item-less diagnostic;
* ``jobs < 1`` and non-integral ``jobs`` are rejected loudly.

:func:`fan_out_profiled` additionally collects an
:class:`ItemProfile` per item (worker pid, wall seconds), aggregated
by :class:`FanOutProfile` into per-worker totals — the visibility
hook the scaling studies and the daemon's shard diagnostics share.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def validate_jobs(jobs: int) -> int:
    """Reject non-positive or non-integral worker counts loudly."""
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def default_jobs() -> int:
    """A sensible worker count for this machine (>= 1)."""
    return max(1, os.cpu_count() or 1)


def pool_size(jobs: int, items: int) -> int:
    """The number of processes a fan-out actually needs: never more
    than there are items, never less than one."""
    return max(1, min(jobs, items))


@dataclass
class ItemProfile:
    """One fanned-out item's execution record."""

    label: str
    pid: int
    seconds: float


@dataclass
class FanOutProfile:
    """Per-item and per-worker accounting of one fan-out."""

    label: str
    jobs: int
    items: List[ItemProfile] = field(default_factory=list)

    def by_worker(self) -> Dict[int, Tuple[int, float]]:
        """pid -> (items run, total busy seconds)."""
        totals: Dict[int, Tuple[int, float]] = {}
        for item in self.items:
            count, seconds = totals.get(item.pid, (0, 0.0))
            totals[item.pid] = (count + 1, seconds + item.seconds)
        return totals

    def busy_seconds(self) -> float:
        return sum(item.seconds for item in self.items)

    def format(self) -> str:
        lines = [f"fan-out {self.label!r}: {len(self.items)} items, "
                 f"{self.jobs} jobs requested"]
        for pid, (count, seconds) in sorted(self.by_worker().items()):
            lines.append(f"  worker pid {pid:>7}: {count} items, "
                         f"{seconds:.3f}s busy")
        return "\n".join(lines)


def _timed_call(fn: Callable[..., T], item, args: tuple):
    """Pool wrapper for the profiled path: result plus (pid, seconds)."""
    start = time.perf_counter()
    result = fn(item, *args)
    return result, os.getpid(), time.perf_counter() - start


def _describe_default(item) -> str:
    return f"app {item.name!r}"


def _never_returned(future) -> bool:
    """Did this future end without a result because its pool broke?"""
    if not future.done() or future.cancelled():
        return True
    return isinstance(future.exception(), BrokenProcessPool)


def _run(
    fn: Callable[..., T],
    items: Sequence,
    args: tuple,
    jobs: int,
    label: str,
    describe: Optional[Callable[[object], str]],
    profile: Optional[FanOutProfile],
) -> List[T]:
    if describe is None:
        describe = _describe_default
    results: List[T] = [None] * len(items)  # type: ignore[list-item]
    with ProcessPoolExecutor(max_workers=pool_size(jobs, len(items))) as pool:
        if profile is None:
            futures = [
                (i, item, pool.submit(fn, item, *args))
                for i, item in enumerate(items)
            ]
        else:
            futures = [
                (i, item, pool.submit(_timed_call, fn, item, args))
                for i, item in enumerate(items)
            ]
            profile.items = [None] * len(items)  # type: ignore[list-item]
        for i, item, future in futures:
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                # The pool cannot tell which process died, and the first
                # future to observe the breakage may be a sibling that
                # was still in flight — so name every item that never
                # returned a result; the one that died is among them.
                lost = " or ".join(
                    describe(it) for _, it, f in futures if _never_returned(f)
                )
                raise RuntimeError(
                    f"{label} worker process for {lost} died "
                    "before returning a result (killed by the operating "
                    "system — e.g. out of memory — or crashed without "
                    "raising); the remaining items were aborted. "
                    "Rerun with jobs=1 to isolate the failure."
                ) from exc
            except Exception as exc:
                raise RuntimeError(
                    f"{label} worker for {describe(item)} failed: {exc}"
                ) from exc
            if profile is None:
                results[i] = outcome
            else:
                results[i], pid, seconds = outcome
                profile.items[i] = ItemProfile(
                    label=describe(item), pid=pid, seconds=seconds
                )
    return results


def fan_out(
    fn: Callable[..., T],
    items: Sequence,
    args: tuple,
    jobs: int,
    label: str,
    describe: Optional[Callable[[object], str]] = None,
) -> List[T]:
    """Run ``fn(item, *args)`` for every item across ``jobs`` processes.

    See the module docstring for the contract.  Items default to app
    classes — ``describe`` renders the item for error messages
    (``"app 'music'"``); fan-outs over other domains (e.g. the
    per-seed exploration) pass their own.
    """
    return _run(fn, items, args, jobs, label, describe, profile=None)


def fan_out_profiled(
    fn: Callable[..., T],
    items: Sequence,
    args: tuple,
    jobs: int,
    label: str,
    describe: Optional[Callable[[object], str]] = None,
) -> Tuple[List[T], FanOutProfile]:
    """Like :func:`fan_out`, but also collect per-item worker profiles."""
    profile = FanOutProfile(label=label, jobs=jobs)
    results = _run(fn, items, args, jobs, label, describe, profile=profile)
    return results, profile
