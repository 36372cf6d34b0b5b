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
* ``jobs < 1`` and non-integral ``jobs`` are rejected loudly;
* a fan-out that needs one process (``jobs=1``, or at most one item)
  runs in this process, in item order, and an item's own exception
  propagates unwrapped.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

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


def _describe_default(item) -> str:
    return f"app {item.name!r}"


def _never_returned(future) -> bool:
    """Did this future end without a result because its pool broke?"""
    if not future.done() or future.cancelled():
        return True
    return isinstance(future.exception(), BrokenProcessPool)


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
    if pool_size(jobs, len(items)) == 1:
        return [fn(item, *args) for item in items]
    if describe is None:
        describe = _describe_default
    results: List[T] = [None] * len(items)  # type: ignore[list-item]
    with ProcessPoolExecutor(max_workers=pool_size(jobs, len(items))) as pool:
        futures = [
            (i, item, pool.submit(fn, item, *args))
            for i, item in enumerate(items)
        ]
        for i, item, future in futures:
            try:
                results[i] = future.result()
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
    return results
