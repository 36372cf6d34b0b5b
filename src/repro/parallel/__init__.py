"""Process-parallel execution, shared by every multi-process layer.

Before this package existed the multi-process machinery was
fragmented: the batch fan-out lived in ``repro.analysis.pipeline``
(``_fan_out``), the scaling matrix had its own pool plumbing, and the
streaming service had none.  ``repro.parallel`` is the one home for
all of it:

* :func:`fan_out` — run one picklable function over a sequence of
  items across worker processes, with deterministic item-order
  results and item-named worker errors (both raised exceptions and
  silent process deaths).  Every batch caller
  (``reproduce_table1``, ``reproduce_figure8``, ``explore_seeds``,
  ``generate_report``, ``scaling_matrix``) runs on it.
* :class:`ShardRing` — deterministic consistent hashing of string
  keys (session ids) onto shard indexes, stable across processes and
  interpreter runs.
* :class:`Worker` / :class:`WorkerPool` — *long-running* worker
  processes with bounded inboxes (backpressure), graceful drain, and
  the same named-death diagnostics as the batch pool.  The sharded
  streaming daemon (``repro.stream.router``) runs on it.
"""

from .executor import (
    default_jobs,
    fan_out,
    pool_size,
    validate_jobs,
)
from .ring import ShardRing
from .workers import (
    DEFAULT_QUEUE_SIZE,
    DEFAULT_TELEMETRY_INTERVAL,
    Worker,
    WorkerCrash,
    WorkerPool,
    WorkerProfile,
)

__all__ = [
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_TELEMETRY_INTERVAL",
    "ShardRing",
    "Worker",
    "WorkerCrash",
    "WorkerPool",
    "WorkerProfile",
    "default_jobs",
    "fan_out",
    "pool_size",
    "validate_jobs",
]
