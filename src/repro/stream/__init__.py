"""Online streaming detection: incremental happens-before, the
record-by-record ingestion service with bounded-memory epoch GC, the
sharded multi-session daemon (router + transports), and synthetic
long-session generators (see ``docs/streaming.md``)."""

from .incremental import IncrementalHB
from .router import (
    DaemonReport,
    RouterChannel,
    SessionReport,
    SessionRouter,
)
from .service import (
    EpochSummary,
    StreamAnalyzer,
    StreamProfile,
    merge_profiles,
)
from .synthetic import SESSION_ID_STRIDE, DuplicateSessionError, concat_sessions
from .transport import (
    DEFAULT_BACKOFF_CAP,
    DEFAULT_BACKOFF_INITIAL,
    Backoff,
    SocketSource,
    tail_chunks,
)

__all__ = [
    "Backoff",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_BACKOFF_INITIAL",
    "DaemonReport",
    "DuplicateSessionError",
    "EpochSummary",
    "IncrementalHB",
    "RouterChannel",
    "SESSION_ID_STRIDE",
    "SessionReport",
    "SessionRouter",
    "SocketSource",
    "StreamAnalyzer",
    "StreamProfile",
    "concat_sessions",
    "merge_profiles",
    "tail_chunks",
]
