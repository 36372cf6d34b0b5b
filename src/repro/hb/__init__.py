"""The event-driven causality model (Section 3) and its offline
happens-before analysis (Section 4.2)."""

from .builder import (
    BuildProfile,
    EventRecord,
    RULE_ATOMICITY,
    RULE_EXTERNAL,
    RULE_FORK,
    RULE_IPC_CALL,
    RULE_IPC_REPLY,
    RULE_JOIN,
    RULE_LISTENER,
    RULE_LOCK,
    RULE_PROGRAM_ORDER,
    RULE_QUEUE_1,
    RULE_QUEUE_2,
    RULE_QUEUE_3,
    RULE_QUEUE_4,
    RULE_SEND,
    RULE_SEND_AT_FRONT,
    RULE_SIGNAL_WAIT,
    ModelNotApplicableError,
    build_happens_before,
)
from .bits import CHUNK_BITS, ChunkStats, SparseBits, vector_stats
from .config import (
    CAFA_MODEL,
    CONVENTIONAL_MODEL,
    NO_QUEUE_MODEL,
    ModelConfig,
)
from .graph import (
    DEFAULT_MEMO_CAPACITY,
    HappensBefore,
    HBCycleError,
    HBInvariantError,
    KeyGraph,
    QueryProfile,
)
from .dot import to_dot
from .stats import HBStats, hb_stats
from .vector_clock import VectorClockAnalysis

__all__ = [
    "BuildProfile",
    "CAFA_MODEL",
    "CHUNK_BITS",
    "CONVENTIONAL_MODEL",
    "ChunkStats",
    "DEFAULT_MEMO_CAPACITY",
    "NO_QUEUE_MODEL",
    "EventRecord",
    "HBCycleError",
    "HBInvariantError",
    "HBStats",
    "HappensBefore",
    "KeyGraph",
    "ModelConfig",
    "ModelNotApplicableError",
    "QueryProfile",
    "RULE_ATOMICITY",
    "RULE_EXTERNAL",
    "RULE_FORK",
    "RULE_IPC_CALL",
    "RULE_IPC_REPLY",
    "RULE_JOIN",
    "RULE_LISTENER",
    "RULE_LOCK",
    "RULE_PROGRAM_ORDER",
    "RULE_QUEUE_1",
    "RULE_QUEUE_2",
    "RULE_QUEUE_3",
    "RULE_QUEUE_4",
    "RULE_SEND",
    "RULE_SEND_AT_FRONT",
    "RULE_SIGNAL_WAIT",
    "SparseBits",
    "VectorClockAnalysis",
    "build_happens_before",
    "hb_stats",
    "to_dot",
    "vector_stats",
]
