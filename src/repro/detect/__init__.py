"""Race detection (Section 4): the CAFA use-free detector with its two
pruning heuristics, plus the conventional and low-level baselines."""

from .accesses import (
    AccessExtractor,
    AccessIndex,
    Guard,
    PointerWrite,
    Use,
    extract_accesses,
)
from .heuristics import (
    branch_safe_region,
    free_has_intra_event_realloc,
    use_has_intra_event_alloc,
    use_is_guarded,
)
from .lowlevel import (
    LowLevelDetector,
    LowLevelResult,
    detect_low_level_races,
)
from .report import (
    ExpectedRace,
    MemoryRace,
    RaceClass,
    RaceReport,
    RaceSiteKey,
    UseFreeRace,
    Verdict,
)
from .usefree import (
    DetectionResult,
    DetectorOptions,
    UseFreeDetector,
    detect_use_free_races,
)

__all__ = [
    "AccessExtractor",
    "AccessIndex",
    "DetectionResult",
    "DetectorOptions",
    "ExpectedRace",
    "Guard",
    "LowLevelDetector",
    "LowLevelResult",
    "MemoryRace",
    "PointerWrite",
    "RaceClass",
    "RaceReport",
    "RaceSiteKey",
    "Use",
    "UseFreeDetector",
    "UseFreeRace",
    "Verdict",
    "branch_safe_region",
    "detect_low_level_races",
    "detect_use_free_races",
    "extract_accesses",
    "free_has_intra_event_realloc",
    "use_has_intra_event_alloc",
    "use_is_guarded",
]
