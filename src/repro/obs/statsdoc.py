"""One machine-readable statistics document with stable keys.

``repro stats --json`` emits this document; CI regression checks and
``repro top`` consume the same field names (which are exactly the
profile dataclass field names — the dataclasses stay the single
source of truth, this module only arranges them into sections).

Schema (``repro-stats/1``)::

    {
      "schema": "repro-stats/1",
      "trace":  {TraceProfile fields, minus the nested decode},
      "decode": {DecodeStats fields} | null,
      "build":  {graph summary + BuildProfile fields} | null,
      "query":  {QueryProfile fields} | null,
      "stream": {StreamProfile fields} | null
    }

Every section is either present with its full field set or ``null`` —
consumers can rely on the key existing.  New fields may be appended in
later schema revisions; existing keys are never renamed.  Keys were
dropped only when the code that filled them went: two constants from
``trace`` and ``build.profile``, two fixpoint counters from
``build.profile``, the ``sampling`` section with three ``stream``
counters when the sampled detector was deleted, the ``sparse``
section with the skipped-bytes counter of ``decode`` when the
column-sparse v3 reader was deleted, and two ``query`` keys when the
relation kept one query path and one fixed memo bound (see
``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

SCHEMA = "repro-stats/1"

_SECTIONS = ("trace", "decode", "build", "query", "stream")


def _asdict(obj) -> Optional[dict]:
    if obj is None:
        return None
    return dataclasses.asdict(obj)


def stats_document(
    trace_profile=None,
    hb_stats=None,
    stream_profile=None,
) -> dict:
    """Assemble the document from whatever sections were computed.

    ``trace_profile`` is a :class:`~repro.trace.store.TraceProfile`
    (its nested decode counters become the ``decode`` section),
    ``hb_stats`` an :class:`~repro.hb.stats.HBStats` (split into
    ``build`` and ``query``) and ``stream_profile`` a
    :class:`~repro.stream.StreamProfile`.
    """
    doc = {"schema": SCHEMA}
    for section in _SECTIONS:
        doc[section] = None

    if trace_profile is not None:
        trace = _asdict(trace_profile)
        doc["decode"] = trace.pop("decode", None)
        doc["trace"] = trace

    if hb_stats is not None:
        doc["build"] = hb_stats.build_section()
        doc["query"] = _asdict(hb_stats.query_profile)

    if stream_profile is not None:
        doc["stream"] = _asdict(stream_profile)

    return doc
