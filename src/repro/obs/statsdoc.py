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
      "stream": {StreamProfile fields} | null,
      "sparse": {column-sparse scan DecodeStats fields} | null,
      "sampling": {SampleProfile fields} | null
    }

Every section is either present with its full field set or ``null`` —
consumers can rely on the key existing.  New fields may be appended in
later schema revisions; existing keys are never renamed.  Two keys
that had become constants were dropped from the ``trace`` and
``build.profile`` sections (see ``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

SCHEMA = "repro-stats/1"

_SECTIONS = ("trace", "decode", "build", "query", "stream", "sparse", "sampling")


def _asdict(obj) -> Optional[dict]:
    if obj is None:
        return None
    return dataclasses.asdict(obj)


def stats_document(
    trace_profile=None,
    hb_stats=None,
    stream_profile=None,
    sparse_stats=None,
    sample_profile=None,
) -> dict:
    """Assemble the document from whatever sections were computed.

    ``trace_profile`` is a :class:`~repro.trace.store.TraceProfile`
    (its nested decode counters become the ``decode`` section),
    ``hb_stats`` an :class:`~repro.hb.stats.HBStats` (split into
    ``build`` and ``query``), ``stream_profile`` a
    :class:`~repro.stream.StreamProfile`, ``sparse_stats`` the
    :class:`~repro.trace.store.DecodeStats` of a column-sparse scan,
    and ``sample_profile`` a
    :class:`~repro.detect.sampling.SampleProfile` (the ``sampling``
    section: budget, pairs sampled/screened/queried, flagged verdict).
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

    if sparse_stats is not None:
        doc["sparse"] = _asdict(sparse_stats)

    if sample_profile is not None:
        doc["sampling"] = _asdict(sample_profile)

    return doc
