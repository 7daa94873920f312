"""Incremental exchange maintenance: delta-chase and live clusters.

The paper's pipeline (chase → groundings → violation clusters → envelope
→ per-signature solve) localizes inconsistency to violation clusters with
bounded support sets — which is exactly what makes *incremental*
maintenance tractable: only clusters whose support meets a delta can
change.  This package maintains a materialized
:class:`~repro.xr.exchange.ExchangeData` (and the envelope analysis,
signature-program cache, and engine built on it) under source-tuple
inserts and retracts, without re-running the exchange from scratch.

Entry points:

- :class:`UpdateSession` (via ``ExchangeData.update_session()`` or
  ``SegmentaryEngine.update_session()``) applies :class:`Delta` batches;
- :func:`parse_update_stream` / :func:`render_update_stream` read and
  write the textual ``updates.txt`` format used by
  ``repro answer --updates`` and the fuzz corpus;
- :func:`apply_delta` is the reference (from-scratch) semantics the
  differential fuzz harness compares against.
"""

from repro.incremental.chase import DeltaChaseReport, apply_delta_chase
from repro.incremental.delta import (
    Delta,
    apply_delta,
    parse_update_stream,
    render_update_stream,
)
from repro.incremental.session import SessionStats, UpdateReport, UpdateSession

__all__ = [
    "Delta",
    "DeltaChaseReport",
    "SessionStats",
    "UpdateReport",
    "UpdateSession",
    "apply_delta",
    "apply_delta_chase",
    "parse_update_stream",
    "render_update_stream",
]
