"""Chase procedures.

Two chases, for two kinds of mapping:

- :mod:`repro.chase.standard` — the standard chase for ``glav+(wa-glav, egd)``
  mappings: tgd steps invent labelled nulls, egd steps unify values (failing
  on two distinct constants).  Produces the canonical universal solution when
  it succeeds.  Used by the naive oracle, solution-existence checks, and
  tests.
- :mod:`repro.chase.batch` — the one exchange engine: a resumable,
  set-at-a-time semi-naive evaluator for GAV rules (possibly with skolem
  terms in heads, as produced by the Theorem 1 reduction).  It computes
  the quasi-solution, the rule groundings (support sets) and the egd
  violations, both for a full exchange and for an update session's
  deltas.
"""

from repro.chase.result import ChaseResult
from repro.chase.standard import (
    canonical_universal_solution,
    has_solution,
    standard_chase,
)
from repro.chase.batch import batch_chase

__all__ = [
    "ChaseResult",
    "standard_chase",
    "canonical_universal_solution",
    "has_solution",
    "batch_chase",
]
