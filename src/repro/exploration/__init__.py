"""The exploration tier (survey Sec. 7).

Two function families:

- **query-driven data discovery** (Sec. 7.1):
  :class:`~repro.exploration.search.ExplorationService` exposes the three
  input/output modes the survey enumerates (column-join top-k via JOSIE,
  table-population top-k via D3L, task-specific top-k via Juneau);
- **cached discovery** (``repro.exploration.parallel``):
  :class:`~repro.exploration.parallel.QueryCache` and
  :class:`~repro.exploration.parallel.EpochClock` (epoch-coherent
  memoization of discovery answers, which run on the caller's thread);
- **heterogeneous data querying** (Sec. 7.2):
  :class:`~repro.exploration.sql.SqlEngine` (SQL subset over the relational
  backend), :class:`~repro.exploration.pathquery.PathQueryEngine` (JSONiq-
  flavored document queries), :class:`~repro.exploration.keyword.KeywordSearch`
  (Constance's schema/data keyword search), and
  :class:`~repro.exploration.federation.FederatedQueryEngine`
  (Ontario/Squerall-style federation with predicate pushdown).
"""

from repro.exploration.search import ExplorationService
from repro.exploration.sql import SqlEngine
from repro.exploration.pathquery import PathQueryEngine
from repro.exploration.keyword import KeywordSearch
from repro.exploration.federation import FederatedQueryEngine, SourceProfile
from repro.exploration.parallel import (
    DiscoveryQuery,
    EpochClock,
    QueryCache,
)

__all__ = [
    "DiscoveryQuery",
    "EpochClock",
    "ExplorationService",
    "FederatedQueryEngine",
    "KeywordSearch",
    "PathQueryEngine",
    "QueryCache",
    "SourceProfile",
    "SqlEngine",
]
