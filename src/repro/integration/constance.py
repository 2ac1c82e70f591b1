"""Constance — an end-to-end intelligent data lake pipeline (Sec. 6.3 / 7.2).

"For data integration Constance first performs schema matching ... Users
can select a subset of data sources ... and the system generates an
integrated schema for partial integration.  Next, Constance generates
schema mappings ... It rewrites the input user query (against the
integrated schema) to subqueries (against source schemata), executes the
generated subqueries in the query languages of each data store, and
retrieves the subquery results.  For the final integrated results it
further resolves the data type and value conflicts while merging the
subquery results.  It also pushes down selection predicates to the data
sources to optimize query execution."

:class:`Constance` wires those stages over our polystore: matching
(:mod:`~repro.integration.matching`), integrated schema + mappings
(:mod:`~repro.integration.mapping`), per-backend subquery execution with
predicate pushdown, and conflict resolution (type unification + majority
value for duplicate keys) during merge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import Column, Dataset, Table
from repro.core.errors import DatasetNotFound, QueryError
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.core.types import coerce, infer_column_type
from repro.integration.mapping import IntegratedSchema
from repro.integration.matching import Match, SchemaMatcher
from repro.storage.polystore import Polystore
from repro.storage.relational import Predicate


@register_system(SystemInfo(
    name="Constance",
    functions=(
        Function.DATA_INTEGRATION,
        Function.METADATA_EXTRACTION,
        Function.METADATA_ENRICHMENT,
        Function.DATA_CLEANING,
        Function.HETEROGENEOUS_QUERYING,
    ),
    methods=(Method.PIPELINE, Method.POLYSTORE, Method.STRUCTURAL_ENRICHMENT),
    paper_refs=("[61]", "[62]", "[63]", "[64]", "[65]"),
    summary="End-to-end lake pipeline: schema matching, integrated schema + "
            "mappings, query rewriting to polystore subqueries with predicate "
            "pushdown, conflict resolution on merge; RFD enrichment/cleaning.",
))
class Constance:
    """Partial integration and integrated querying over a polystore."""

    def __init__(self, polystore: Optional[Polystore] = None, match_threshold: float = 0.5):
        self.polystore = polystore or Polystore()
        self.matcher = SchemaMatcher(threshold=match_threshold)
        self._schemas: Dict[str, IntegratedSchema] = {}

    # -- ingestion convenience --------------------------------------------------------

    def add_source(self, dataset: Dataset) -> None:
        """Place a raw source into the polystore."""
        self.polystore.store(dataset)

    def _source_table(self, name: str) -> Table:
        payload = self.polystore.fetch(name)
        if isinstance(payload, Table):
            return payload
        if isinstance(payload, list):
            return Table.from_records(name, payload)
        raise DatasetNotFound(f"source {name!r} has no tabular view")

    # -- integration -----------------------------------------------------------------------

    def integrate(self, source_names: Sequence[str], name: str = "integrated") -> IntegratedSchema:
        """Match + build the integrated schema over a user-selected subset."""
        tables = [self._source_table(s) for s in source_names]
        matches = self.matcher.match_many(tables)
        schema = IntegratedSchema.from_matches(tables, matches, name=name)
        self._schemas[name] = schema
        return schema

    def schema(self, name: str = "integrated") -> IntegratedSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise DatasetNotFound(f"integrated schema {name!r} does not exist") from None

    # -- integrated querying ----------------------------------------------------------------

    def query(
        self,
        columns: Sequence[str],
        predicates: Sequence[Tuple[str, str, Any]] = (),
        schema_name: str = "integrated",
        distinct: bool = False,
    ) -> Table:
        """Query the integrated schema; subqueries run inside each backend.

        Predicates are pushed down to the stores holding the source data;
        results are renamed to the integrated vocabulary, outer-unioned and
        conflict-resolved.
        """
        schema = self.schema(schema_name)
        plans = schema.rewrite(columns, predicates)
        if not plans:
            raise QueryError(f"no source can answer columns {list(columns)}")
        partials: List[Table] = []
        for source, plan in plans.items():
            partial = self._execute_subquery(source, plan)
            renamed = partial.rename(plan["rename"])  # type: ignore[arg-type]
            partials.append(renamed)
        merged = partials[0]
        for extra in partials[1:]:
            merged = merged.union_rows(extra)
        ordered = [c for c in columns if c in merged.column_names]
        result = merged.project(ordered, name=schema_name)
        result = self._resolve_conflicts(result)
        if distinct:
            result = result.distinct_rows()
        return result

    def _execute_subquery(self, source: str, plan: Mapping[str, Any]) -> Table:
        """Run one subquery in the language of the source's backend."""
        placement = self.polystore.placement(source)
        predicates = [Predicate(c, op, v) for c, op, v in plan["predicates"]]
        if placement.backend == "relational":
            return self.polystore.relational.scan(
                placement.location, predicates=predicates, columns=plan["columns"]
            )
        if placement.backend == "document":
            query = {}
            for column, op, value in plan["predicates"]:
                operators = {"=": "$eq", "!=": "$ne", ">": "$gt", ">=": "$gte",
                             "<": "$lt", "<=": "$lte", "contains": "$contains"}
                query[column] = {operators[op]: value}
            documents = self.polystore.document.find(placement.location, query or None)
            rows = [{c: d.get(c) for c in plan["columns"]} for d in documents]
            return Table.from_records(source, rows) if rows else Table(
                source, [Column(c, []) for c in plan["columns"]]
            )
        # object-store fallback: full fetch then filter in the mediator
        table = self._source_table(source)
        rows: Sequence[int] = range(len(table))
        for predicate in predicates:
            rows = predicate.select(table, rows)
        return table.take(rows).project(plan["columns"])

    @staticmethod
    def _resolve_conflicts(table: Table) -> Table:
        """Unify column types across merged sources (e.g. "7" vs 7)."""
        columns = []
        for column in table.columns:
            dtype = infer_column_type(column.values)
            columns.append(Column(column.name, [coerce(v, dtype) for v in column.values], dtype))
        return Table(table.name, columns)

    # -- incremental exploration (Sec. 7.2) --------------------------------------------------

    def browse(self) -> List[Dict[str, Any]]:
        """Source listing with description/statistics/schema (the UI's view)."""
        out = []
        for placement in self.polystore.placements():
            try:
                table = self._source_table(placement.dataset)
                entry = {
                    "source": placement.dataset,
                    "backend": placement.backend,
                    "num_rows": len(table),
                    "schema": table.column_names,
                }
            except DatasetNotFound:
                entry = {"source": placement.dataset, "backend": placement.backend}
            out.append(entry)
        return out
