"""Aurum — data discovery via signatures, LSH and a knowledge graph (Sec. 6.2.1).

Aurum "first profiles each table column by adding signatures ... then, it
indexes these signatures using locality-sensitive hashing (LSH).  When two
columns have their signatures indexed into the same bucket after hashing,
an edge is created between corresponding nodes, and their similarity score
is stored as the edge weight.  Aurum also detects primary-foreign key
relationships ... instead of conducting an all-pair comparison of O(n²)
complexity ... by using approximate nearest neighbor search, it reduces to
linear complexity.  When changes occur in the data ... only if the
difference compared to the original values is above a threshold, it updates
column signatures and the hypergraph."

Implemented here:

- profiling via :class:`~repro.discovery.profiles.TableProfiler`;
- an :class:`~repro.ml.lsh.LSHIndex` over MinHash signatures (content) plus
  cosine over name-token counts for attribute names (schema similarity) —
  deliberately corpus-free, so every edge score is a pure pairwise
  function of its two columns and incremental deltas reproduce a
  from-scratch build exactly, however ingests are batched;
- EKG construction (:class:`~repro.modeling.ekg.EnterpriseKnowledgeGraph`)
  with ``content_sim``, ``schema_sim`` and ``pkfk`` edges;
- incremental ``update_table`` honoring the change threshold;
- top-k joinable-column and related-table queries.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.discovery.profiles import ColumnProfile, TableProfiler
from repro.ml.lsh import LSHIndex
from repro.ml.text import cosine_similarity
from repro.modeling.ekg import ColumnRef, EnterpriseKnowledgeGraph
from repro.obs import annotate, traced


def _name_vector(tokens: Sequence[str]) -> Dict[str, float]:
    """Sparse term-frequency vector of a column's name tokens.

    Corpus-free on purpose: a schema edge's cosine then depends only on
    the two names compared, never on what else is indexed — which is
    what makes :meth:`Aurum.build_delta` reproduce :meth:`Aurum.build`
    bit-for-bit regardless of how ingests are partitioned into deltas.
    """
    return dict(Counter(tokens))


@register_system(SystemInfo(
    name="Aurum",
    functions=(
        Function.RELATED_DATASET_DISCOVERY,
        Function.METADATA_MODELING,
        Function.QUERY_DRIVEN_DISCOVERY,
    ),
    methods=(Method.JOINABLE, Method.GRAPH_MODEL),
    paper_refs=("[48]",),
    summary="Column signatures (MinHash, TF-IDF) indexed with LSH; EKG hypergraph "
            "with content/schema/PK-FK edges; linear-time discovery; incremental "
            "updates above a change threshold.",
    relatedness_criteria=("Instance value overlap", "Attribute name", "PK-FK candidate"),
    similarity_metrics=("Jaccard similarity (MinHash)", "Cosine similarity (TF-IDF)"),
    technique="Hypergraph",
))
class Aurum:
    """Signature-based discovery engine building an enterprise knowledge graph."""

    def __init__(
        self,
        content_threshold: float = 0.5,
        schema_threshold: float = 0.6,
        change_threshold: float = 0.1,
        num_perm: int = 128,
    ):
        self.content_threshold = content_threshold
        self.schema_threshold = schema_threshold
        self.change_threshold = change_threshold
        self.profiler = TableProfiler(num_perm=num_perm)
        self.lsh = LSHIndex(num_perm=num_perm, threshold=content_threshold)
        self.ekg = EnterpriseKnowledgeGraph()
        self._profiles: Dict[ColumnRef, ColumnProfile] = {}
        self._tables: Dict[str, Table] = {}
        self._built = False
        self._fresh: set = set()  # refs staged since the last (full or delta) build

    # -- construction -----------------------------------------------------------

    def add_table(self, table: Table) -> None:
        """Profile *table* and stage its columns for the EKG."""
        self._tables[table.name] = table
        for profile in self.profiler.profile_table(table):
            ref = profile.ref
            self._profiles[ref] = profile
            self._fresh.add(ref)
            self.lsh.add(ref, profile.minhash)
            sample = sorted(profile.distinct)[:20]
            self.ekg.add_column(
                table.name, profile.column,
                dtype=profile.dtype.value,
                uniqueness=round(profile.uniqueness, 4),
                sample=tuple(sample),
            )
        self._built = False

    @traced("maintenance.aurum.build", tier="maintenance", system="Aurum",
            function="related_dataset_discovery")
    def build(self) -> EnterpriseKnowledgeGraph:
        """Materialize all EKG edges from the staged profiles.

        Content edges come from LSH candidates only (the linear-complexity
        path); schema edges from cosine over attribute-name token counts;
        PK-FK edges from key candidates whose values are contained in
        another column.
        """
        if self._built:
            return self.ekg
        refs = sorted(self._profiles)
        annotate(num_columns=len(refs), num_tables=len(self._tables))
        # content-similarity edges via LSH (no all-pairs scan)
        for ref in refs:
            profile = self._profiles[ref]
            for other, estimate in self.lsh.query(profile.minhash, exclude=ref):
                if other[0] == ref[0]:
                    continue  # intra-table joins are not discovery targets
                if ref < other:
                    self.ekg.add_relation(ref, other, "content_sim", round(estimate, 4))
        # schema-similarity edges via cosine over name-token counts
        vectors = {ref: _name_vector(self._profiles[ref].name_tokens)
                   for ref in refs}
        for i in range(len(refs)):
            for j in range(i + 1, len(refs)):
                if refs[i][0] == refs[j][0]:
                    continue
                similarity = cosine_similarity(vectors[refs[i]], vectors[refs[j]])
                if similarity >= self.schema_threshold:
                    self.ekg.add_relation(refs[i], refs[j], "schema_sim", round(similarity, 4))
        # PK-FK candidate edges
        for left in refs:
            key = self._profiles[left]
            if not key.is_key_candidate:
                continue
            for right in refs:
                if right == left or right[0] == left[0]:
                    continue
                foreign = self._profiles[right]
                if not foreign.distinct:
                    continue
                contained = len(foreign.distinct & key.distinct) / len(foreign.distinct)
                if contained >= 0.8:
                    self.ekg.add_relation(left, right, "pkfk", round(contained, 4))
        for table_name in sorted(self._tables):
            self.ekg.group_table(table_name)
        self._fresh.clear()
        self._built = True
        return self.ekg

    @traced("maintenance.aurum.build_delta", tier="maintenance", system="Aurum",
            function="related_dataset_discovery")
    def build_delta(self) -> EnterpriseKnowledgeGraph:
        """Materialize edges for columns staged since the last build only.

        The incremental counterpart of :meth:`build`: instead of re-deriving
        every edge, only pairs with at least one *fresh* endpoint are probed
        — O(fresh x indexed) instead of O(indexed²), which is what makes
        sustained ingest+query interleaving linear per step.  Every edge
        score (MinHash estimate, name-token cosine, containment) is a pure
        pairwise function of its two columns, so a sequence of deltas
        produces exactly the edges a from-scratch :meth:`build` would —
        no matter how the same ingests are partitioned into batches.
        """
        fresh = sorted(ref for ref in self._fresh if ref in self._profiles)
        if self._built and not fresh:
            return self.ekg
        if not fresh or len(fresh) == len(self._profiles):
            return self.build()  # nothing staged, or first build: delta == full
        refs = sorted(self._profiles)
        fresh_set = set(fresh)
        annotate(num_columns=len(refs), fresh_columns=len(fresh),
                 num_tables=len(self._tables))
        # content-similarity edges: LSH probes for fresh refs only
        for ref in fresh:
            profile = self._profiles[ref]
            for other, estimate in self.lsh.query(profile.minhash, exclude=ref):
                if other[0] == ref[0]:
                    continue
                if other in fresh_set and not ref < other:
                    continue  # both endpoints fresh: count the pair once
                left, right = (ref, other) if ref < other else (other, ref)
                self.ekg.add_relation(left, right, "content_sim", round(estimate, 4))
        # schema-similarity edges: fresh x all, pairwise name-token cosine
        vectors = {ref: _name_vector(self._profiles[ref].name_tokens)
                   for ref in refs}
        for ref in fresh:
            for other in refs:
                if other == ref or other[0] == ref[0]:
                    continue
                if other in fresh_set and not ref < other:
                    continue
                similarity = cosine_similarity(vectors[ref], vectors[other])
                if similarity >= self.schema_threshold:
                    left, right = (ref, other) if ref < other else (other, ref)
                    self.ekg.add_relation(left, right, "schema_sim", round(similarity, 4))
        # PK-FK candidate edges touching at least one fresh column
        for ref in fresh:
            key = self._profiles[ref]
            if key.is_key_candidate:
                for other in refs:
                    if other == ref or other[0] == ref[0]:
                        continue
                    foreign = self._profiles[other]
                    if not foreign.distinct:
                        continue
                    contained = len(foreign.distinct & key.distinct) / len(foreign.distinct)
                    if contained >= 0.8:
                        self.ekg.add_relation(ref, other, "pkfk", round(contained, 4))
            if not key.distinct:
                continue
            for other in refs:  # fresh as the foreign side against existing keys
                if other in fresh_set or other[0] == ref[0]:
                    continue
                candidate = self._profiles[other]
                if not candidate.is_key_candidate:
                    continue
                contained = len(key.distinct & candidate.distinct) / len(key.distinct)
                if contained >= 0.8:
                    self.ekg.add_relation(other, ref, "pkfk", round(contained, 4))
        for table_name in sorted({ref[0] for ref in fresh}):
            self.ekg.group_table(table_name)
        self._fresh.clear()
        self._built = True
        return self.ekg

    # -- incremental maintenance --------------------------------------------------

    def update_table(self, table: Table) -> bool:
        """Refresh a changed table; returns True when the table was re-indexed.

        Honors Aurum's change threshold: when every column's new value set
        is within ``change_threshold`` Jaccard distance of the old one, the
        existing signatures are kept and no work is done.  Otherwise the
        table's columns are restaged and :meth:`build_delta` re-derives
        only the edges touching them (fresh x indexed, not all x all).
        """
        if table.name not in self._tables:
            self.add_table(table)
            self.build_delta()
            return True
        significant = False
        for column in table.columns:
            ref = (table.name, column.name)
            old = self._profiles.get(ref)
            if old is None:
                significant = True
                break
            new_signature = self.profiler.hasher.signature(column.distinct())
            if 1.0 - old.minhash.jaccard(new_signature) > self.change_threshold:
                significant = True
                break
        if not significant and set(table.column_names) == {
            ref[1] for ref in self._profiles if ref[0] == table.name
        }:
            return False
        for ref in [r for r in self._profiles if r[0] == table.name]:
            del self._profiles[ref]
            self._fresh.discard(ref)
            self.lsh.remove(ref)
            self.ekg.remove_column(*ref)
        self._tables.pop(table.name)
        self.add_table(table)
        self.build_delta()
        return True

    # -- queries ----------------------------------------------------------------------

    def _require(self, table: str, column: str) -> ColumnProfile:
        ref = (table, column)
        profile = self._profiles.get(ref)
        if profile is None:
            raise DatasetNotFound(f"column {table}.{column} is not indexed")
        return profile

    @traced("exploration.aurum.joinable", tier="exploration", system="Aurum",
            function="query_driven_discovery")
    def joinable(self, table: str, column: str, k: int = 5) -> List[Tuple[ColumnRef, float]]:
        """Top-k columns joinable with ``table.column`` (content similarity)."""
        self.build()
        profile = self._require(table, column)
        hits = [
            (ref, weight)
            for ref, weight in self.ekg.neighbors(profile.ref, relation="content_sim")
            if ref[0] != table
        ]
        return hits[:k]

    @traced("exploration.aurum.related_tables", tier="exploration", system="Aurum",
            function="query_driven_discovery")
    def related_tables(self, table: str, k: int = 5) -> List[Tuple[str, float]]:
        """Top-k tables related to *table*, aggregating edge weights."""
        self.build()
        scores: Dict[str, float] = {}
        for ref in self.ekg.columns(table):
            for neighbor, weight in self.ekg.neighbors(ref):
                if neighbor[0] != table:
                    scores[neighbor[0]] = scores.get(neighbor[0], 0.0) + weight
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:k]

    def table_names(self) -> List[str]:
        """Sorted names of the indexed tables."""
        return sorted(self._tables)

    def pkfk_candidates(self) -> List[Tuple[ColumnRef, ColumnRef, float]]:
        """All detected PK-FK candidate pairs (key, foreign, containment)."""
        self.build()
        out = []
        for key_ref in self.ekg.columns():
            for other, weight in self.ekg.neighbors(key_ref, relation="pkfk"):
                out.append((key_ref, other, weight))
        # each edge appears from both endpoints; keep the key-side orientation
        deduped = {
            (key, other): weight
            for key, other, weight in out
            if self._profiles[key].is_key_candidate
        }
        return sorted(
            [(k, o, w) for (k, o), w in deduped.items()],
            key=lambda item: (-item[2], item[0], item[1]),
        )

    # -- baseline for the scaling benchmark ----------------------------------------------

    def all_pairs_content_edges(self) -> List[Tuple[ColumnRef, ColumnRef, float]]:
        """O(n²) exact-Jaccard edge computation (the pre-Aurum baseline).

        Exists so benchmarks can demonstrate the survey's claim that LSH
        probing replaces quadratic all-pairs comparison.
        """
        refs = sorted(self._profiles)
        out = []
        for i in range(len(refs)):
            left = self._profiles[refs[i]]
            for j in range(i + 1, len(refs)):
                right = self._profiles[refs[j]]
                if refs[i][0] == refs[j][0]:
                    continue
                union = left.distinct | right.distinct
                if not union:
                    continue
                similarity = len(left.distinct & right.distinct) / len(union)
                if similarity >= self.content_threshold:
                    out.append((refs[i], refs[j], similarity))
        return out
