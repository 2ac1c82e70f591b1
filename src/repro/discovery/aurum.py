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
- schema similarity per *name class*, the columns that share one
  name-token vector: a class's cosines are computed once, when it first
  appears, against itself and every class sharing a token, and stored as
  EKG class links that the EKG expands to column pairs when a query reads
  them, so a repeated name costs no cosine and stores no edge;
- posting maps from name tokens to classes and from values to columns, so
  the schema and PK-FK passes probe only the pairs that can gain an edge
  (the way JOSIE probes overlap through posting lists), never every
  indexed column;
- EKG construction (:class:`~repro.modeling.ekg.EnterpriseKnowledgeGraph`)
  with ``content_sim`` and ``pkfk`` edges and ``schema_sim`` class links;
  an indexed column is one row of the LSH index's signature matrix with
  a slot number in each of its buckets, and a stored edge is one
  ``relation -> weight`` dict in the EKG's adjacency, so neither costs
  the garbage collector a container per bucket or per edge;
- incremental ``update_table`` honoring the change threshold, and
  ``remove_table``; re-adding an indexed table replaces it;
- top-k joinable-column and related-table queries.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Set, Tuple, TypeVar

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.discovery.profiles import ColumnProfile, TableProfiler
from repro.ml.lsh import LSHIndex
from repro.ml.text import cosine_similarity
from repro.modeling.ekg import ColumnRef, EnterpriseKnowledgeGraph
from repro.obs import annotate, traced


#: a name class: a column name's token counts as sorted (token, count) pairs
NameClass = Tuple[Tuple[str, int], ...]

_T = TypeVar("_T")


def _name_class(tokens: Sequence[str]) -> NameClass:
    """The name class of a column: its name-token count vector, hashable.

    Corpus-free on purpose: a schema link's cosine then depends only on
    the two names compared, never on what else is indexed — which is
    what makes :meth:`Aurum.build_delta` reproduce :meth:`Aurum.build`
    bit-for-bit regardless of how ingests are partitioned into deltas.
    ``customerId`` and ``customer_id`` share a class.  The counts are
    integers, so the cosine of two classes is exact and symmetric.
    """
    return tuple(sorted(Counter(tokens).items()))


def _unlist(postings: Dict[str, List[_T]], key: str, item: _T) -> None:
    """Remove *item* from the posting list under *key*; drop the list when empty."""
    items = postings[key]
    items.remove(item)
    if not items:
        del postings[key]


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
        if not 0.0 < schema_threshold <= 1.0:
            # the token postings prune pairs whose cosine is 0, exact only above 0
            raise ValueError(f"schema_threshold must be in (0, 1], got {schema_threshold}")
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
        # the schema pass probes the name classes in the EKG by token, and the
        # PK-FK pass the columns by value, instead of scanning every column
        self._by_token: Dict[str, List[NameClass]] = {}
        self._by_value: Dict[str, List[ColumnRef]] = {}  # lists: smaller than sets
        self._keys: Set[ColumnRef] = set()

    # -- construction -----------------------------------------------------------

    def add_table(self, table: Table) -> None:
        """Profile *table* and stage its columns for the EKG.

        Re-adding an indexed name replaces that table: its old columns,
        postings and edges are dropped first, as :meth:`remove_table` does.
        """
        self._stage(table, self.profiler.profile_table(table))

    def _stage(self, table: Table, profiles: List[ColumnProfile]) -> None:
        """Replace *table*'s indexed columns with *profiles* (its columns')."""
        self.remove_table(table.name)
        self._tables[table.name] = table
        for profile in profiles:
            ref = profile.ref
            self._profiles[ref] = profile
            self._post(profile)
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

    def _post(self, profile: ColumnProfile) -> None:
        """Index one column under its values and key status."""
        ref = profile.ref
        for value in profile.distinct:
            self._by_value.setdefault(value, []).append(ref)
        if profile.is_key_candidate:
            self._keys.add(ref)

    def _unpost(self, profile: ColumnProfile) -> None:
        """Undo :meth:`_post` for one column."""
        ref = profile.ref
        for value in profile.distinct:
            _unlist(self._by_value, value, ref)
        self._keys.discard(ref)

    @staticmethod
    def _partners(postings: Dict[str, List[ColumnRef]], terms: Iterable[str],
                  ref: ColumnRef) -> List[ColumnRef]:
        """Columns of other tables than *ref*'s posted under any of *terms*, sorted."""
        return sorted({other for term in terms for other in postings[term]
                       if other[0] != ref[0]})

    def _contained(self, foreign: ColumnRef, key: ColumnRef) -> float:
        """Share of *foreign*'s distinct values that *key* also holds."""
        values = self._profiles[foreign].distinct
        return len(values & self._profiles[key].distinct) / len(values)

    def _add_pkfk(self, key: ColumnRef, foreign: ColumnRef) -> None:
        """Add the ``pkfk`` edge when *foreign* is contained in *key*.

        The EKG edge is undirected.  When the reverse orientation qualifies
        too, the edge keeps the larger containment, so the weight does not
        depend on which orientation is probed first.
        """
        contained = self._contained(foreign, key)
        if contained < 0.8:
            return
        if foreign in self._keys:
            contained = max(contained, self._contained(key, foreign))
        self.ekg.add_relation(key, foreign, "pkfk", round(contained, 4))

    def _link(self, fresh: List[ColumnRef]) -> None:
        """Add every relation with an endpoint in *fresh* (sorted refs).

        Content candidates come from LSH.  PK-FK candidates share a value:
        containment >= 0.8 needs one.  Candidates are probed in sorted
        order, so edges are written in the order a scan over all columns
        would write them.  A pair with both endpoints fresh is counted
        once.  Schema similarity is linked per name class (:meth:`_link_class`).
        """
        fresh_set = set(fresh)
        # content-similarity edges via LSH (no all-pairs scan)
        for ref in fresh:
            profile = self._profiles[ref]
            for other, estimate in self.lsh.query(profile.minhash, exclude=ref):
                if other[0] == ref[0]:
                    continue  # intra-table joins are not discovery targets
                if other in fresh_set and not ref < other:
                    continue  # both endpoints fresh: count the pair once
                left, right = (ref, other) if ref < other else (other, ref)
                self.ekg.add_relation(left, right, "content_sim", round(estimate, 4))
        # schema similarity: a column whose class is already linked costs nothing
        for ref in fresh:
            name_class = _name_class(self._profiles[ref].name_tokens)
            if self.ekg.join_class(ref, name_class):
                self._link_class(name_class)
        # PK-FK candidate edges against columns sharing a value
        for ref in fresh:
            partners = self._partners(self._by_value, self._profiles[ref].distinct, ref)
            if ref in self._keys:
                for other in partners:
                    self._add_pkfk(ref, other)
            for other in partners:  # fresh as the foreign side against indexed keys
                if other in self._keys and other not in fresh_set:
                    self._add_pkfk(other, ref)

    def _link_class(self, name_class: NameClass) -> None:
        """Link a new class to itself and to every class sharing a token.

        Disjoint token sets have cosine 0, below any ``schema_threshold``.
        Each pair of classes is compared once, when the second appears.
        """
        vector = dict(name_class)
        for token in vector:
            self._by_token.setdefault(token, []).append(name_class)
        for other in {other for token in vector for other in self._by_token[token]}:
            similarity = cosine_similarity(vector, dict(other))
            if similarity >= self.schema_threshold:
                self.ekg.link_classes(name_class, other, "schema_sim", round(similarity, 4))

    @traced("maintenance.aurum.build", tier="maintenance", system="Aurum",
            function="related_dataset_discovery")
    def build(self) -> EnterpriseKnowledgeGraph:
        """Materialize all EKG edges from the staged profiles.

        Content edges come from LSH candidates only (the linear-complexity
        path); schema links from cosine over attribute-name token counts,
        once per pair of name classes, probed through a token posting map;
        PK-FK edges from key candidates whose values are contained in
        another column, probed through a value posting map.
        """
        if self._built:
            return self.ekg
        annotate(num_columns=len(self._profiles), num_tables=len(self._tables))
        self._link(sorted(self._profiles))
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
        every edge, only pairs with at least one *fresh* endpoint are probed,
        and of those only the candidates each pass can edge: LSH bucket
        mates, columns sharing a value, and — for a fresh column whose name
        class is new — the classes sharing a name token.  The cost per
        fresh column follows the edges it can gain, not the number of
        indexed columns, and a repeated name costs no schema work.  Every
        relation score (MinHash estimate, name-token cosine, containment)
        is a pure pairwise function of its two columns, so a sequence of
        deltas produces exactly the relations a from-scratch :meth:`build`
        would — no matter how the same ingests are partitioned into
        batches.
        """
        fresh = sorted(ref for ref in self._fresh if ref in self._profiles)
        if self._built and not fresh:
            return self.ekg
        if not fresh or len(fresh) == len(self._profiles):
            return self.build()  # nothing staged, or first build: delta == full
        annotate(num_columns=len(self._profiles), fresh_columns=len(fresh),
                 num_tables=len(self._tables))
        self._link(fresh)
        for table_name in sorted({ref[0] for ref in fresh}):
            self.ekg.group_table(table_name)
        self._fresh.clear()
        self._built = True
        return self.ekg

    # -- incremental maintenance --------------------------------------------------

    def update_table(self, table: Table) -> bool:
        """Refresh a changed table; returns True when the table was re-indexed.

        Honors Aurum's change threshold: when every column's new value set
        is within ``change_threshold`` Jaccard distance of the old one (by
        MinHash), the existing profiles are kept and no index changes.
        Otherwise the new profiles replace the table's (its old columns
        dropped), and :meth:`build_delta` re-derives only the relations
        touching it.  The table is profiled once either way.
        """
        profiles = self.profiler.profile_table(table)
        if table.name in self._tables and set(table.column_names) == {
                column for _, column in self.ekg.columns(table.name)}:
            if all(1.0 - self._profiles[profile.ref].minhash.jaccard(profile.minhash)
                   <= self.change_threshold for profile in profiles):
                return False
        self._stage(table, profiles)
        self.build_delta()
        return True

    def remove_table(self, name: str) -> bool:
        """Drop table *name*'s columns, postings and EKG nodes and edges.

        Returns True when the table was indexed.  Every remaining relation
        is a pure pairwise function of its two columns, so the EKG left
        behind is the one a build without the table would produce; a name
        class that loses its last column goes with its links.
        """
        if name not in self._tables:
            return False
        for ref in self.ekg.columns(name):
            self._unpost(self._profiles.pop(ref))
            self._fresh.discard(ref)
            self.lsh.remove(ref)
            dropped = self.ekg.remove_column(*ref)
            if dropped is not None:
                for token, _ in dropped:
                    _unlist(self._by_token, token, dropped)
        del self._tables[name]
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
        """Top-k tables related to *table*, aggregating edge weights.

        A table's score sums the neighbour weights of *table*'s columns
        that fall in it, added per table in ``neighbors`` order
        (:meth:`~repro.modeling.ekg.EnterpriseKnowledgeGraph.table_weights`);
        ties go by name.
        """
        self.build()
        ranked = sorted(self.ekg.table_weights(table).items(), key=itemgetter(0))
        ranked.sort(key=itemgetter(1), reverse=True)  # stable: ties stay by name
        return ranked[:k]

    def table_names(self) -> List[str]:
        """Sorted names of the indexed tables."""
        return sorted(self._tables)

    def pkfk_candidates(self) -> List[Tuple[ColumnRef, ColumnRef, float]]:
        """All detected PK-FK candidate pairs (key, foreign, containment).

        A ``pkfk`` edge is undirected, so each of its orientations is
        checked against the stored profiles: one is reported when its key
        is a key candidate and holds at least 0.8 of the foreign column's
        values, with that orientation's own containment.
        """
        self.build()
        out = []
        for key in self.ekg.columns():
            if key not in self._keys:
                continue
            for foreign, _ in self.ekg.neighbors(key, relation="pkfk"):
                contained = self._contained(foreign, key)
                if contained >= 0.8:
                    out.append((key, foreign, round(contained, 4)))
        return sorted(out, key=lambda item: (-item[2], item[0], item[1]))

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
