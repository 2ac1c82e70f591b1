"""Aurum's Enterprise Knowledge Graph (EKG) — Sec. 5.2.3 / 6.2.1.

"An EKG is a hypergraph with three elements: nodes, weighted edges, and
hyperedges.  Nodes represent dataset attributes, which are connected by
edges when there is a relationship among them; hyperedges represent
different granularities among arbitrary numbers of nodes, e.g., connecting
attributes and tables."

This module provides the hypergraph data structure plus the discovery-
primitive query language of Sec. 7.1: keyword search over schemata and
values, neighbor expansion by relation type, and discovery *path* queries
accelerated by precomputed adjacency (Aurum's "graph index").

Relations between columns live in two places:

- *stored edges*, one per related column pair, for relations scored per
  pair (Aurum's ``content_sim`` and ``pkfk``).  They live in a plain
  adjacency dict, ``node -> {neighbour: relations}``, whose two
  directions share one ``relation -> weight`` dict; a dict of only
  strings and floats is not tracked by the garbage collector, so a
  stored edge costs it nothing;
- *name classes*, the columns that share one name key (a hyperedge in
  the survey's sense, kept apart from :meth:`hyperedges`), and weighted
  *class links* between classes (Aurum's ``schema_sim``).  A link
  between classes A and B relates every column of A to every column of
  B in another table; a column joins its class with one dict insert,
  and no per-pair edge is stored.

Every read (``neighbors``, ``table_weights``, ``relations_between``,
``paths``, ``num_edges``) merges the two, so a column's neighbours are
the same as if each class link were stored as one edge per column pair.

A table's hyperedge (:meth:`EnterpriseKnowledgeGraph.group_table`) is
kept under its label, so replacing it, or dropping it with one of its
columns, costs one dict operation however many tables there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator,
                    List, Optional, Set, Tuple)


#: a node in the EKG is one table column, addressed as (table, column)
ColumnRef = Tuple[str, str]

_UNCLASSED = object()  # the class of a column in no name class


@dataclass(frozen=True)
class HyperEdge:
    """A hyperedge grouping arbitrarily many nodes under one label."""

    label: str
    members: FrozenSet[ColumnRef]


class EnterpriseKnowledgeGraph:
    """Hypergraph of attribute nodes, weighted relation edges, hyperedges."""

    def __init__(self) -> None:
        # stored edges: node -> neighbour -> relation -> weight; both
        # directions of an edge share its relations dict
        self._adj: Dict[ColumnRef, Dict[ColumnRef, Dict[str, float]]] = {}
        self._attributes: Dict[ColumnRef, Dict[str, Any]] = {}
        self._num_stored = 0  # stored column pairs, a self-loop counting once
        # in creation order: a table's hyperedge under its label, any
        # other under a serial number (those are listed in _added)
        self._hyperedges: Dict[Hashable, HyperEdge] = {}
        self._added: Set[int] = set()
        self._serials = count()
        self._by_table: Dict[str, Set[ColumnRef]] = {}
        self._class_of: Dict[ColumnRef, Hashable] = {}
        self._classes: Dict[Hashable, Set[ColumnRef]] = {}
        # class -> linked class -> relation -> weight, stored both ways
        self._links: Dict[Hashable, Dict[Hashable, Dict[str, float]]] = {}

    # -- construction --------------------------------------------------------------

    def add_column(self, table: str, column: str, **attributes: Any) -> ColumnRef:
        """Add the node (table, column); a known one keeps its edges and
        has *attributes* merged into its own."""
        node: ColumnRef = (table, column)
        if node in self._adj:
            self._attributes[node].update(attributes)
        else:
            self._adj[node] = {}
            self._attributes[node] = attributes
        self._by_table.setdefault(table, set()).add(node)
        return node

    def add_relation(
        self,
        left: ColumnRef,
        right: ColumnRef,
        relation: str,
        weight: float,
    ) -> None:
        """Add/update a weighted relation edge; multiple relations stack.

        Edge data maps relation name -> weight, so one column pair can be
        simultaneously content-similar and schema-similar.
        """
        adjacent, other = self._adj.get(left), self._adj.get(right)
        if adjacent is None or other is None:
            raise KeyError(f"both {left} and {right} must be EKG nodes")
        relations = adjacent.get(right)
        if relations is None:
            relations = adjacent[right] = other[left] = {}
            self._num_stored += 1
        relations[relation] = weight

    def join_class(self, node: ColumnRef, name_class: Hashable) -> bool:
        """Put *node* in *name_class*; True when that creates the class.

        A column belongs to one class; joining the same one again is a
        no-op.  A new class has no links until :meth:`link_classes` adds
        them.
        """
        if node not in self._adj:
            raise KeyError(f"{node} must be an EKG node")
        current = self._class_of.get(node)
        if current is not None:
            if current != name_class:
                raise ValueError(f"{node} is already in class {current!r}")
            return False
        self._class_of[node] = name_class
        members = self._classes.get(name_class)
        if members is None:
            self._classes[name_class] = {node}
            self._links[name_class] = {}
            return True
        members.add(node)
        return False

    def link_classes(self, left: Hashable, right: Hashable, relation: str,
                     weight: float) -> None:
        """Relate every column of class *left* to every column of *right*
        in another table (*left* may equal *right*)."""
        if left not in self._classes or right not in self._classes:
            raise KeyError(f"both {left!r} and {right!r} must be name classes")
        relations = self._links[left].setdefault(right, {})
        self._links[right][left] = relations
        relations[relation] = weight

    def remove_column(self, table: str, column: str) -> Optional[Hashable]:
        """Drop a column with its edges; returns its class if that emptied it.

        A class whose last column goes is dropped with its links.
        """
        node = (table, column)
        adjacent = self._adj.pop(node, None)
        if adjacent is not None:
            del self._attributes[node]
            for other in adjacent:
                if other != node:
                    del self._adj[other][node]
            self._num_stored -= len(adjacent)
        members = self._by_table.get(table)
        if members is not None:
            members.discard(node)
            if not members:
                del self._by_table[table]
        label = f"table:{table}"  # the one table hyperedge that can hold node
        grouped = self._hyperedges.get(label)
        if grouped is not None and node in grouped.members:
            del self._hyperedges[label]
        self._drop_added(lambda hyperedge: node in hyperedge.members)
        name_class = self._class_of.pop(node, None)
        if name_class is None:
            return None
        members = self._classes[name_class]
        members.discard(node)
        if members:
            return None
        del self._classes[name_class]
        for linked in self._links.pop(name_class):
            if linked != name_class:
                del self._links[linked][name_class]
        return name_class

    def add_hyperedge(self, label: str, members: Iterable[ColumnRef]) -> HyperEdge:
        hyperedge = HyperEdge(label, frozenset(members))
        serial = next(self._serials)
        self._hyperedges[serial] = hyperedge
        self._added.add(serial)
        return hyperedge

    def _drop_added(self, doomed: Callable[[HyperEdge], bool]) -> None:
        """Drop the :meth:`add_hyperedge` hyperedges *doomed* picks (Aurum
        adds none, so this scans nothing on its path)."""
        for serial in [s for s in self._added if doomed(self._hyperedges[s])]:
            self._added.remove(serial)
            del self._hyperedges[serial]

    def group_table(self, table: str) -> HyperEdge:
        """Hyperedge connecting all attributes of *table* (table granularity).

        Replaces any earlier hyperedge for the same table, so rebuilding
        or re-grouping a table never accumulates duplicates.
        """
        label = f"table:{table}"
        self._hyperedges.pop(label, None)
        self._drop_added(lambda hyperedge: hyperedge.label == label)
        hyperedge = self._hyperedges[label] = HyperEdge(
            label, frozenset(self._by_table.get(table, ())))
        return hyperedge

    # -- structure access -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Related column pairs, whether stored or expanded from a class link."""
        expanded = sum(
            1 for node in self._class_of for other, _ in self._class_neighbors(node)
            if node < other and other not in self._adj[node])
        return self._num_stored + expanded

    def columns(self, table: Optional[str] = None) -> List[ColumnRef]:
        if table is None:
            return sorted(self._adj)
        return sorted(self._by_table.get(table, ()))

    def relations_between(self, left: ColumnRef, right: ColumnRef) -> Dict[str, float]:
        relations = dict(self._adj.get(left, {}).get(right, {}))
        if left[0] != right[0] and left in self._class_of and right in self._class_of:
            relations.update(
                self._links[self._class_of[left]].get(self._class_of[right], {}))
        return relations

    def hyperedges(self, label_prefix: str = "") -> List[HyperEdge]:
        return [h for h in self._hyperedges.values() if h.label.startswith(label_prefix)]

    def node_attributes(self, node: ColumnRef) -> Dict[str, Any]:
        return dict(self._attributes[node])

    def _class_neighbors(self, node: ColumnRef, relation: Optional[str] = None
                         ) -> Iterator[Tuple[ColumnRef, Dict[str, float]]]:
        """Columns of other tables related to *node* through its class links
        (only the links carrying *relation*, when given)."""
        name_class = self._class_of.get(node)
        if name_class is None:
            return
        table = node[0]
        for linked, relations in self._links[name_class].items():
            if relation is not None and relation not in relations:
                continue
            for member in self._classes[linked]:
                if member[0] != table:
                    yield member, relations

    def _adjacency(self, node: ColumnRef, relation: Optional[str] = None
                   ) -> Dict[ColumnRef, Dict[str, float]]:
        """Every neighbour of *node* with its relations (do not mutate them).

        With *relation*, class links lacking it are not expanded: a stored
        neighbour keeps its own relations, and a link without *relation*
        would not change the weight of *relation* in them.
        """
        adjacency = dict(self._adj[node])
        for other, relations in self._class_neighbors(node, relation):
            stored = adjacency.get(other)
            adjacency[other] = relations if stored is None else {**stored, **relations}
        return adjacency

    # -- discovery primitives (the Aurum query language, Sec. 7.1) -------------------

    def schema_search(self, keyword: str) -> List[ColumnRef]:
        """Columns whose table or column name contains *keyword*."""
        needle = keyword.lower()
        return sorted(
            node for node in self._adj
            if needle in node[0].lower() or needle in node[1].lower()
        )

    def content_search(self, keyword: str) -> List[ColumnRef]:
        """Columns whose stored value sample contains *keyword*."""
        needle = keyword.lower()
        out = []
        for node, data in self._attributes.items():
            sample = data.get("sample", ())
            if any(needle in str(v).lower() for v in sample):
                out.append(node)
        return sorted(out)

    def neighbors(
        self,
        node: ColumnRef,
        relation: Optional[str] = None,
        min_weight: float = 0.0,
    ) -> List[Tuple[ColumnRef, float]]:
        """Related columns via *relation*, strongest first.

        A neighbour related in several ways weighs the max of its
        relations; ties go by column ref.  A relation filter skips the
        class links that lack the relation instead of expanding them.
        """
        if node not in self._adj:
            return []
        out = []
        for neighbor, relations in self._adjacency(node, relation).items():
            if relation is None:
                weight = max(relations.values())
            elif relation in relations:
                weight = relations[relation]
            else:
                continue
            if weight >= min_weight:
                out.append((neighbor, weight))
        out.sort(key=lambda pair: (-pair[1], pair[0]))
        return out

    def table_weights(self, table: str) -> Dict[str, float]:
        """Each other table's summed neighbour weight from *table*'s columns.

        For each column of *table*, in ref order, every neighbour in
        another table adds its :meth:`neighbors` weight (the max of its
        relations; below 0.0 adds nothing) onto its table's running sum,
        strongest first.  Equal weights add equal values, so every sum is
        bit for bit the one a loop over ``neighbors(ref)`` adds up.

        One pass per column: class links are walked strongest first and
        each member's weight goes straight into its table's sum, unless a
        stored edge of the column also reaches that table; only such a
        table collects its weights and sorts them.
        """
        sums: Dict[str, float] = {}
        for node in sorted(self._by_table.get(table, ())):
            name_class = self._class_of.get(node)
            links = {} if name_class is None else self._links[name_class]
            stored = self._adj[node]
            # the tables a stored edge reaches (and *table*, which takes nothing)
            collected: Dict[str, List[float]] = {table: []}
            for other, relations in stored.items():
                weights = collected.setdefault(other[0], [])
                if other[0] == table:
                    continue
                other_class = self._class_of.get(other, _UNCLASSED)
                if other_class in links:  # merged as _adjacency merges it
                    relations = {**relations, **links[other_class]}
                weight = max(relations.values())
                if weight >= 0.0:
                    weights.append(weight)
            strongest = [(max(relations.values()), linked)
                         for linked, relations in links.items()]
            strongest = [pair for pair in strongest if pair[0] >= 0.0]
            strongest.sort(key=itemgetter(0), reverse=True)
            for weight, linked in strongest:
                for member in self._classes[linked]:
                    other_table = member[0]
                    if other_table not in collected:
                        sums[other_table] = sums.get(other_table, 0.0) + weight
                    elif member not in stored:
                        collected[other_table].append(weight)
            del collected[table]
            for other_table, weights in collected.items():
                weights.sort(reverse=True)
                for weight in weights:
                    sums[other_table] = sums.get(other_table, 0.0) + weight
        return sums

    def paths(
        self,
        source: ColumnRef,
        target: ColumnRef,
        max_hops: int = 3,
        relation: Optional[str] = None,
    ) -> List[List[ColumnRef]]:
        """All simple relation paths up to *max_hops*, sorted (discovery path query).

        A depth-first walk over each column's neighbours (via *relation*
        only, when given); a path ends at *target*, never passes it.  A
        column's path to itself is the one-node path, if the column has a
        *relation* edge.
        """
        if source not in self._adj or target not in self._adj or max_hops < 0:
            return []
        if source == target:
            related = relation is None or any(
                relation in relations
                for relations in self._adjacency(source, relation).values())
            return [[source]] if related else []
        found: List[List[ColumnRef]] = []
        path = [source]

        def walk(node: ColumnRef) -> None:
            for neighbor, relations in self._adjacency(node, relation).items():
                if relation is not None and relation not in relations:
                    continue
                if neighbor == target:
                    found.append(path + [target])
                elif len(path) < max_hops and neighbor not in path:
                    path.append(neighbor)
                    walk(neighbor)
                    path.pop()

        if max_hops >= 1:
            walk(source)
        return sorted(found)

    def join_path_tables(self, start_table: str, max_hops: int = 2) -> Set[str]:
        """Tables reachable from *start_table* via content-similarity edges.

        D3L observed that "using LSH to discover joining paths leads to
        accurate discovery of more related tables"; this primitive walks
        those join paths at table granularity: each hop follows the
        ``content_sim`` edges of every column of the tables reached so far.
        """
        seen_tables = {start_table}
        frontier = {start_table}
        for _ in range(max_hops):
            reached: Set[str] = set()
            for table in frontier:
                for node in self._by_table.get(table, ()):
                    for neighbor, relations in self._adj[node].items():
                        if "content_sim" in relations and neighbor[0] not in seen_tables:
                            reached.add(neighbor[0])
            seen_tables |= reached
            frontier = reached
        seen_tables.discard(start_table)
        return seen_tables
