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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx


#: a node in the EKG is one table column, addressed as (table, column)
ColumnRef = Tuple[str, str]


@dataclass(frozen=True)
class HyperEdge:
    """A hyperedge grouping arbitrarily many nodes under one label."""

    label: str
    members: FrozenSet[ColumnRef]


class EnterpriseKnowledgeGraph:
    """Hypergraph of attribute nodes, weighted relation edges, hyperedges."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._hyperedges: List[HyperEdge] = []

    # -- construction --------------------------------------------------------------

    def add_column(self, table: str, column: str, **attributes: Any) -> ColumnRef:
        node: ColumnRef = (table, column)
        self._graph.add_node(node, **attributes)
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
        if left not in self._graph or right not in self._graph:
            raise KeyError(f"both {left} and {right} must be EKG nodes")
        if self._graph.has_edge(left, right):
            self._graph[left][right]["relations"][relation] = weight
        else:
            self._graph.add_edge(left, right, relations={relation: weight})

    def remove_column(self, table: str, column: str) -> None:
        node = (table, column)
        if node in self._graph:
            self._graph.remove_node(node)
        self._hyperedges = [h for h in self._hyperedges if node not in h.members]

    def add_hyperedge(self, label: str, members: Iterable[ColumnRef]) -> HyperEdge:
        hyperedge = HyperEdge(label, frozenset(members))
        self._hyperedges.append(hyperedge)
        return hyperedge

    def group_table(self, table: str) -> HyperEdge:
        """Hyperedge connecting all attributes of *table* (table granularity).

        Replaces any earlier hyperedge for the same table, so rebuilding
        or re-grouping a table never accumulates duplicates.
        """
        label = f"table:{table}"
        self._hyperedges = [h for h in self._hyperedges if h.label != label]
        members = [node for node in self._graph.nodes if node[0] == table]
        return self.add_hyperedge(label, members)

    # -- structure access -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def columns(self, table: Optional[str] = None) -> List[ColumnRef]:
        nodes = list(self._graph.nodes)
        if table is not None:
            nodes = [n for n in nodes if n[0] == table]
        return sorted(nodes)

    def relations_between(self, left: ColumnRef, right: ColumnRef) -> Dict[str, float]:
        if not self._graph.has_edge(left, right):
            return {}
        return dict(self._graph[left][right]["relations"])

    def hyperedges(self, label_prefix: str = "") -> List[HyperEdge]:
        return [h for h in self._hyperedges if h.label.startswith(label_prefix)]

    def node_attributes(self, node: ColumnRef) -> Dict[str, Any]:
        return dict(self._graph.nodes[node])

    # -- discovery primitives (the Aurum query language, Sec. 7.1) -------------------

    def schema_search(self, keyword: str) -> List[ColumnRef]:
        """Columns whose table or column name contains *keyword*."""
        needle = keyword.lower()
        return sorted(
            node for node in self._graph.nodes
            if needle in node[0].lower() or needle in node[1].lower()
        )

    def content_search(self, keyword: str) -> List[ColumnRef]:
        """Columns whose stored value sample contains *keyword*."""
        needle = keyword.lower()
        out = []
        for node, data in self._graph.nodes(data=True):
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
        """Related columns via *relation*, strongest first."""
        if node not in self._graph:
            return []
        out = []
        for neighbor in self._graph[node]:
            relations = self._graph[node][neighbor]["relations"]
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

    def paths(
        self,
        source: ColumnRef,
        target: ColumnRef,
        max_hops: int = 3,
        relation: Optional[str] = None,
    ) -> List[List[ColumnRef]]:
        """All simple relation paths up to *max_hops* (discovery path query)."""
        if source not in self._graph or target not in self._graph:
            return []
        if relation is None:
            view = self._graph
        else:
            keep = [
                (u, v) for u, v, data in self._graph.edges(data=True)
                if relation in data["relations"]
            ]
            view = self._graph.edge_subgraph(keep) if keep else nx.Graph()
        if source not in view or target not in view:
            return []
        return [
            list(path)
            for path in nx.all_simple_paths(view, source, target, cutoff=max_hops)
        ]

    def join_path_tables(self, start_table: str, max_hops: int = 2) -> Set[str]:
        """Tables reachable from *start_table* via content-similarity edges.

        D3L observed that "using LSH to discover joining paths leads to
        accurate discovery of more related tables"; this primitive walks
        those join paths at table granularity.
        """
        frontier = {node for node in self._graph.nodes if node[0] == start_table}
        seen_tables = {start_table}
        for _ in range(max_hops):
            next_frontier: Set[ColumnRef] = set()
            for node in frontier:
                for neighbor in self._graph[node]:
                    if neighbor[0] not in seen_tables:
                        seen_tables.add(neighbor[0])
                        next_frontier.add(neighbor)
            frontier = next_frontier
        seen_tables.discard(start_table)
        return seen_tables
