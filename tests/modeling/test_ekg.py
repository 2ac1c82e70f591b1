"""Tests for the enterprise knowledge graph."""

import gc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.modeling.ekg import EnterpriseKnowledgeGraph, HyperEdge


@pytest.fixture
def ekg():
    g = EnterpriseKnowledgeGraph()
    g.add_column("customers", "customer_id", sample=("c1", "c2"))
    g.add_column("customers", "city", sample=("berlin", "paris"))
    g.add_column("orders", "customer_id", sample=("c1",))
    g.add_column("orders", "amount", sample=(10, 20))
    g.add_relation(("customers", "customer_id"), ("orders", "customer_id"),
                   "content_sim", 0.8)
    g.add_relation(("customers", "customer_id"), ("orders", "customer_id"),
                   "schema_sim", 1.0)
    g.add_relation(("customers", "city"), ("orders", "amount"), "content_sim", 0.1)
    return g


class TestStructure:
    def test_counts(self, ekg):
        assert ekg.num_nodes == 4
        assert ekg.num_edges == 2

    def test_stacked_relations(self, ekg):
        relations = ekg.relations_between(
            ("customers", "customer_id"), ("orders", "customer_id")
        )
        assert relations == {"content_sim": 0.8, "schema_sim": 1.0}

    def test_relation_requires_nodes(self, ekg):
        with pytest.raises(KeyError):
            ekg.add_relation(("x", "y"), ("orders", "amount"), "content_sim", 0.5)

    def test_columns_by_table(self, ekg):
        assert ekg.columns("orders") == [("orders", "amount"), ("orders", "customer_id")]

    def test_remove_column(self, ekg):
        ekg.add_hyperedge("g", [("orders", "amount")])
        ekg.remove_column("orders", "amount")
        assert ("orders", "amount") not in ekg.columns()
        assert ekg.hyperedges("g") == []


class TestHyperedges:
    def test_group_table(self, ekg):
        hyperedge = ekg.group_table("customers")
        assert hyperedge.members == frozenset({
            ("customers", "customer_id"), ("customers", "city"),
        })

    def test_hyperedges_prefix(self, ekg):
        ekg.group_table("customers")
        ekg.group_table("orders")
        assert len(ekg.hyperedges("table:")) == 2


class TestDiscoveryPrimitives:
    def test_schema_search(self, ekg):
        assert ("customers", "customer_id") in ekg.schema_search("customer")
        assert ekg.schema_search("zzz") == []

    def test_content_search(self, ekg):
        assert ekg.content_search("berlin") == [("customers", "city")]

    def test_neighbors_by_relation(self, ekg):
        hits = ekg.neighbors(("customers", "customer_id"), relation="content_sim")
        assert hits == [(("orders", "customer_id"), 0.8)]

    def test_neighbors_min_weight(self, ekg):
        hits = ekg.neighbors(("customers", "city"), min_weight=0.5)
        assert hits == []

    def test_neighbors_unknown_node(self, ekg):
        assert ekg.neighbors(("ghost", "x")) == []

    def test_paths(self, ekg):
        paths = ekg.paths(("customers", "city"), ("orders", "customer_id"), max_hops=3)
        assert paths == []  # no connection between those components yet
        ekg.add_relation(("orders", "amount"), ("orders", "customer_id"), "content_sim", 0.4)
        paths = ekg.paths(("customers", "city"), ("orders", "customer_id"), max_hops=3)
        assert len(paths) >= 1

    def test_paths_relation_filtered(self, ekg):
        paths = ekg.paths(
            ("customers", "customer_id"), ("orders", "customer_id"),
            relation="schema_sim",
        )
        assert len(paths) == 1

    def test_join_path_tables(self, ekg):
        assert ekg.join_path_tables("customers") == {"orders"}

    def test_join_path_tables_follows_content_edges_only(self):
        g = EnterpriseKnowledgeGraph()
        for table, column in [("a", "note"), ("a", "id"), ("b", "note"), ("c", "id")]:
            g.add_column(table, column)
        g.add_relation(("a", "note"), ("b", "note"), "schema_sim", 1.0)
        g.add_relation(("a", "id"), ("c", "id"), "pkfk", 1.0)
        assert g.join_path_tables("a") == set()

    def test_join_path_tables_walks_whole_tables(self):
        g = EnterpriseKnowledgeGraph()
        for table, column in [("a", "x"), ("b", "p"), ("b", "q"), ("c", "z")]:
            g.add_column(table, column)
        g.add_relation(("a", "x"), ("b", "p"), "content_sim", 0.9)
        g.add_relation(("b", "q"), ("c", "z"), "content_sim", 0.9)
        assert g.join_path_tables("a", max_hops=1) == {"b"}
        assert g.join_path_tables("a") == {"b", "c"}


@pytest.fixture
def classes():
    """Three tables; ``note`` twice in t1, and two classes linked to each other."""
    g = EnterpriseKnowledgeGraph()
    for table, column in [("t1", "note"), ("t1", "Note"), ("t2", "note"),
                          ("t3", "note"), ("t3", "notes")]:
        g.add_column(table, column)
    for ref in [("t1", "note"), ("t1", "Note"), ("t2", "note"), ("t3", "note")]:
        g.join_class(ref, "note")
    assert g.join_class(("t3", "notes"), "notes")
    g.link_classes("note", "note", "schema_sim", 1.0)
    g.link_classes("note", "notes", "schema_sim", 0.7)
    return g


class TestNameClasses:
    def test_join_reports_a_new_class_once(self):
        g = EnterpriseKnowledgeGraph()
        g.add_column("a", "x")
        g.add_column("b", "x")
        assert g.join_class(("a", "x"), "x") is True
        assert g.join_class(("b", "x"), "x") is False
        assert g.join_class(("b", "x"), "x") is False  # already a member
        with pytest.raises(ValueError):
            g.join_class(("b", "x"), "y")
        with pytest.raises(KeyError):
            g.join_class(("ghost", "x"), "x")

    def test_links_expand_to_other_tables_only(self, classes):
        assert classes.neighbors(("t1", "note")) == [
            (("t2", "note"), 1.0), (("t3", "note"), 1.0), (("t3", "notes"), 0.7)]
        assert classes.relations_between(("t1", "note"), ("t1", "Note")) == {}
        assert classes.relations_between(("t3", "note"), ("t3", "notes")) == {}
        assert classes.num_edges == 8
        assert classes.paths(("t1", "note"), ("t2", "note"), max_hops=1) == [
            [("t1", "note"), ("t2", "note")]]

    def test_link_stacks_with_a_stored_edge(self, classes):
        classes.add_relation(("t1", "note"), ("t2", "note"), "content_sim", 0.5)
        assert classes.relations_between(("t2", "note"), ("t1", "note")) == {
            "content_sim": 0.5, "schema_sim": 1.0}
        assert classes.neighbors(("t1", "note"), relation="content_sim") == [
            (("t2", "note"), 0.5)]
        assert classes.num_edges == 8

    def test_removing_the_last_member_drops_class_and_links(self, classes):
        assert classes.remove_column("t3", "note") is None
        assert classes.remove_column("t3", "notes") == "notes"
        assert classes.neighbors(("t1", "note")) == [(("t2", "note"), 1.0)]
        assert classes.columns("t3") == []
        for ref in [("t1", "note"), ("t1", "Note"), ("t2", "note")]:
            classes.remove_column(*ref)
        assert classes._classes == {} and classes._links == {}
        with pytest.raises(KeyError):
            classes.link_classes("note", "note", "schema_sim", 1.0)


NODES = [(table, column) for table in "abc" for column in "xy"]


@given(edges=st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                                st.sampled_from(["content_sim", "pkfk"])), max_size=12),
       source=st.sampled_from(NODES), target=st.sampled_from(NODES),
       relation=st.sampled_from([None, "content_sim", "pkfk"]),
       max_hops=st.integers(-1, 4))
@settings(max_examples=200, deadline=None)
def test_paths_match_networkx(edges, source, target, relation, max_hops):
    """The depth-first walk finds the paths networkx's all_simple_paths does."""
    g = EnterpriseKnowledgeGraph()
    for node in NODES:
        g.add_column(*node)
    reference = nx.Graph()
    reference.add_nodes_from(NODES)
    for left, right, kind in edges:
        g.add_relation(left, right, kind, 0.5)
        if relation is None or kind == relation:
            reference.add_edge(left, right)
    if relation is not None:
        reference = reference.edge_subgraph(reference.edges)
    expected = (sorted(map(list, nx.all_simple_paths(reference, source, target, cutoff=max_hops)))
                if source in reference and target in reference else [])
    assert g.paths(source, target, max_hops, relation) == expected


def neighbor_sums(g, table):
    """Each other table's summed weight, as a loop over every column's
    ``neighbors`` list adds it up: the reference for ``table_weights``."""
    sums = {}
    for ref in g.columns(table):
        for neighbor, weight in g.neighbors(ref):
            if neighbor[0] != table:
                sums[neighbor[0]] = sums.get(neighbor[0], 0.0) + weight
    return sums


def neighbors_from_pairs(g, node, relation):
    """``neighbors(node, relation)`` from ``relations_between`` over every column."""
    out = []
    for other in g.columns():
        relations = g.relations_between(node, other)
        if relation is None and relations:
            out.append((other, max(relations.values())))
        elif relation in relations:
            out.append((other, relations[relation]))
    return sorted((pair for pair in out if pair[1] >= 0.0),
                  key=lambda pair: (-pair[1], pair[0]))


WEIGHT_COLUMNS = [(table, column) for table in "abc" for column in "wxyz"]
WEIGHT_RELATIONS = ["content_sim", "pkfk", "schema_sim"]
# mostly values whose float sums depend on the order they are added in
WEIGHTS = st.one_of(st.sampled_from([1.0, 0.7071, 0.1, 0.2, 0.3, 0.0, -0.5]),
                    st.integers(-3, 14).map(lambda n: n / 7), st.floats(-1.0, 2.0))
RELATION_STEPS = st.tuples(st.sampled_from(WEIGHT_COLUMNS), st.sampled_from(WEIGHT_COLUMNS),
                           st.sampled_from(WEIGHT_RELATIONS), WEIGHTS)


@given(classes=st.lists(st.sampled_from([None, 0, 1, 2]), min_size=len(WEIGHT_COLUMNS),
                        max_size=len(WEIGHT_COLUMNS)),
       links=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                st.sampled_from(WEIGHT_RELATIONS), WEIGHTS), max_size=8),
       relations=st.lists(RELATION_STEPS, max_size=40),
       removed=st.lists(st.sampled_from(WEIGHT_COLUMNS), max_size=3),
       readded=st.booleans())
@settings(max_examples=300, deadline=None)
def test_table_weights_equal_neighbor_list_sums(classes, links, relations, removed, readded):
    """``table_weights`` adds exactly what a loop over ``neighbors`` adds, in
    its order (compared with == on floats), over stored edges with several
    relations, edges inside one table, negative weights, name classes with
    unequal and self links, and removed columns; and a relation filter
    answers as ``relations_between`` does."""
    g = EnterpriseKnowledgeGraph()
    for node in WEIGHT_COLUMNS:
        g.add_column(*node)
    for node, name_class in zip(WEIGHT_COLUMNS, classes):
        if name_class is not None:
            g.join_class(node, name_class)
    for left, right, relation, weight in links:
        if {left, right} <= set(classes):
            g.link_classes(left, right, relation, weight)
    for left, right, relation, weight in relations:
        g.add_relation(left, right, relation, weight)
    for node in removed:
        g.remove_column(*node)
        if readded:  # back without its class and edges
            g.add_column(*node)
    for table in "abcd":
        assert g.table_weights(table) == neighbor_sums(g, table)
    for node in g.columns():
        for relation in [None] + WEIGHT_RELATIONS:
            assert g.neighbors(node, relation) == neighbors_from_pairs(g, node, relation)


def test_table_weights_add_each_columns_weights_strongest_first():
    """Added weakest first, b's sum would read 0.6000000000000001."""
    g = EnterpriseKnowledgeGraph()
    for node in [("a", "x"), ("b", "x"), ("b", "y"), ("b", "z"), ("c", "x")]:
        g.add_column(*node)
    for node in [("a", "x"), ("b", "x"), ("c", "x")]:
        g.join_class(node, "x")
    g.link_classes("x", "x", "schema_sim", 0.2)
    g.add_relation(("a", "x"), ("b", "y"), "content_sim", 0.1)
    g.add_relation(("a", "x"), ("b", "z"), "pkfk", 0.3)
    assert g.table_weights("a") == neighbor_sums(g, "a") == {"b": 0.6, "c": 0.2}


class HyperedgeList:
    """The reference: every hyperedge in one list, which grouping a table
    filters by label and removing a column filters by membership."""

    def __init__(self):
        self.items = []
        self.by_table = {}

    def add_hyperedge(self, label, members):
        self.items.append(HyperEdge(label, frozenset(members)))

    def group_table(self, table):
        label = f"table:{table}"
        self.items = [h for h in self.items if h.label != label]
        self.add_hyperedge(label, self.by_table.get(table, ()))

    def remove_column(self, node):
        self.by_table.get(node[0], set()).discard(node)
        self.items = [h for h in self.items if node not in h.members]


HYPER_COLUMNS = [(table, column) for table in "ab" for column in "xy"]
HYPER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("column"), st.sampled_from(HYPER_COLUMNS)),
    st.tuples(st.just("hyperedge"), st.sampled_from(["g", "h", "table:a", "table:b"]),
              st.frozensets(st.sampled_from(HYPER_COLUMNS))),
    st.tuples(st.just("group"), st.sampled_from("abc")),
    st.tuples(st.just("remove"), st.sampled_from(HYPER_COLUMNS))), max_size=30)


@given(steps=HYPER_STEPS)
@settings(max_examples=300, deadline=None)
def test_hyperedges_keep_the_order_of_one_list(steps):
    """Table hyperedges kept by label list the same hyperedges, in the same
    order, as one list does, for any mix of ``add_hyperedge`` (labels that
    clash with a table's too), ``group_table`` and ``remove_column``."""
    g = EnterpriseKnowledgeGraph()
    reference = HyperedgeList()
    for step in steps:
        if step[0] == "column":
            g.add_column(*step[1])
            reference.by_table.setdefault(step[1][0], set()).add(step[1])
        elif step[0] == "hyperedge":
            g.add_hyperedge(step[1], step[2])
            reference.add_hyperedge(step[1], step[2])
        elif step[0] == "group":
            assert g.group_table(step[1]) == HyperEdge(
                f"table:{step[1]}", frozenset(reference.by_table.get(step[1], ())))
            reference.group_table(step[1])
        else:
            g.remove_column(*step[1])
            reference.remove_column(step[1])
        for prefix in ["", "table:", "table:a", "g"]:
            assert g.hyperedges(prefix) == [
                h for h in reference.items if h.label.startswith(prefix)]


def test_stored_edges_add_no_container():
    """A stored edge adds no garbage-collected container: its relations
    dict holds only strings and floats, which the collector does not
    track.  Each column's adjacency dict is tracked once it holds a
    neighbour (50 here); a wrapping data dict per edge would add 1,225."""
    g = EnterpriseKnowledgeGraph()
    nodes = [(f"t{i}", "c") for i in range(50)]
    for node in nodes:
        g.add_column(*node)
    pairs = list(combinations(nodes, 2))
    gc.collect()
    before = len(gc.get_objects())
    for left, right in pairs:
        g.add_relation(left, right, "content_sim", 0.5)
        g.add_relation(left, right, "pkfk", 1.0)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < len(pairs) / 10, grown
    assert g.num_edges == len(pairs)
