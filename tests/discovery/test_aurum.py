"""Tests for Aurum."""

import pytest

from repro.core.dataset import Column, Table
from repro.core.errors import DatasetNotFound
from repro.discovery.aurum import Aurum


@pytest.fixture
def aurum(small_lake):
    engine = Aurum()
    for table in small_lake:
        engine.add_table(table)
    engine.build()
    return engine


class TestBuild:
    def test_ekg_has_all_columns(self, aurum, small_lake):
        expected = sum(t.width for t in small_lake)
        assert aurum.ekg.num_nodes == expected

    def test_content_edge_between_join_columns(self, aurum):
        relations = aurum.ekg.relations_between(
            ("customers", "customer_id"), ("orders", "customer_id")
        )
        assert "content_sim" in relations

    def test_schema_edge_between_same_names(self, aurum):
        relations = aurum.ekg.relations_between(
            ("customers", "customer_id"), ("orders", "customer_id")
        )
        assert relations.get("schema_sim", 0) > 0.5

    def test_table_hyperedges(self, aurum):
        assert len(aurum.ekg.hyperedges("table:")) == 3

    def test_one_table_hyperedge_per_table(self, small_lake):
        engine = Aurum()
        for table in small_lake:  # a full build after every add
            engine.add_table(table)
            engine.build()
        for i in range(3):  # changed re-ingests of one table
            engine.update_table(Table.from_columns("orders", {
                "order_id": [f"v{i}-{r}" for r in range(20)]}))
        assert len(engine.ekg.hyperedges("table:")) == len(small_lake)

    def test_build_idempotent(self, aurum):
        edges_before = aurum.ekg.num_edges
        aurum.build()
        assert aurum.ekg.num_edges == edges_before


def test_aurum_never_embeds(monkeypatch, small_lake):
    """Aurum reads no profile embedding, so it computes none."""
    from repro.ml.embeddings import HashedEmbedder

    calls = []
    embed_set = HashedEmbedder.embed_set

    def spy(self, texts):
        calls.append(texts)
        return embed_set(self, texts)

    monkeypatch.setattr(HashedEmbedder, "embed_set", spy)
    engine = Aurum()
    for table in small_lake:
        engine.add_table(table)
    engine.build()
    engine.related_tables("orders")
    engine.update_table(Table.from_columns("orders", {
        "order_id": [f"o{r}" for r in range(20)]}))
    assert calls == []


class TestQueries:
    def test_joinable(self, aurum):
        hits = aurum.joinable("orders", "customer_id", k=3)
        assert hits[0][0] == ("customers", "customer_id")
        assert hits[0][1] > 0.5

    def test_joinable_excludes_own_table(self, aurum):
        for ref, _ in aurum.joinable("orders", "customer_id", k=10):
            assert ref[0] != "orders"

    def test_joinable_unknown_column(self, aurum):
        with pytest.raises(DatasetNotFound):
            aurum.joinable("orders", "ghost")

    def test_related_tables(self, aurum):
        hits = aurum.related_tables("orders", k=3)
        assert hits[0][0] == "customers"

    def test_pkfk(self, aurum):
        candidates = aurum.pkfk_candidates()
        assert (("customers", "customer_id"), ("orders", "customer_id")) in [
            (key, fk) for key, fk, _ in candidates
        ]


class TestIncrementalUpdates:
    def test_small_change_skipped(self, aurum, orders):
        # identical table: change below threshold, no rebuild
        assert aurum.update_table(orders) is False

    def test_large_change_triggers_rebuild(self, aurum, orders):
        mutated = Table.from_columns("orders", {
            "order_id": [f"zzz-{i}" for i in range(50)],
            "customer_id": [f"other-{i}" for i in range(50)],
            "amount": list(range(50)),
        })
        assert aurum.update_table(mutated) is True
        # the old join edge should be gone now
        assert aurum.joinable("orders", "customer_id", k=3) == []

    def test_new_table_added(self, aurum):
        extra = Table.from_columns("extra", {"customer_id": [f"cust-{i:04d}" for i in range(100)]})
        assert aurum.update_table(extra) is True
        hits = aurum.joinable("extra", "customer_id", k=5)
        assert ("customers", "customer_id") in [ref for ref, _ in hits]

    def test_new_column_triggers_rebuild(self, aurum, orders):
        widened = Table("orders", list(orders.columns) + [
            Column("channel", ["web"] * len(orders)),
        ])
        assert aurum.update_table(widened) is True
        assert ("orders", "channel") in aurum.ekg.columns("orders")


class TestLinearVsQuadratic:
    def test_lsh_edges_match_all_pairs(self, small_lake):
        """LSH-found strong edges agree with the exact quadratic baseline."""
        engine = Aurum(content_threshold=0.5)
        for table in small_lake:
            engine.add_table(table)
        exact = {(a, b) for a, b, _ in engine.all_pairs_content_edges()}
        engine.build()
        approx = set()
        for ref in engine.ekg.columns():
            for other, _ in engine.ekg.neighbors(ref, relation="content_sim"):
                approx.add(tuple(sorted([ref, other])))
        # every strong exact edge must be recovered by LSH
        strong = {(a, b) for a, b, s in engine.all_pairs_content_edges() if s > 0.7}
        assert strong <= approx


def _edge_map(engine):
    refs = engine.ekg.columns()
    edges = {}
    for i, left in enumerate(refs):
        for right in refs[i + 1:]:
            relations = engine.ekg.relations_between(left, right)
            if relations:
                edges[(left, right)] = relations
    return edges


class TestDeltaPartitionInvariance:
    """Async maintenance splits ingests into timing-dependent delta batches;
    every partition must yield exactly the full-build EKG (edge set *and*
    scores), or parallel/serial discovery answers drift apart."""

    def test_every_split_matches_full_build(self, small_lake):
        tables = list(small_lake)
        full = Aurum()
        for table in tables:
            full.add_table(table)
        full.build()
        expected = _edge_map(full)
        for split in range(1, len(tables)):
            engine = Aurum()
            for table in tables[:split]:
                engine.add_table(table)
            engine.build_delta()
            for table in tables[split:]:
                engine.add_table(table)
            engine.build_delta()
            assert _edge_map(engine) == expected, f"split at {split}"

    def test_one_table_per_delta_matches_full_build(self, small_lake):
        full = Aurum()
        for table in small_lake:
            full.add_table(table)
        full.build()
        engine = Aurum()
        for table in small_lake:
            engine.add_table(table)
            engine.build_delta()
        assert _edge_map(engine) == _edge_map(full)

    def test_changed_table_update_matches_full_build(self, small_lake, customers):
        changed = Table.from_columns("orders", {
            "order_id": [f"ord-{i:04d}" for i in range(500, 560)],
            "customer_id": customers["customer_id"].values[:60],
            "city": customers["city"].values[:60],
        })
        engine, full = Aurum(), Aurum()
        for table in small_lake:
            engine.add_table(table)
            full.add_table(changed if table.name == "orders" else table)
        engine.build()
        full.build()
        assert engine.update_table(changed) is True
        assert _edge_map(engine) == _edge_map(full)
