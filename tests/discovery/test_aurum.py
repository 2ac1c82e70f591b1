"""Tests for Aurum."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import Column, Table
from repro.core.errors import DatasetNotFound
from repro.discovery.aurum import Aurum
from repro.discovery.profiles import TableProfiler
from repro.ml.lsh import choose_banding
from repro.ml.text import cosine_similarity
from repro.modeling.ekg import EnterpriseKnowledgeGraph
from tests.modeling.test_ekg import neighbor_sums


@pytest.fixture
def aurum(small_lake):
    engine = Aurum()
    for table in small_lake:
        engine.add_table(table)
    engine.build()
    return engine


class TestThresholds:
    @pytest.mark.parametrize("threshold", [0, 0.0, -1, 1.5, 1.0001])
    def test_schema_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="schema_threshold"):
            Aurum(schema_threshold=threshold)

    @pytest.mark.parametrize("threshold", [1e-9, 0.6, 1.0])
    def test_schema_threshold_inside_unit_interval_accepted(self, threshold):
        assert Aurum(schema_threshold=threshold).schema_threshold == threshold


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
        # two keys, only one containing the other: one orientation qualifies
        aurum.update_table(Table.from_columns("big", {"id": list(range(100))}))
        aurum.update_table(Table.from_columns("small", {"id": list(range(50))}))
        candidates = aurum.pkfk_candidates()
        assert (("big", "id"), ("small", "id"), 1.0) in candidates
        assert (("small", "id"), ("big", "id")) not in [
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

    def test_changed_table_is_signed_once_per_column(self, aurum, monkeypatch):
        """The change check and the re-index read the same profiles."""
        signed = []
        signature = aurum.profiler.hasher.signature
        monkeypatch.setattr(aurum.profiler.hasher, "signature",
                            lambda values: signed.append(1) or signature(values))
        mutated = Table.from_columns("orders", {
            "order_id": [f"zzz-{i}" for i in range(50)],
            "customer_id": [f"other-{i}" for i in range(50)],
            "amount": list(range(50)),
        })
        assert aurum.update_table(mutated) is True
        assert len(signed) == 3

    def test_new_table_added(self, aurum):
        extra = Table.from_columns("extra", {"customer_id": [f"cust-{i:04d}" for i in range(100)]})
        assert aurum.update_table(extra) is True
        hits = aurum.joinable("extra", "customer_id", k=5)
        assert ("customers", "customer_id") in [ref for ref, _ in hits]

    def test_re_added_table_is_reposted(self, small_lake, orders):
        """add_table on an indexed name replaces its columns' postings, so a
        later update that drops a column leaves no posting behind."""
        engine = Aurum()
        for table in small_lake + [orders]:
            engine.add_table(table)
        engine.build()
        narrowed = Table.from_columns("orders", {
            "order_id": [f"n-{i}" for i in range(30)]})
        assert engine.update_table(narrowed) is True
        rebuilt = Aurum()
        for table in small_lake[:1] + small_lake[2:] + [narrowed]:
            rebuilt.add_table(table)
        rebuilt.build()
        assert _postings(engine) == _postings(rebuilt)
        assert _edge_map(engine) == brute_force_edges(
            small_lake[:1] + small_lake[2:] + [narrowed])

    def test_re_adding_a_table_replaces_it(self):
        """add_table on an indexed name drops the old version's columns and
        edges, so the EKG and the answers equal a fresh build's."""
        a = Table.from_columns("a", {"k": [f"v{i}" for i in range(30)]})
        b = Table.from_columns("b", {"x": [f"v{i}" for i in range(30)],
                                     "y": [f"w{i}" for i in range(30)]})
        new_b = Table.from_columns("b", {"z": [f"u{i}" for i in range(30)]})
        engine = Aurum()
        engine.add_table(a)
        engine.add_table(b)
        engine.build()
        assert engine.related_tables("a") == [("b", 1.0)]
        engine.add_table(new_b)
        engine.build_delta()
        fresh = Aurum()
        fresh.add_table(a)
        fresh.add_table(new_b)
        fresh.build()
        assert engine.ekg.columns("b") == fresh.ekg.columns("b") == [("b", "z")]
        assert _edge_map(engine) == _edge_map(fresh) == brute_force_edges([a, new_b])
        assert engine.related_tables("a") == fresh.related_tables("a") == []
        assert engine.pkfk_candidates() == fresh.pkfk_candidates()
        assert _postings(engine) == _postings(fresh)

    def test_removed_table_leaves_no_trace(self, small_lake):
        engine = Aurum()
        for table in small_lake:
            engine.add_table(table)
        engine.build()
        gone = small_lake[1].name
        assert engine.remove_table(gone) is True
        assert engine.remove_table(gone) is False
        rest = small_lake[:1] + small_lake[2:]
        rebuilt = Aurum()
        for table in rest:
            rebuilt.add_table(table)
        rebuilt.build()
        assert engine.table_names() == rebuilt.table_names()
        assert _postings(engine) == _postings(rebuilt)
        assert _edge_map(engine) == brute_force_edges(rest)
        assert engine.ekg.hyperedges(f"table:{gone}") == []

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


def brute_force_edges(tables, content_threshold=0.5, schema_threshold=0.6, num_perm=128):
    """The EKG edge map from the pairwise definitions, over every column pair."""
    profiler = TableProfiler(num_perm=num_perm)
    profiles = sorted((p for table in tables for p in profiler.profile_table(table)),
                      key=lambda p: p.ref)
    bands, rows = choose_banding(num_perm, content_threshold)
    edges = {}
    for i, left in enumerate(profiles):
        for right in profiles[i + 1:]:
            if left.table == right.table:
                continue
            relations = {}
            estimate = left.minhash.jaccard(right.minhash)
            collide = any(
                left.minhash.values[b * rows:(b + 1) * rows]
                == right.minhash.values[b * rows:(b + 1) * rows]
                for b in range(bands)
            )
            if collide and estimate >= content_threshold:
                relations["content_sim"] = round(estimate, 4)
            similarity = cosine_similarity(Counter(left.name_tokens), Counter(right.name_tokens))
            if similarity >= schema_threshold:
                relations["schema_sim"] = round(similarity, 4)
            contained = [
                len(foreign.distinct & key.distinct) / len(foreign.distinct)
                for key, foreign in ((left, right), (right, left))
                if key.is_key_candidate and foreign.distinct
            ]
            if max(contained, default=0.0) >= 0.8:
                relations["pkfk"] = round(max(contained), 4)
            if relations:
                edges[(left.ref, right.ref)] = relations
    return edges


NAME_TOKENS = ["id", "name", "code", "key"]


def _respelled(name):
    """Another spelling of *name* with the same tokens: key_id -> keyId, id -> ID."""
    first, *rest = name.split("_")
    return first + "".join(part.capitalize() for part in rest) if rest else name.upper()


@st.composite
def lake_table(draw, name, shared_token):
    """A small table whose names and values collide often across tables.

    Some tables spell one name vector twice (``key_id`` and ``keyId``) or
    carry a name with no tokens at all.
    """
    names = draw(st.lists(
        st.lists(st.sampled_from(NAME_TOKENS), min_size=1, max_size=2).map("_".join),
        min_size=1, max_size=3, unique=True))
    if shared_token:
        names = [f"{n}_id" for n in names]
    extra = draw(st.sampled_from(["", "respelled", "tokenless"]))
    if extra == "respelled":
        names.append(_respelled(names[0]))
    elif extra == "tokenless":
        names.append("_")
    rows = draw(st.integers(1, 12))
    columns = {}
    for column in names:
        kind = draw(st.sampled_from(["key", "foreign", "mixed"]))
        if kind == "key":  # unique values, so a key candidate
            start = draw(st.integers(0, 4))
            columns[column] = [str(start + i) for i in range(rows)]
        elif kind == "foreign":
            columns[column] = [str(v) for v in draw(st.lists(
                st.integers(0, 14), min_size=rows, max_size=rows))]
        else:
            columns[column] = draw(st.lists(
                st.sampled_from(["a", "b", "1", "2", None]), min_size=rows, max_size=rows))
    return Table.from_columns(name, columns)


def _postings(engine):
    return ({token: sorted(classes) for token, classes in engine._by_token.items()},
            {value: sorted(refs) for value, refs in engine._by_value.items()},
            set(engine._keys))


class TestPostingProbes:
    """The token and value posting probes find exactly the edges a scan over
    every column pair finds: relations, weights, full builds, delta
    partitions and re-ingests."""

    @pytest.mark.parametrize("shared_token", [False, True])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_probes_match_brute_force(self, shared_token, data):
        count = data.draw(st.integers(2, 5))
        tables = [data.draw(lake_table(f"t{i}", shared_token)) for i in range(count)]
        expected = brute_force_edges(tables)

        full = Aurum()
        for table in tables:
            full.add_table(table)
        full.build()
        assert _edge_map(full) == expected

        order = data.draw(st.permutations(tables))
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1))))
        delta = Aurum()
        for start, stop in zip([0] + cuts, cuts + [count]):
            for table in order[start:stop]:
                delta.add_table(table)
            delta.build_delta()
        assert _edge_map(delta) == expected

        current = {table.name: table for table in tables}
        for index in data.draw(st.lists(st.integers(0, count), max_size=3)):
            table = data.draw(lake_table(f"t{index}", shared_token))
            changed = full.update_table(table)
            assert delta.update_table(table) is changed
            if changed:
                current[table.name] = table
        expected = brute_force_edges(current.values())
        assert _edge_map(full) == expected
        assert _edge_map(delta) == expected

        rebuilt = Aurum()
        for table in current.values():
            rebuilt.add_table(table)
        rebuilt.build()
        assert _postings(delta) == _postings(rebuilt)


RELATIONS = [None, "content_sim", "schema_sim", "pkfk"]


def reference_engine(tables):
    """An Aurum answering from a plain EKG that stores every brute-force edge.

    Each relation of each column pair is written with ``add_relation``: one
    stored edge per related pair, schema similarity included.  Once built,
    ``related_tables``, ``joinable`` and ``pkfk_candidates`` read only the
    EKG and the profiles, so they answer from that per-pair storage.
    """
    engine = Aurum()
    for table in tables:
        engine.add_table(table)
    engine.build()
    ekg = EnterpriseKnowledgeGraph()
    for table in tables:
        for column in table.column_names:
            ekg.add_column(table.name, column)
    for (left, right), relations in brute_force_edges(tables).items():
        for relation, weight in relations.items():
            ekg.add_relation(left, right, relation, weight)
    engine.ekg = ekg
    return engine


def related_by_neighbor_lists(ekg, table, k):
    """``related_tables`` as a loop over every column's ``neighbors`` list."""
    ranked = sorted(neighbor_sums(ekg, table).items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def assert_same_answers(engine, reference, data):
    refs = reference.ekg.columns()
    assert engine.ekg.columns() == refs
    assert engine.ekg.num_edges == reference.ekg.num_edges
    k = len(refs) + 1
    for table in reference.table_names():
        assert engine.related_tables(table, k=k) == related_by_neighbor_lists(
            reference.ekg, table, k)
    assert engine.pkfk_candidates() == reference.pkfk_candidates()
    min_weight = data.draw(st.sampled_from([0.0, 0.6, 0.95]))
    for ref in refs:
        assert engine.joinable(*ref, k=k) == reference.joinable(*ref, k=k)
        for relation in RELATIONS:
            assert (engine.ekg.neighbors(ref, relation, min_weight)
                    == reference.ekg.neighbors(ref, relation, min_weight))
        for other in refs:
            assert (engine.ekg.relations_between(ref, other)
                    == reference.ekg.relations_between(ref, other))
    for _ in range(3 if refs else 0):
        source, target = data.draw(st.sampled_from(refs)), data.draw(st.sampled_from(refs))
        relation = data.draw(st.sampled_from(RELATIONS))
        hops = data.draw(st.integers(0, 3))
        assert (engine.ekg.paths(source, target, hops, relation)
                == reference.ekg.paths(source, target, hops, relation))


class TestNameClasses:
    """Schema similarity stored once per name class answers every query as
    one stored edge per similar column pair does."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_answers_match_edge_materializing_reference(self, data):
        shared_token = data.draw(st.booleans())
        count = data.draw(st.integers(2, 5))
        tables = {f"t{i}": data.draw(lake_table(f"t{i}", shared_token)) for i in range(count)}
        order = data.draw(st.permutations(sorted(tables)))
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1))))
        engine = Aurum()
        for start, stop in zip([0] + cuts, cuts + [count]):
            for name in order[start:stop]:
                engine.add_table(tables[name])
            engine.build_delta()
        steps = data.draw(st.lists(st.tuples(
            st.sampled_from(["update", "add", "remove"]), st.integers(0, count)), max_size=4))
        for action, index in steps:
            name = f"t{index}"
            if action == "remove":
                engine.remove_table(name)
                tables.pop(name, None)
                continue
            table = data.draw(lake_table(name, shared_token))
            if action == "add":
                engine.add_table(table)
                engine.build_delta()
                tables[name] = table
            elif engine.update_table(table):
                tables[name] = table
        assert_same_answers(engine, reference_engine(list(tables.values())), data)

    def test_repeated_name_costs_no_schema_work(self, monkeypatch):
        """A column whose name class is already linked computes no cosine and
        stores no edge, yet relates to every same-named column."""
        import repro.discovery.aurum as aurum_module

        def note_table(i):
            return Table.from_columns(f"t{i}", {"note": [f"n{i}-{r}" for r in range(5)]})

        engine = Aurum()
        for i in range(50):
            engine.add_table(note_table(i))
        engine.build()
        calls = []

        def spy(left, right):
            calls.append((left, right))
            return cosine_similarity(left, right)

        monkeypatch.setattr(aurum_module, "cosine_similarity", spy)
        engine.add_table(note_table(50))
        engine.build_delta()
        assert calls == []
        stored = [relations for adjacent in engine.ekg._adj.values()
                  for relations in adjacent.values()]
        assert not any("schema_sim" in relations for relations in stored)
        for i in range(50):
            assert engine.ekg.relations_between(("t50", "note"), (f"t{i}", "note")) == {
                "schema_sim": 1.0}
