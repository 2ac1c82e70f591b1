"""The crash–restart property harness: every scenario must recover clean.

This is the tier-1 enforcement of the durability invariants: for every
registered crash point, every supported failure mode, and every
reachable hit index, the workload is crashed, reloaded, and checked
(committed-visible, uncommitted-invisible, orphan-free after GC,
quarantine only under missed-fsync).  ~130 scenarios, all disk-light.
"""

import os
from pathlib import Path

from repro.durability import matrix
from repro.durability.atomic import is_tmp
from repro.durability.matrix import (
    WORKLOAD,
    Trace,
    candidate_states,
    census_counts,
    matrix_points,
    run_crash_matrix,
    run_scenario,
)
from repro.faults.crash import KILL


class TestCensus:
    def test_every_registered_point_is_reachable(self):
        counts = census_counts()
        assert len(matrix_points()) >= 10  # the full protocol surface
        for point in matrix_points():
            assert counts.get(point.name, 0) >= 1, (
                f"crash point {point.name} is registered but the matrix "
                f"workload never visits it")

    def test_census_is_deterministic(self):
        assert census_counts() == census_counts()


class TestCandidateStates:
    def test_no_inflight_means_single_candidate(self):
        trace = Trace(acked=list(WORKLOAD), inflight=None)
        assert len(candidate_states(trace)) == 1

    def test_multi_version_delete_has_prefix_candidates(self):
        trace = Trace(acked=[op for op in WORKLOAD if op[0] != "delete"],
                      inflight=("delete", "raw", "a.txt"))
        # a.txt has two versions: untouched, v2 gone, key gone
        assert len(candidate_states(trace)) == 3


class TestScenarios:
    def test_single_scenario_passes(self):
        result = run_scenario("lakehouse.commit.journal", KILL, 1)
        assert result.ok, result.detail

    def test_full_matrix_green(self):
        result = run_crash_matrix()
        assert result["scenarios"] > 100
        assert result["unreached_points"] == []
        assert result["failures"] == [], result["failures"]
        assert result["pass_rate"] == 1.0


class TestPublishProtocol:
    def test_every_file_left_was_renamed_into_place(self, tmp_path, monkeypatch):
        """Object data, object meta and journal entries are all published by
        the atomic protocol's rename; a file written in place is one a crash
        can tear, and the matrix's recovery checks cannot always see it."""
        published = set()
        replace = os.replace

        def recording_replace(src, dst, *args, **kwargs):
            published.add(Path(dst))
            return replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", recording_replace)
        monkeypatch.setattr(matrix, "WORKLOAD",
                            tuple(op for op in WORKLOAD if op[0] != "delete"))
        matrix.run_workload(tmp_path, Trace())
        left = {path for path in tmp_path.rglob("*")
                if path.is_file() and not is_tmp(path)}
        assert any(path.match("_txlog/*/*.json") for path in left)
        assert any(path.name.endswith(".meta.json") for path in left)
        assert sorted(left - published) == []
