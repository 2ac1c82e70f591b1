"""DataLake.health() and repair_degraded(): the operator-facing facade."""

from repro.core.dataset import Dataset, Table
from repro.core.lake import DataLake
from repro.faults import FaultInjector, FaultSchedule, FaultSpec, ResilienceConfig
from repro.storage.polystore import Polystore
from repro.storage.relational import RelationalStore


def degraded_lake():
    """A lake whose relational backend is down (controllable via schedule)."""
    schedule = FaultSchedule().set("relational", "*", FaultSpec(error_rate=1.0))
    relational = FaultInjector(RelationalStore(), "relational", schedule, seed=9)
    polystore = Polystore(
        relational=relational,
        resilience=ResilienceConfig(failure_threshold=1, reset_timeout=0.0))
    return DataLake(polystore=polystore), schedule


class TestHealth:
    def test_fresh_lake_is_healthy(self):
        lake = DataLake.in_memory()
        report = lake.health()
        assert report["healthy"]
        assert report["runtime"] == {"dead_letter": 0, "dead_jobs": [],
                                     "outstanding": 0}

    def test_breaker_trip_and_degraded_placement_surface(self):
        lake, _ = degraded_lake()
        lake.ingest(Dataset("people", Table.from_rows(
            "people", ["pid"], [[1], [2]])))
        report = lake.health()
        assert not report["healthy"]
        assert report["degraded_placements"] == ["people"]
        assert "relational" in report["breakers"]

    def test_dead_lettered_maintenance_jobs_mark_unhealthy(self):
        lake = DataLake.in_memory()

        def explode():
            raise RuntimeError("no")

        lake.runtime.submit(explode, name="doomed")
        lake.runtime.drain()
        report = lake.health()
        assert not report["healthy"]
        assert report["runtime"]["dead_letter"] == 1
        assert report["runtime"]["dead_jobs"] == ["doomed"]


class TestRepairDegraded:
    def test_noop_on_a_healthy_lake(self):
        assert DataLake.in_memory().repair_degraded() == []

    def test_repairs_run_on_the_maintenance_runtime(self):
        lake, schedule = degraded_lake()
        lake.ingest(Dataset("people", Table.from_rows(
            "people", ["pid", "name"], [[1, "ada"]])))
        assert lake.health()["degraded_placements"] == ["people"]
        schedule.set("relational", "*", FaultSpec())  # backend heals
        job_ids = lake.repair_degraded()
        assert len(job_ids) == 1
        assert lake.polystore.placement("people").backend == "relational"
        assert lake.health()["degraded_placements"] == []
        assert lake.runtime.dead_letter() == []

    def test_failed_repairs_land_in_the_dead_letter(self):
        lake, _ = degraded_lake()  # backend stays broken
        lake.ingest(Dataset("people", Table.from_rows(
            "people", ["pid"], [[1]])))
        lake.repair_degraded()
        report = lake.health()
        assert not report["healthy"]
        assert report["runtime"]["dead_jobs"] == ["repair:people"]
        assert lake.polystore.placement("people").degraded  # still on work-list
