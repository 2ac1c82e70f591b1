"""Smoke tests: the demo CLI and every example script run cleanly."""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_script(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=180, cwd=ROOT,
    )


class TestDemoCli:
    def test_python_dash_m_repro(self):
        result = run_script("-m", "repro")
        assert result.returncode == 0, result.stderr
        assert "surveyed systems implemented" in result.stdout
        assert "Aurum discovery" in result.stdout


class TestExamples:
    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs(self, script):
        result = run_script(str(script))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip(), f"{script.name} printed nothing"

    def test_quickstart_trace_covers_every_tier(self):
        result = run_script(str(ROOT / "examples" / "quickstart.py"))
        assert result.returncode == 0, result.stderr
        trace = result.stdout.split("== trace of everything above (repro.obs) ==")[1]
        trace = trace.split("== bulk ingest")[0]
        spans = re.findall(r"[└├]─ (\S+) .*tier=(\w+)", trace)
        assert {tier for _, tier in spans} >= {
            "storage", "ingestion", "maintenance", "exploration"}
        assert {"ingestion.lake.ingest", "exploration.lake.sql",
                "exploration.lake.keyword_search"} <= {name for name, _ in spans}

    def test_expected_examples_present(self):
        names = {p.stem for p in EXAMPLES}
        assert {"quickstart", "discovery_tour", "open_data_integration",
                "lakehouse_pipeline", "ml_augmentation"} <= names
