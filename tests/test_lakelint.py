"""Tier-1 gate: the repository is lakelint-clean and the rules have teeth.

This is the enforcement half of ``tools/lakelint.py`` — the default
engine run over ``src``, ``benchmarks`` and ``tools`` must come back
clean with at least five active rules, and deliberately seeded
violations must still fire (so a "clean" result means the rules ran,
not that they rotted)."""

import json
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis import SCHEMA, LintEngine, default_rules
from repro.analysis.rules import (
    LockAcrossBlockingRule,
    LockDisciplineRule,
    RegistryCoordsRule,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINT_PATHS = ["src", "benchmarks", "tools"]


def _lakelint(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lakelint.py"), *argv],
        capture_output=True, text=True, cwd=REPO_ROOT)


class TestRepositoryIsClean:
    def test_default_run_is_clean_with_at_least_five_rules(self):
        rules = default_rules()
        assert len(rules) >= 5, "the engine must ship >= 5 active rules"
        result = LintEngine(rules).run(
            [REPO_ROOT / p for p in LINT_PATHS], root=REPO_ROOT)
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings)
        assert result.files_scanned > 100  # the whole tree, not a subset


class TestRulesHaveTeeth:
    """Seeded violations must fire with file:line — guards against a rule
    silently matching nothing."""

    def _seed(self, tmp_path, rel, source):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    def test_seeded_lock_discipline_violation_fires(self, tmp_path):
        self._seed(tmp_path, "repro/runtime/racy.py", """
            import threading

            class Racy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}

                def poke(self, key):
                    self._state[key] = 1
        """)
        result = LintEngine([LockDisciplineRule()]).run([tmp_path], root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "lock-discipline"
        assert finding.location == "repro/runtime/racy.py:10"

    def test_seeded_coordinate_violation_fires(self, tmp_path):
        self._seed(tmp_path, "repro/discovery/bogus.py", """
            from repro.core.registry import Function, SystemInfo, register_system

            @register_system(SystemInfo(
                name="bogus",
                functions=(Function.NOT_A_REAL_FUNCTION,),
            ))
            class Bogus:
                pass
        """)
        rule = RegistryCoordsRule(survey_map="bogus")  # live registry vocabulary
        result = LintEngine([rule]).run([tmp_path], root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "registry-coords"
        assert finding.location == "repro/discovery/bogus.py:6"
        assert "Function.NOT_A_REAL_FUNCTION" in finding.message

    def test_stripped_server_ingest_pragma_fires(self, tmp_path):
        # the tree's one sanctioned lock-across-blocking site: serving
        # writes serialize on purpose, so the ingest runs under the lock
        source = (REPO_ROOT / "src/repro/serving/server.py").read_text()
        pragma = "  # lakelint: disable=lock-across-blocking"
        assert source.count(pragma) == 1
        line = source[:source.index(pragma)].count("\n") + 1
        self._seed(tmp_path, "repro/serving/server.py",
                   source.replace(pragma, ""))
        result = LintEngine([LockAcrossBlockingRule()]).run(
            [tmp_path], root=tmp_path)
        assert [(f.location, f.message) for f in result.findings] == [
            (f"repro/serving/server.py:{line}",
             "holding LakeServer._ingest_lock: backend I/O "
             "`self.lake.ingest_table(...)`")]


class TestCliContract:
    @staticmethod
    def _clean_file(tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def fine():\n    return 1\n")
        return str(clean)

    def test_clean_run_prints_the_clean_line(self, tmp_path):
        proc = _lakelint("--rules", "exception-hygiene",
                         self._clean_file(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean:" in proc.stdout

    def test_json_report_is_clean_and_well_formed(self, tmp_path):
        # rules that judge a file on its own; the whole-tree ones
        # (traced-manifest, runtime-traced, bare-except) need the repository
        rules = ("exception-hygiene", "lock-discipline", "durable-write",
                 "lock-across-blocking", "breaker-guard")
        proc = _lakelint("--format", "json", "--rules", ",".join(rules),
                         self._clean_file(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == SCHEMA
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert len(payload["rules"]) >= 5

    def test_exit_one_on_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    x()\nexcept Exception:\n    pass\n")
        proc = _lakelint("--rules", "exception-hygiene", str(bad))
        assert proc.returncode == 1
        assert "[exception-hygiene]" in proc.stdout

    def test_exit_two_on_unknown_rule(self):
        proc = _lakelint("--rules", "no-such-rule", "src")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_exit_two_on_missing_path(self):
        proc = _lakelint("definitely/not/a/path")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = _lakelint("--list-rules")
        assert proc.returncode == 0
        for name in ("traced-manifest", "runtime-traced", "bare-except",
                     "exception-hygiene", "lock-discipline", "durable-write",
                     "lock-across-blocking", "breaker-guard",
                     "registry-coords", "bench-determinism"):
            assert name in proc.stdout

    def test_retired_rule_name_still_selects_its_successor(self, tmp_path):
        # old scripts say --rules breaker-guarded; the alias keeps them alive
        proc = _lakelint("--rules", "breaker-guarded",
                         self._clean_file(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "breaker-guard" in proc.stdout

    def test_changed_mode_exits_zero(self):
        # whatever the working tree holds right now must lint clean in
        # partial mode (whole-tree judgments are suppressed there)
        proc = _lakelint("--changed")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_changed_mode_is_partial(self, tmp_path):
        # a file subset must not trigger whole-tree rules: a single clean
        # file run with partial=True produces no stale-allowlist or
        # manifest findings even though the rest of the tree is absent
        clean = tmp_path / "clean.py"
        clean.write_text("def fine():\n    return 1\n")
        result = LintEngine(default_rules()).run(
            [clean], root=tmp_path, partial=True)
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings)
