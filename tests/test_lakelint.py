"""Tier-1 gate: the repository is lakelint-clean and the rules have teeth.

This is the enforcement half of ``tools/lakelint.py`` — the default
engine run over ``src``, ``benchmarks`` and ``tools`` must come back
clean with at least five active rules, and deliberately seeded
violations must still fire (so a "clean" result means the rules ran,
not that they rotted)."""

import importlib.util
import json
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis import SCHEMA, LintEngine, default_rules
from repro.analysis.rules import LockAcrossBlockingRule, LockDisciplineRule

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINT_PATHS = ["src", "benchmarks", "tools"]


def _lakelint(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lakelint.py"), *argv],
        capture_output=True, text=True, cwd=REPO_ROOT)


def _lakelint_rooted_at(monkeypatch, root):
    """``tools/lakelint.py`` imported by path, its ``REPO_ROOT`` set to
    *root*; git finds no repository above *root*."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(root.parent))
    for name in ("GIT_DIR", "GIT_WORK_TREE", "GIT_INDEX_FILE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the CLI prepends src/
    spec = importlib.util.spec_from_file_location(
        "_lakelint_cli", REPO_ROOT / "tools" / "lakelint.py")
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    monkeypatch.setattr(cli, "REPO_ROOT", root)
    return cli


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
        rules = ("exception-hygiene", "lock-discipline",
                 "lock-across-blocking", "bench-determinism")
        proc = _lakelint("--format", "json", "--rules", ",".join(rules),
                         self._clean_file(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == SCHEMA
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert sorted(rule["name"] for rule in payload["rules"]) == sorted(rules)

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
                     "exception-hygiene", "lock-discipline",
                     "lock-across-blocking", "bench-determinism"):
            assert name in proc.stdout

    def test_changed_mode_exits_zero(self, monkeypatch, tmp_path):
        # a repository of its own: a committed module, then modified, and
        # an untracked one are exactly the changed files, and they lint
        # clean in partial mode (whole-tree judgments are suppressed there)
        def git(*args):
            subprocess.run(["git", "-c", "user.name=lakelint",
                            "-c", "user.email=lakelint@example.invalid",
                            "-c", "commit.gpgsign=false", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        cli = _lakelint_rooted_at(monkeypatch, tmp_path)
        committed = tmp_path / "src" / "committed.py"
        committed.parent.mkdir()
        committed.write_text("def fine():\n    return 1\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "a clean module")
        committed.write_text("def fine():\n    return 2\n")
        untracked = tmp_path / "src" / "untracked.py"
        untracked.write_text("def also_fine():\n    return 3\n")
        assert cli._changed_paths(tmp_path) == [committed, untracked]
        assert cli.main(["--changed"]) == 0

    def test_changed_mode_needs_a_git_checkout(self, monkeypatch, tmp_path, capsys):
        cli = _lakelint_rooted_at(monkeypatch, tmp_path)
        assert cli.main(["--changed"]) == 2
        assert "needs a git checkout" in capsys.readouterr().err

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
