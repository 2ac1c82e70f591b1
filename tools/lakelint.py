"""lakelint CLI: run the unified AST lint engine over the repository.

Run from the repository root::

    python tools/lakelint.py                      # src benchmarks tools
    python tools/lakelint.py src                  # one tree
    python tools/lakelint.py --format json        # machine-readable report
    python tools/lakelint.py --rules lock-discipline,bare-except src
    python tools/lakelint.py --changed            # only files git says changed
    python tools/lakelint.py --list-rules

``--changed`` lints only the files git reports as modified, staged or
untracked (filtered to ``.py`` under the default trees) — the fast
pre-commit loop.  Such a run is *partial*: whole-tree judgments (stale
allowlists, manifest completeness) are skipped, because a file
subset cannot prove or refute a repo-wide property.

Exit codes are stable: 0 = clean, 1 = findings, 2 = usage error (unknown
rule, missing path).  Rules, pragmas and allowlists are documented in
``docs/LINT.md``; a tier-1 test (``tests/test_lakelint.py``) keeps the
default run clean on every test run.
"""

import argparse
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis import (  # noqa: E402
    LintEngine,
    LintPathError,
    default_rules,
    render_json,
    render_text,
)

DEFAULT_PATHS = ("src", "benchmarks", "tools")


def _select_rules(spec):
    rules = default_rules()
    if not spec:
        return rules
    by_name = {rule.name: rule for rule in rules}
    wanted = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in by_name]
    if unknown:
        known = ", ".join(sorted(by_name))
        raise LintPathError(
            f"unknown rule(s) {', '.join(unknown)} — known rules: {known}")
    return [by_name[name] for name in wanted]


def _changed_paths(root):
    """``.py`` files under the default trees that git says differ.

    Union of unstaged (``git diff``), staged (``--cached``) and untracked
    (``ls-files --others``) paths; deleted files drop out via the
    existence check.
    """
    commands = (
        ["git", "diff", "--name-only"],
        ["git", "diff", "--name-only", "--cached"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names = set()
    for command in commands:
        proc = subprocess.run(command, cwd=root, capture_output=True,
                              text=True, check=False)
        if proc.returncode != 0:
            raise LintPathError(
                f"--changed needs a git checkout: `{' '.join(command)}` "
                f"failed: {proc.stderr.strip() or proc.returncode}")
        names.update(line.strip() for line in proc.stdout.splitlines()
                     if line.strip())
    prefixes = tuple(prefix + "/" for prefix in DEFAULT_PATHS)
    return sorted(
        root / name for name in names
        if name.endswith(".py") and name.startswith(prefixes)
        and (root / name).is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lakelint",
        description="AST static analysis for the data-lake framework")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--rules", default="",
                        help="comma-separated rule names to run "
                             "(default: all active rules)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the active rules and exit")
    parser.add_argument("--changed", action="store_true",
                        help="lint only files git reports as modified, "
                             "staged or untracked (partial run: whole-tree "
                             "rules are skipped)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.name}: {rule.description}")
        return 0

    # relative paths resolve against the cwd, falling back to the repo
    # root so `python tools/lakelint.py` works from anywhere
    paths = [path if path.exists() or path.is_absolute() else REPO_ROOT / path
             for path in map(pathlib.Path, args.paths)]

    try:
        rules = _select_rules(args.rules)
        if args.changed:
            paths = _changed_paths(REPO_ROOT)
            if not paths:
                print("lakelint: no changed .py files under "
                      + ", ".join(DEFAULT_PATHS))
                return 0
        result = LintEngine(rules).run(paths, root=REPO_ROOT,
                                       partial=args.changed)
    except LintPathError as exc:
        print(f"lakelint: {exc}", file=sys.stderr)
        return 2

    print(render_json(result) if args.format == "json" else render_text(result))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
