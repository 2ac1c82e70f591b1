"""A minimal, dependency-free PEP 517 build backend for this repository.

Why it exists: the standard setuptools editable path needs the ``wheel``
package and, under pip's build isolation, network access to fetch build
requirements.  This backend has **zero build requirements** (``requires =
[]`` + ``backend-path`` in pyproject.toml), so ``pip install -e .`` and
``pip install .`` work fully offline.

It builds spec-compliant wheels by hand: a wheel is a zip archive with the
package files plus a ``*.dist-info`` directory (METADATA / WHEEL / RECORD).
The editable wheel ships a ``.pth`` file pointing at ``src/`` (PEP 660
"pth" mode).
"""

import base64
import csv
import hashlib
import io
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
TAG = "py3-none-any"
DEPENDENCIES = ("numpy", "networkx")
ROOT = os.path.dirname(os.path.abspath(__file__))


# -- wheel plumbing ------------------------------------------------------------


def _metadata() -> str:
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {NAME}",
        f"Version: {VERSION}",
        "Summary: Reproduction of 'Data Lakes: A Survey of Functions and Systems' "
        "as a working data lake framework",
        "Requires-Python: >=3.9",
        "License: MIT",
    ]
    lines.extend(f"Requires-Dist: {dep}" for dep in DEPENDENCIES)
    readme = os.path.join(ROOT, "README.md")
    if os.path.exists(readme):
        lines.append("Description-Content-Type: text/markdown")
        lines.append("")
        with open(readme, encoding="utf-8") as handle:
            lines.append(handle.read())
    return "\n".join(lines) + "\n"


def _wheel_file() -> str:
    return (
        "Wheel-Version: 1.0\n"
        "Generator: repro_build (in-tree backend)\n"
        "Root-Is-Purelib: true\n"
        f"Tag: {TAG}\n"
    )


def _record_hash(data: bytes) -> str:
    digest = hashlib.sha256(data).digest()
    return "sha256=" + base64.urlsafe_b64encode(digest).rstrip(b"=").decode("ascii")


def _write_wheel(wheel_directory: str, extra_files) -> str:
    """Assemble the wheel from (archive_path, bytes) pairs."""
    dist_info = f"{NAME}-{VERSION}.dist-info"
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    entries = list(extra_files)
    entries.append((f"{dist_info}/METADATA", _metadata().encode("utf-8")))
    entries.append((f"{dist_info}/WHEEL", _wheel_file().encode("utf-8")))
    record_rows = [
        (path, _record_hash(data), str(len(data))) for path, data in entries
    ]
    record_rows.append((f"{dist_info}/RECORD", "", ""))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(record_rows)
    entries.append((f"{dist_info}/RECORD", buffer.getvalue().encode("utf-8")))
    target = os.path.join(wheel_directory, wheel_name)
    with zipfile.ZipFile(target, "w", zipfile.ZIP_DEFLATED) as archive:
        for path, data in entries:
            archive.writestr(path, data)
    return wheel_name


def _package_files():
    """(archive_path, bytes) for every file of the package under src/."""
    src = os.path.join(ROOT, "src")
    for directory, _, filenames in sorted(os.walk(src)):
        for filename in sorted(filenames):
            if filename.endswith((".pyc", ".pyo")):
                continue
            full = os.path.join(directory, filename)
            archive_path = os.path.relpath(full, src).replace(os.sep, "/")
            with open(full, "rb") as handle:
                yield archive_path, handle.read()


# -- PEP 517 hooks ------------------------------------------------------------------


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(wheel_directory, _package_files())


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    src = os.path.join(ROOT, "src")
    pth = (f"__editable__.{NAME}-{VERSION}.pth", (src + "\n").encode("utf-8"))
    return _write_wheel(wheel_directory, [pth])


def _load_tasks():
    """Parse the ``[tool.repro.tasks]`` table from pyproject.toml.

    The values are plain ``name = "script args"`` strings, so a line scan
    suffices — no tomllib needed (the backend must import on >= 3.9).
    """
    tasks = {}
    in_section = False
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped.startswith("["):
                in_section = stripped == "[tool.repro.tasks]"
            elif in_section and "=" in stripped and not stripped.startswith("#"):
                name, _, value = stripped.partition("=")
                tasks[name.strip()] = value.strip().strip('"')
    return tasks


def main(argv=None) -> int:
    """Task-runner entry point: ``python repro_build.py lint [args...]``."""
    import subprocess
    import sys

    argv = sys.argv[1:] if argv is None else list(argv)
    tasks = _load_tasks()
    if not argv or argv[0] not in tasks:
        known = ", ".join(sorted(tasks)) or "(none defined)"
        print(f"usage: python repro_build.py <task> [args...] — tasks: {known}")
        return 2
    script, *base_args = tasks[argv[0]].split()
    command = [sys.executable, os.path.join(ROOT, script), *base_args, *argv[1:]]
    return subprocess.call(command)


def build_sdist(sdist_directory, config_settings=None):
    import tarfile

    sdist_name = f"{NAME}-{VERSION}.tar.gz"
    base = f"{NAME}-{VERSION}"
    target = os.path.join(sdist_directory, sdist_name)
    with tarfile.open(target, "w:gz") as archive:
        for top in ("src", "tests", "benchmarks", "examples", "tools", "docs"):
            path = os.path.join(ROOT, top)
            if os.path.isdir(path):
                archive.add(path, arcname=f"{base}/{top}")
        for name in ("pyproject.toml", "repro_build.py", "setup.py", "README.md",
                     "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
            path = os.path.join(ROOT, name)
            if os.path.exists(path):
                archive.add(path, arcname=f"{base}/{name}")
    return sdist_name


if __name__ == "__main__":
    raise SystemExit(main())
