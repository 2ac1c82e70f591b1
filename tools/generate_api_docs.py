"""Generate docs/API.md from package docstrings and public exports.

Run from the repository root::

    python tools/generate_api_docs.py
"""

import importlib
import inspect
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

PACKAGES = [
    "repro.core", "repro.storage", "repro.ml", "repro.ingestion",
    "repro.modeling", "repro.organization", "repro.discovery",
    "repro.integration", "repro.enrichment", "repro.cleaning",
    "repro.evolution", "repro.provenance", "repro.exploration",
    "repro.lakeml", "repro.datagen", "repro.bench", "repro.obs",
    "repro.runtime", "repro.analysis", "repro.analysis.sanitizer",
    "repro.faults", "repro.serving", "repro.durability",
]


def first_paragraph(text):
    if not text:
        return ""
    paragraphs = [p.strip().replace("\n", " ") for p in text.split("\n\n") if p.strip()]
    return paragraphs[0] if paragraphs else ""


def describe_package(name):
    module = importlib.import_module(name)
    lines = [f"## `{name}`", "", first_paragraph(module.__doc__), ""]
    exports = getattr(module, "__all__", [])
    if exports:
        lines.append("| export | kind | summary |")
        lines.append("|---|---|---|")
        for export_name in exports:
            obj = getattr(module, export_name, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            else:
                kind = type(obj).__name__
            summary = first_paragraph(inspect.getdoc(obj) or "")
            if len(summary) > 110:
                summary = summary[:107] + "…"
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{export_name}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines)


def main():
    out = [
        "# API reference",
        "",
        "Generated by `python tools/generate_api_docs.py` — summaries come from",
        "the live docstrings; see the modules for full documentation.",
        "",
    ]
    for package in PACKAGES:
        out.append(describe_package(package))
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} sections)")


if __name__ == "__main__":
    main()
