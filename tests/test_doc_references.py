"""Every name and path the top-level docs point at must exist.

Scans the backticked spans of the repository's reference documents.  A
span that is a dotted ``repro.*`` name must import (module prefix, then
attributes); a span that looks like a repository path must exist,
resolved against the repository root, the document's own directory, or
``src/repro``.  The benchmark ledger's output directory is gitignored,
so paths under it are allowed without existing.  A source file that
cites a ``DESIGN.md`` section by its quoted title must name a heading
that exists.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "src/repro/structured/README.md", "benchmarks/e2e/README.md")
GENERATED = ("benchmarks/e2e/out/",)

_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"repro(\.\w+)+")
_PATH = re.compile(r"[\w.\-]+(/[\w.\-]*)+")
_EXTENSIONS = (".py", ".md", ".json", ".txt", ".yml", ".yaml", ".toml", ".cfg")
_TOP_DIRS = ("src", "tests", "benchmarks", "examples", ".github")
_DESIGN_CITE = re.compile(r'DESIGN\.md[,\s(]*"([^"]+)"')


def _spans(doc: str) -> list:
    return _SPAN.findall((ROOT / doc).read_text())


def _is_path(span: str) -> bool:
    if not _PATH.fullmatch(span):
        return False
    return (
        span.endswith("/")
        or span.endswith(_EXTENSIONS)
        or span.split("/", 1)[0] in _TOP_DIRS
    )


def _resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _resolves_path(doc: str, span: str) -> bool:
    if span.startswith(GENERATED):
        return True
    bases = (ROOT, (ROOT / doc).parent, ROOT / "src" / "repro")
    return any((base / span).exists() for base in bases)


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    names = {s.split("(", 1)[0] for s in _spans(doc)}
    dangling = sorted(n for n in names if _DOTTED.fullmatch(n) and not _resolves_dotted(n))
    assert not dangling, f"{doc} names missing objects: {dangling}"


@pytest.mark.parametrize("doc", DOCS)
def test_paths_exist(doc):
    paths = {s for s in _spans(doc) if _is_path(s)}
    dangling = sorted(p for p in paths if not _resolves_path(doc, p))
    assert not dangling, f"{doc} names missing paths: {dangling}"


def test_cited_design_sections_exist():
    """``DESIGN.md, "Section"`` in a source docstring names a real heading."""
    headings = set(re.findall(r"^#+ (.+)$", (ROOT / "DESIGN.md").read_text(), re.M))
    cited = {}
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for section in _DESIGN_CITE.findall(path.read_text()):
                cited.setdefault(section, []).append(str(path.relative_to(ROOT)))
    assert cited, "no DESIGN.md section citations found"
    missing = {s: files for s, files in cited.items() if s not in headings}
    assert not missing, f"DESIGN.md has no such section: {missing}"


def test_scan_sees_references():
    """The scan is not vacuous: each document's spans include names or paths."""
    for doc in DOCS:
        spans = _spans(doc)
        assert any(_is_path(s) or _DOTTED.fullmatch(s.split("(", 1)[0]) for s in spans), doc
