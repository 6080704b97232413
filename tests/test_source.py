"""Static checks over the package source, and that the benchmark's spans
still find every function they wrap."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pgsynth"


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Value | _Unknown" names types too
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse('import os\nfrom a import b, c as d\nx: "d" = b\n')
    assert unused_imports(tree) == ["os"]


def private_imports(tree: ast.Module) -> list[str]:
    """The private names a package module takes from another: `_name` in a
    relative `from` import, or `mod._name` on a module imported from the
    package with `from . import mod`."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    names += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    return sorted(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_import_check_sees_a_private_name():
    tree = ast.parse(
        "from . import sexpr\nfrom .cegis import _clauses, conjoin\n"
        "from .lang import _Unknown as U\nsexpr._atom(1)\nsexpr.__name__\n"
    )
    assert private_imports(tree) == ["_Unknown", "_clauses", "sexpr._atom"]


def nested_imports(tree: ast.Module) -> list[int]:
    """The lines of the imports that are not statements of the module
    itself, e.g. an import inside a function that runs on every call."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_nested_import_check_sees_an_import_in_a_function():
    tree = ast.parse(
        "import os\nfrom a import b\n\ndef f():\n    from .lang import Nil\n"
        "    return Nil\n\nif b:\n    import sys\n"
    )
    assert nested_imports(tree) == [5, 9]


# every Python file of the repository; perfbench is read here, never imported
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


# pyproject.toml allows Python 3.10
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_sources_parse_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_python_3_10_grammar_check_rejects_an_exception_group():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def mentioned_names(node: ast.AST):
    """The names node mentions: a loaded name, an attribute, an imported
    name, or a string constant that is an identifier (perfbench/spans.py
    looks functions up by string)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value


def unnamed_definitions(trees: dict[Path, ast.Module], module: Path) -> list[str]:
    """The module-level functions, classes and assigned names of
    trees[module], dunders aside, that no tree mentions outside the
    statement that defines them."""
    where: dict[str, set] = {}
    for path, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for name in mentioned_names(stmt):
                where.setdefault(name, set()).add((path, i))
    return sorted(
        name
        for i, stmt in enumerate(trees[module].body)
        for name in defined_names(stmt)
        if not name.startswith("__") and not where.get(name, set()) - {(module, i)}
    )


@pytest.fixture(scope="module")
def source_trees():
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named_somewhere(path, source_trees):
    assert unnamed_definitions(source_trees, path) == []


def test_definition_check_sees_an_unused_helper():
    trees = {
        Path("m.py"): ast.parse("def _helper():\n    return _helper()\n\ndef used():\n    pass\n\nX = 1\n"),
        Path("n.py"): ast.parse("from m import used\nimport m\nprint(getattr(m, 'X'))\n"),
    }
    assert unnamed_definitions(trees, Path("m.py")) == ["_helper"]


# spans.install over the modules perfbench/run.py traces
INSTALL_SPANS = """
import importlib, sys
sys.path[:0] = sys.argv[1:]
import run, spans
pg = {m: importlib.import_module("pgsynth." + m) for m in run.MODULES}
spans.install(spans.Tracer(), pg)
"""


def test_benchmark_spans_install():
    # spans.install wraps functions by name, so a renamed or deleted one
    # fails here, in a fresh interpreter whose pgsynth no test has touched
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_SPANS, *paths], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
