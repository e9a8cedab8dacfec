import ast
from pathlib import Path

from asymlab import asymmetry

PACKAGE = Path(asymmetry.__file__).parent


def _imported_modules(path: Path, modules: set[str]) -> set[str]:
    """The package modules a source file imports anywhere, at top level or
    inside a function: `from . import m`, `from .m import x`, `import
    asymlab.m` and `from asymlab.m import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for parts in (a.name.split(".") for a in node.names):
                if parts[0] == "asymlab":
                    found.update(parts[1:2])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["asymlab"]:
                    continue
                parts = parts[1:]
            # from .m import x names m; from . import m names each imported name
            found.update(parts[:1] or [a.name for a in node.names])
    return found & modules


def _import_graph() -> dict[str, set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    return {m: _imported_modules(PACKAGE / f"{m}.py", modules) - {m} for m in modules}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that ends where it starts, or None."""
    state: dict[str, int] = {}  # 1 on the DFS stack, 2 done
    stack: list[str] = []

    def visit(m):
        state[m] = 1
        stack.append(m)
        for n in sorted(graph[m]):
            if state.get(n) == 1:
                return stack[stack.index(n):] + [n]
            if n not in state and (found := visit(n)):
                return found
        state[m] = 2
        stack.pop()
        return None

    for m in sorted(graph):
        if m not in state and (found := visit(m)):
            return found
    return None


def test_the_cycle_finder_finds_a_deferred_import_cycle(tmp_path):
    graph = {"generators": {"asymmetry"}, "asymmetry": {"generators", "multiindex"},
             "multiindex": set()}
    assert _cycle(graph) == ["asymmetry", "generators", "asymmetry"]
    source = tmp_path / "g.py"
    source.write_text("from . import tensorio\n"
                      "def f():\n    from .asymmetry import certify\n"
                      "import asymlab.metrics\nfrom asymlab.sprites import PALETTE\n")
    assert _imported_modules(source, {"asymmetry", "tensorio", "metrics", "sprites", "cli"}) == {
        "asymmetry", "tensorio", "metrics", "sprites"}


def test_the_package_has_no_import_cycle():
    graph = _import_graph()
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))
    # preset_generator verifies its draws with asymmetry, which needs nothing back
    assert "asymmetry" in graph["generators"] and "generators" not in graph["asymmetry"]
