"""The benchmark under perfbench/ imports asymlab by name; a name deleted from
asymlab would otherwise show only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def asymlab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of every `from asymlab... import name` in a file, and
    (module, None) of every `import asymlab...`, nested imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "asymlab" or node.module.startswith("asymlab.")):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "asymlab"]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_benchmark_imports_resolve():
    imports = {(str(path.relative_to(PERFBENCH)), module, name)
               for path in sorted(PERFBENCH.rglob("*.py"))
               for module, name in asymlab_imports(path)}
    assert len(imports) >= 10  # the glob and the parser found the benchmark's imports
    assert [i for i in sorted(imports, key=str) if not resolves(*i[1:])] == []
