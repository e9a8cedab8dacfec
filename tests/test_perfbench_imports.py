"""The benchmark under perfbench/ imports asymlab by name and uses attributes of
the asymlab modules it imports whole; a name deleted from asymlab would
otherwise show only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def asymlab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of every `from asymlab... import name` in a file, and
    (module, None) of every `import asymlab...`, nested imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_asymlab(node.module):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if _is_asymlab(alias.name)]
    return found


def _is_asymlab(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "asymlab"


def module_attribute_uses(path: Path) -> list[tuple[str, str]]:
    """(module, attr) of every `alias.attr` and `self.alias.attr` in a file where
    alias names a whole asymlab module: bound by `from asymlab import alias` (the
    package holds only modules), `import asymlab.x as alias`, or `import asymlab.x`
    (alias asymlab)."""
    tree = ast.parse(path.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "asymlab":
            modules.update({a.asname or a.name: f"asymlab.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or "asymlab": a.name if a.asname else "asymlab"
                            for a in node.names if _is_asymlab(a.name)})
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"):
            alias = owner.attr
        else:
            alias = owner.id if isinstance(owner, ast.Name) else None
        if alias in modules:
            uses.append((modules[alias], node.attr))
    return uses


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


def test_benchmark_module_attributes_resolve():
    # experiments.train among them: the train workload swaps it for a timed copy
    uses = {(str(path.relative_to(PERFBENCH)), module, attr)
            for path in sorted(PERFBENCH.rglob("*.py"))
            for module, attr in module_attribute_uses(path)}
    assert {("asymlab.experiments", "train"), ("asymlab.sprites", "make_dataset")} <= {
        u[1:] for u in uses}
    assert [u for u in sorted(uses) if not resolves(*u[1:])] == []
