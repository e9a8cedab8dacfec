import ast
import os
import subprocess
import sys
import textwrap
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


# the training stack, which certification and compositional generalization never use
TRAINING = {"attention", "autoencoder", "metrics"}


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for n in graph[todo.pop()] - seen:
            seen.add(n)
            todo.append(n)
    return seen


def test_the_certification_layers_import_no_training_module():
    graph = _import_graph()
    # everything experiments imports at its top, directly or through another module
    for m in ("multiindex", "derivatives", "asymmetry", "generators", "tensorio", "sprites"):
        assert not _reachable(graph, m) & TRAINING, m


def _run_fresh(code: str) -> str:
    """The standard output of code run in a fresh interpreter that imports this
    checkout's asymlab."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_certification_runs_never_load_the_training_stack(tmp_path):
    loaded = _run_fresh(f"""
        import sys
        import asymlab.experiments
        import asymlab.cli
        from asymlab.experiments import exp_characterization, exp_compgen

        exp_characterization({{"presets_per_n": 1, "probes": 2, "equiv_samples": 1}},
                             out={str(tmp_path / "c")!r})
        exp_compgen({{"seeds": [0], "n_train": 60, "n_eval_cpe": 20, "n_eval_support": 20}},
                    out={str(tmp_path / "g")!r})
        for name in sys.modules:
            print(name)
    """).splitlines()
    assert (tmp_path / "c" / "results.json").exists() and (tmp_path / "g" / "results.json").exists()
    stack = {f"asymlab.{m}" for m in TRAINING} | {"concurrent.futures.process", "multiprocessing"}
    assert "asymlab.generators" in loaded and not stack & set(loaded)


def test_training_loads_the_stack_on_first_use_through_a_replaceable_train():
    # the benchmark times training by replacing experiments.train before the first run
    out = _run_fresh("""
        import sys
        from asymlab import experiments

        assert "asymlab.autoencoder" not in sys.modules
        calls = []
        plain = experiments.train

        def counted(*args):
            calls.append(1)
            return plain(*args)

        experiments.train = counted
        r = experiments.exp_train({"data": {"count": 30, "seed": 4}, "eval_images": 1,
                                   "train": {"iterations": 2, "batch_size": 4, "warmup": 1}})
        assert "asymlab.autoencoder" in sys.modules
        print(len(calls))
        print(sorted(m["metric"] for m in r.metrics if m["run_id"] == "eval"))
    """)
    assert out.splitlines() == ["1", "['j_ari', 'jis']"]
