"""Import budget: what each entry point loads in a fresh interpreter.

Every (tracker, sequence) unit of a `cmd:` tracker starts a new
`trackbench.tracker_cli` process, and one that does not declare
`runs=many` starts one per run, so whatever that module imports is
paid at least once per unit. The evaluator's own imports are paid by
every `trackbench` command. These checks run in a subprocess because
the test process itself has long since imported everything.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import trackbench

SRC = os.path.dirname(os.path.dirname(os.path.abspath(trackbench.__file__)))


def run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter; returns the last line it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout
    return out.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """Module names in sys.modules after running `code` in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(run_fresh(script)))


def test_tracker_process_imports_only_what_it_serves_with():
    loaded = loaded_after("import trackbench.tracker_cli")
    heavy = {
        "numpy", "trackbench.runner", "trackbench.analysis", "trackbench.cli",
        "trackbench.measures", "trackbench.trajectory", "trackbench.io_formats",
        "concurrent.futures",
    }
    assert "trackbench.tracker_cli" in loaded
    assert not heavy & loaded, sorted(heavy & loaded)


def served_imports(argv: list[str]) -> set[str]:
    """Modules a `python -m trackbench.tracker_cli` process loads to serve one run.

    The process ends in os._exit, so it cannot report sys.modules;
    -X importtime lists every module it imports on stderr instead.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "trackbench.tracker_cli", *argv],
        input="hello version=1 seed=0\ninitialize f1 10,40,20,16\nframe f2\nquit\n",
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.startswith(f"hello name={argv[0]} "), proc
    assert len(proc.stdout.splitlines()) == 3, proc
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_tracker_process_started_as_a_module_loads_only_its_layers():
    loaded = served_imports(["tts"])
    assert {m for m in loaded if m.split(".")[0] == "trackbench"} == {
        "trackbench", "trackbench.errors", "trackbench.geometry", "trackbench.dataset",
        "trackbench.theoretical",
    }
    assert "numpy" not in loaded


@pytest.mark.parametrize("kind", ["tto", "scripted"])
def test_tracker_process_builds_no_dataclass_and_no_argparse_parser(kind, tmp_dataset):
    # dataclasses pulls in inspect (and with it ast and dis), argparse
    # pulls in gettext; neither is needed to serve a run.
    seq_dir = os.path.join(tmp_dataset, "bravo")
    argv = (["tto", "--sequence", seq_dir] if kind == "tto" else
            ["scripted", "--groundtruth", os.path.join(seq_dir, "groundtruth.txt"),
             "--params=center_noise=1.5,scale_noise=0.03,seed=9"])
    loaded = served_imports(argv)
    unneeded = {"dataclasses", "inspect", "argparse", "gettext"}
    assert not unneeded & loaded, sorted(unneeded & loaded)


def test_evaluator_loads_no_openssl_or_socket():
    # One sha256 per run seed does not need hashlib's OpenSSL binding.
    loaded = loaded_after("import trackbench.cli")
    assert "trackbench.runner" in loaded
    assert not {"_hashlib", "socket"} & loaded, sorted({"_hashlib", "socket"} & loaded)


def test_evaluator_loads_no_thread_pool_or_logging():
    # Plain threads run the units; concurrent.futures would pull in logging.
    loaded = loaded_after("import trackbench.cli")
    unneeded = {"concurrent.futures", "logging"}
    assert not unneeded & loaded, sorted(unneeded & loaded)


def test_analyze_loads_no_numpy_random_or_masked_arrays(tmp_path):
    # Clustering's jitter comes from a stored table and its median from a
    # sort: numpy.random would load secrets and OpenSSL, np.median numpy.ma.
    from trackbench import cli

    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    assert cli.main(["synth", "--out", data, "--sequences", "8", "--seed", "3"]) == 0
    assert cli.main([
        "run", "--dataset", data, "--out", out, "--tracker", "tta", "--tracker", "tts",
        "--tracker", "ttf", "--tracker", "tto",
        "--tracker", "scripted:name=jig,center_noise=2.5,scale_noise=0.05,seed=5",
        "--repetitions", "2", "--seed", "11",
    ]) == 0
    measures = os.path.join(out, "measures.tsv")
    loaded = loaded_after(
        "import trackbench.cli as cli\n"
        f"assert cli.main(['analyze', '--measures', {measures!r}, '--out', {out!r}]) == 0"
    )
    assert os.path.exists(os.path.join(out, "clusters.tsv"))
    assert "numpy" in loaded
    unneeded = {"numpy.random", "numpy.ma", "secrets", "_hashlib"}
    assert not unneeded & loaded, sorted(unneeded & loaded)


def test_importing_the_cli_builds_no_parser():
    # main builds the argparse tree on its first call and reuses it.
    counts = run_fresh(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import trackbench.cli as cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    cli.main(['plot', '--type', 'ar'])\n"
        "    counts.append(len(built))\n"
        "print(*counts)"
    )
    at_import, first, second = map(int, counts.split())
    assert at_import == 0
    assert first > 0
    assert second == first


def test_bare_package_import_loads_no_numpy():
    loaded = loaded_after("import trackbench")
    assert "numpy" not in loaded


def package_sources() -> list[tuple[str, str]]:
    """(file name, source) of each module in the package."""
    package = os.path.dirname(os.path.abspath(trackbench.__file__))
    sources = []
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                sources.append((filename, fh.read()))
    return sources


def test_every_exported_name_is_defined_by_its_module():
    # One home per name: a class or function exported from a module that
    # only imported it would give that name a second import path.
    misplaced = []
    for filename, _ in package_sources():
        name = filename[:-3]
        module = importlib.import_module(
            "trackbench" if name == "__init__" else f"trackbench.{name}")
        for n in getattr(module, "__all__", ()):
            if not hasattr(module, n):
                misplaced.append(f"{filename}: {n} is missing")
                continue
            obj = getattr(module, n)
            if ((inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__ != module.__name__):
                misplaced.append(f"{filename}: {n} is {obj.__module__}'s")
    assert misplaced == []


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads.

    A name in `__all__` or in a string annotation counts as read.
    """
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                bound.append((node.lineno, name if alias.asname else name.split(".")[0]))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_what_it_does_not_use():
    unused = [f"{filename}:{line}: {name}" for filename, source in package_sources()
              for line, name in unused_imports(source)]
    assert unused == []


def redundant_local_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import inside a function from a module that
    the file also imports from at top level; such an import defers nothing.

    `from . import x` counts as importing module `.x`, so a function may
    still load a submodule that the top level does not.
    """
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        prefix = "." * node.level
        if node.module is None:
            return [prefix + alias.name for alias in node.names]
        return [prefix + node.module]

    def imports(tree):
        return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]

    tree = ast.parse(source)
    local = {n for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in imports(f)}
    top = {m for n in imports(tree) if n not in local for m in modules(n)}
    return sorted((n.lineno, m) for n in local for m in modules(n) if m in top)


def test_no_function_imports_from_a_module_imported_at_top_level():
    redundant = [f"{filename}:{line}: {module}" for filename, source in package_sources()
                 for line, module in redundant_local_imports(source)]
    assert redundant == []


def import_cycle(sources: list[tuple[str, str]]) -> list[str]:
    """A cycle of modules in the graph of relative imports, or [].

    Every `from . import x` and `from .x import y` is an edge, at top
    level or inside a function alike: a deferred import still ties the
    two modules together.
    """
    names = {filename[:-3] for filename, _ in sources}
    graph = {}
    for filename, source in sources:
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[filename[:-3]] = sorted(targets & names)

    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in graph[module]:
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_no_import_cycle_between_modules():
    assert import_cycle(package_sources()) == []


def test_import_cycle_check_sees_function_local_imports():
    sources = [
        ("a.py", "from .b import f\n"),
        ("b.py", "from . import c\n"),
        ("c.py", "import os\ndef g():\n    from .a import h\n"),
        ("d.py", "from .a import f\n"),
    ]
    assert import_cycle(sources) == ["a", "b", "c", "a"]
    sources[2] = ("c.py", "import a\ndef g():\n    from .. import a\n")
    assert import_cycle(sources) == []


def test_redundant_local_import_check_sees_each_kind_of_import():
    source = (
        "import os\n"
        "from . import a\n"
        "from .b import c\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "def f():\n"
        "    import os.path, json\n"
        "    from . import plots\n"
        "    from .b import d\n"
        "    from ..b import e\n"
        "    def g():\n"
        "        import os\n"
    )
    assert redundant_local_imports(source) == [(9, "json"), (11, ".b"), (14, "os")]


def test_unused_import_check_sees_each_kind_of_use():
    source = (
        "import os, os.path as osp\n"
        "from a import (b, c as d, e, f, g)\n"
        "__all__ = ['e']\n"
        "def h(x: 'f') -> None:\n"
        "    return b(osp)\n"
        "g = 1\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "d"), (2, "g")]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trackbench.no_such_name
