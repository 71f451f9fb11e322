"""Layout rules for ``src/pcubed``.

Test-only code stays out of ``src``: each public function there, and each
public method or property of a class there, has a caller in the library, the
demos or the benchmark, not only in the tests; a method that overrides one of
a base class, such as an ``argparse.ArgumentParser.error``, has that class as
its caller.  Since that rule matches names, each public function or method
name is defined in one module only.  And a module's private names stay its
own: no module in ``src/pcubed`` imports an underscore-prefixed name from
another (the tests and demos may)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pcubed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcubed"

# public functions in src that only the tests call, each with its reason
TEST_SIDE = {
    "push_automorphism": "test-side until criterion 8 runs in verify (ROADMAP item 9)",
}


def _referenced_names() -> set[str]:
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_defs(path: Path):
    # top-level functions as (None, node), and methods of top-level classes as (class name, node)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name, f) for f in node.body if isinstance(f, ast.FunctionDef))


def _overrides_a_base_method(path: Path, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(f"pcubed.{path.stem}"), cls)
    return any(name in vars(base) for base in klass.__mro__[1:])


def test_every_public_src_function_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    uncalled = [
        ".".join(filter(None, (path.stem, cls, node.name)))
        for path in sorted(SRC.glob("*.py"))
        for cls, node in _public_defs(path)
        if not node.name.startswith("_") and node.name not in referenced and node.name not in TEST_SIDE
        and not (cls and _overrides_a_base_method(path, cls, node.name))
    ]
    assert uncalled == [], "move test-only functions to tests/oracles.py and inline test-only methods"


def test_each_public_name_is_defined_in_one_module():
    # a name defined in two modules could be called in one and dead in the other,
    # and the caller rule above, which matches names, would not tell them apart;
    # a module may define a name twice, as graded_ring's two degree methods
    modules: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for _, node in _public_defs(path):
            if not node.name.startswith("_"):
                modules.setdefault(node.name, set()).add(path.stem)
    shared = {name: sorted(stems) for name, stems in modules.items() if len(stems) > 1}
    assert shared == {}, "rename one of the definitions, or delete the one without a caller"


def test_no_module_imports_another_modules_private_names():
    offending = []
    for path in sorted(SRC.glob("*.py")):
        # ast.walk reaches function-local imports too
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pcubed")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                if private:
                    offending.append(f"{path.name}:{node.lineno} imports {', '.join(private)} from {node.module}")
    assert offending == [], "import a public name, or move the code into the module that owns it"


def test_the_published_counts_are_read_through_their_module():
    # a name imported from pcubed.published would keep its value under a monkeypatch of the module
    offending = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("published")
    ]
    assert offending == [], "import the module, `from . import published`, and read published.<name>"


def _defining_module(name: str) -> str:
    # the one module whose top level defines or assigns ``name``
    homes = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        or (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    ]
    assert len(homes) == 1, (name, homes)
    return homes[0]


def test_the_package_re_exports_load_only_when_asked():
    # run in a child, since this process has imported every module already
    homes = {name: _defining_module(name) for name in pcubed.__all__ if name != "__version__"}
    code = (
        "import importlib, sys\n"
        "from pcubed import quadforms\n"
        "assert 'pcubed.lhs_morita' not in sys.modules, sorted(sys.modules)\n"
        "namespace = {}\n"
        "exec('from pcubed import *', namespace)\n"
        "import pcubed\n"
        f"for name, home in {homes!r}.items():\n"
        "    assert namespace[name] is getattr(importlib.import_module('pcubed.' + home), name), name\n"
        "assert namespace['__version__'] == pcubed.__version__\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
