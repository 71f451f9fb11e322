"""Layout rules for ``src/pcubed``.

Test-only code stays out of ``src``: each public function there has a caller
in the library, the demos or the benchmark, not only in the tests.  And a
module's private names stay its own: no module in ``src/pcubed`` imports an
underscore-prefixed name from another (the tests and demos may)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcubed"

# public functions in src that only the tests call, each with its reason
TEST_SIDE = {
    "push_automorphism": "test-side until criterion 8 runs in verify (ROADMAP item 3)",
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


def test_every_public_src_function_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in TEST_SIDE
    ]
    assert uncalled == [], "move test-only functions to tests/oracles.py"


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
