"""The package holds what its runner reaches: every name a module exports has
a reader in the package. Code only the tests run lives in tests/demos.py."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bosonsynth"

# Exported names the package itself never reads, each with the reason it stays.
ALLOWED = {
    "expm": "the dense exponential the tests check gates against, and a boundary "
    "perfbench/tracer.py patches",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(owner, name) for every name and attribute read in the module, owner
    being the top-level function or class it sits in (None at module level).
    Import lines and the strings of __all__ read no name."""
    found = set()
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add((owner, sub.id))
            elif isinstance(sub, ast.Attribute):
                found.add((owner, sub.attr))
    return found


def test_every_exported_name_has_a_reader_in_the_package():
    """A name in a module's __all__ is read in src/bosonsynth/ outside its own
    definition and outside those of exported names with no such reader, so a
    helper that only a test-only builder calls is test-only too. __init__ is
    skipped: it re-exports names checked where they are defined, and the
    package version."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    exports = [(m, name) for m, tree in trees.items() if m != "__init__" for name in _exports(tree)]
    dead: set[tuple[str, str]] = set()

    def read_elsewhere(export: tuple[str, str]) -> bool:
        return any(
            name == export[1] and (m, owner) != export and (m, owner) not in dead
            for m, found in reads.items()
            for owner, name in found
        )

    while newly := {e for e in exports if e not in dead and not read_elsewhere(e)}:
        dead |= newly
    unused = sorted(f"{m}.{name}" for m, name in dead if name not in ALLOWED)
    assert not unused, f"exported but never read in the package: {', '.join(unused)}"
