"""The package holds what its runner reaches: every name a module exports, and
every public method and property of an exported class, has a reader in the
package. Code only the tests run lives in tests/demos.py."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bosonsynth"

# Exported names the package itself never reads, each with the reason it stays.
ALLOWED = {
    "expm": "the dense exponential the tests check gates against, and a boundary "
    "perfbench/tracer.py patches",
}
# Public members of exported classes that the package never reads, likewise.
ALLOWED_MEMBERS = {
    "ParamUnitary.expand": "the gate-by-gate expansion that tier-1 checks the "
    "interpreter's eval and ledger against",
    "GateSequence.to_operator": "the product of an expansion, which the planned "
    "gate-list export (ROADMAP item 3) will read",
}


def _modules() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by name. Finding none fails, so
    the checks below cannot pass on an empty directory."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert trees, f"no modules under {PACKAGE}"
    return trees


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
    trees = _modules()
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


def _members(cls: ast.ClassDef) -> list[str]:
    """The public methods and properties defined in a class body."""
    return [
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def test_every_public_member_of_an_exported_class_has_a_reader_in_the_package():
    """A public method or property of a class in a module's __all__ is read
    in src/bosonsynth/ outside its own class. The check goes by name, as the
    one above does: a member passes when any other class or function reads
    an attribute or name of its spelling, whatever object that is on (a
    method `error` would pass on the reads of `Measurement.error`)."""
    trees = _modules()
    reads = {module: _reads(tree) for module, tree in trees.items()}
    unused = []
    for m, tree in trees.items():
        exported = set(_exports(tree))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for member in _members(cls):
                read = any(
                    name == member and (module, owner) != (m, cls.name)
                    for module, found in reads.items()
                    for owner, name in found
                )
                if not read and f"{cls.name}.{member}" not in ALLOWED_MEMBERS:
                    unused.append(f"{m}.{cls.name}.{member}")
    assert not unused, f"public members never read in the package: {', '.join(sorted(unused))}"
