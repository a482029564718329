"""The package holds only what it calls or documents."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlinbae"


def _names(node):
    """Every name node mentions: variables, attributes and import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_definition_has_a_caller():
    """Each top-level function and class of src/qlinbae is referenced in
    src/qlinbae outside its own body, or named in backticks in README.md
    (`name` or a dotted `module.name`). A helper that only tests call
    belongs in tests/."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = {span.rsplit(".", 1)[-1]
                  for span in re.findall(r"`([\w.]+)`", readme)}
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    mentions = [set(_names(stmt)) for stmt in statements]
    uncalled = [
        f"{module}.{stmt.name}"
        for module, tree in modules.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in documented
        and not any(stmt.name in names for other, names
                    in zip(statements, mentions) if other is not stmt)]
    assert not uncalled, uncalled
