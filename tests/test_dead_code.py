import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lvk"


def _uses(tree) -> Counter:
    """Names read in tree, as a bare name or an attribute; imports are not uses."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_has_a_caller():
    # a module-level _name in src/lvk that no code in src/lvk uses, other than
    # inside its own definition, is dead and gets deleted
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] <= _uses(node)[node.name]
    ]
    assert dead == []
