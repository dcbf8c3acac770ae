import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lvk"
BENCH = SRC.parent.parent / "bench"


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


# public names that only the benchmark's span table names, as strings; each
# goes once the span that traces it does
SPAN_ONLY = {"linalg.determinant", "pipeline.gamma_determinants", "unipoly.resultant"}


def test_every_public_function_has_a_reader():
    # a public function or method of src/lvk that no code in src/lvk or bench/
    # reads, other than inside its own definition, is dead: tests alone do
    # not keep it; an oracle the tests need lives in the tests
    paths = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    unread = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            unread |= {
                f"{path.stem}.{node.name}"
                for node in members
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and used[node.name] <= _uses(node)[node.name]
            }
    assert unread == SPAN_ONLY


def _imported(tree) -> list[tuple[int, str]]:
    """(line, bound name) of every import in tree but ``from __future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def _exported(tree) -> set[str]:
    """The string entries of a module-level ``__all__`` list."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def test_every_import_is_used():
    # a name a module of src/lvk imports and never reads is a dead import;
    # the package's __all__ counts as a read of what it re-exports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = set(_uses(tree)) | _exported(tree)
        unused += [f"{path.name}:{n} {name}" for n, name in _imported(tree) if name not in read]
    assert unused == []


def _catches(handler: ast.ExceptHandler, name: str) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, (ast.Name, ast.Attribute)) and name in _uses(t) for t in types)


def test_degree_cap_fallback_has_one_owner():
    # past LVK_MAX_DEGREE, ratfunc.fraction_sum falls back to the term-by-term
    # normalized sum and cli.main maps the error to an exit code; any other
    # handler would be a second fallback rule
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and _catches(node, "DegreeCapExceeded"):
                    owners.append((path.stem, getattr(top, "name", None)))
    assert sorted(owners) == [("cli", "main"), ("ratfunc", "fraction_sum")]


def test_raised_messages_render_over_names():
    # a residual or function in an error message prints over the system's
    # variable names; a bare .render() prints x1, x2, ... instead
    bare = []
    for module in ("cli", "darboux", "pipeline"):
        path = SRC / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                bare += [
                    f"{module}.py:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "render"
                    and not (call.args or call.keywords)
                ]
    assert bare == []
