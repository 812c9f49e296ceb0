"""No module under src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path


def unused_imports(source):
    """The names source imports and never reads, save those in __all__,
    under `if TYPE_CHECKING:` or on an import marked `# noqa: F401`."""
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {
                getattr(target, "id", None) for target in node.targets}:
            used |= set(ast.literal_eval(node.value))
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            node.body = []
    names = [(alias.asname or alias.name.split(".")[0], node)
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name, node in names if name not in used and "noqa: F401"
            not in " ".join(lines[node.lineno - 1:node.end_lineno])]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    found = {str(path.relative_to(root)): names for top in ("src", "tests")
             for path in sorted(root.glob(top + "/**/*.py"))
             if (names := unused_imports(path.read_text()))}
    assert found == {}
