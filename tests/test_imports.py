import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mfcat")


def test_every_imported_name_is_used():
    # `__init__.py` imports names to re-export them, so it is exempt.
    unused = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, line, bound) for bound, line in imported.items() if bound not in used]
    assert unused == []
