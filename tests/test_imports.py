"""No module under src/, tests/ or perfbench/ imports a name it never uses.

No linter ships with the project, so this is a small stdlib (ast) check of
pyflakes' F401: a name bound by an import counts as used when it appears
as a Name anywhere in the module (attribute chains start with one) or in
``__all__``.  Package ``__init__`` modules re-export names and are skipped,
as are ``from __future__`` imports and lines marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                  if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never uses, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import os.path\n"
              "from math import pi, tau\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: np.ndarray):\n"
              "    return os.path.join(str(pi), str(x))\n")
    assert unused_imports(source) == ["5: tau"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
