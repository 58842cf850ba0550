"""Every public top-level name in src/flopwin must be reachable from a root.

The roots are the command line (``cli.main``), the named verification
checks (``verify._CHECKS``) and every flopwin name a benchmark file under
``bench/`` references.  Reachability is a static scan with the stdlib
``ast`` module: a top-level definition reaches every module-level name it
mentions, whether by bare name, through ``from .mod import name`` or as
``mod.name`` on an imported flopwin module, and whether the import sits at
the top of the file or inside the definition's body.  A class counts as one
node, so its methods are live whenever the class is.  Importing a module
runs its body, so the statements outside named definitions are reached with
the module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flopwin"
ALLOWED_UNREACHED = {("__init__", "__version__")}


def _imports(tree: ast.Module, inside: bool) -> tuple[dict, dict]:
    """(module aliases, imported names) of the flopwin imports in one file.

    Package modules import relatively (``from . import x``, ``from .x import
    y``); files outside the package import from ``flopwin``.
    """
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if inside:
            if node.level != 1:
                continue
            source = node.module
        else:
            if node.level or not (node.module or "").startswith("flopwin"):
                continue
            source = node.module.partition(".")[2] or None
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None:
                modules[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return modules, names


def _references(node: ast.AST, module: str, modules: dict, names: dict) -> set:
    """Module-level names one subtree mentions, as (module, name) pairs."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(names.get(sub.id, (module, sub.id)))
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            out.add((modules[sub.value.id], sub.attr))
    return out


def _graph(sources: dict | None = None) -> tuple[dict, set]:
    """Edges between (module, name) nodes, and the public names.

    sources maps module names to their text; it defaults to the package.
    """
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in sorted(PACKAGE.glob("*.py"))}
    edges: dict = {}
    public: set = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        modules, names = _imports(tree, inside=True)
        body = edges.setdefault((module, None), set())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            refs = _references(stmt, module, modules, names)
            for name in defined:
                edges.setdefault((module, name), set()).update(refs | {(module, None)})
                if not name.startswith("_") or name == "__version__":
                    public.add((module, name))
            if not defined:
                body.update(refs)
    return edges, public


def _bench_roots() -> set:
    roots = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = _imports(tree, inside=False)
        roots.update(names.values())
        roots.update(ref for ref in _references(tree, "", modules, {}) if ref[0])
    return roots


def test_roots_exist():
    edges, _ = _graph()
    assert ("cli", "main") in edges
    assert ("verify", "_CHECKS") in edges
    assert {("ncalg", "complete"), ("lattice", "load_fixture")} <= _bench_roots()


def _reached(edges: dict, roots: list) -> set:
    stack = list(roots)
    seen: set = set()
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(n for n in edges[node] if n in edges)
    return seen


def test_every_public_name_is_reached():
    edges, public = _graph()
    seen = _reached(edges, [("cli", "main"), ("verify", "_CHECKS")]
                    + sorted(_bench_roots() & set(edges)))
    unreached = sorted(f"{m}.{n}" for m, n in public - seen - ALLOWED_UNREACHED)
    assert not unreached, "public names no root reaches: " + ", ".join(unreached)


def test_a_name_imported_inside_a_function_is_reached():
    # the command line imports each engine module inside the handler that runs it
    edges, public = _graph({
        "cli": "def main():\n"
               "    from .windows import window\n"
               "    from . import ncalg\n"
               "    return window(), ncalg.hilbert()\n",
        "windows": "def window():\n    pass\n\n\ndef unused():\n    pass\n",
        "ncalg": "def hilbert():\n    pass\n",
    })
    seen = _reached(edges, [("cli", "main")])
    assert public - seen == {("windows", "unused")}
