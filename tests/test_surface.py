import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import tropmeas

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE = Path(tropmeas.__file__).resolve().parent


def test_public_names_resolve():
    # every exported name exists, and so does every name the benchmark's
    # tracer rebinds, so removing one fails here before it breaks a traced run
    for info in pkgutil.iter_modules(tropmeas.__path__):
        module = importlib.import_module(f"tropmeas.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"tropmeas.{info.name}.__all__ names missing {missing}"

    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wanted = [(mod, name) for mod, name, *_ in spans.TRACED + spans.COUNTED]
    assert wanted
    for mod, name in wanted:
        module = importlib.import_module(f"tropmeas.{mod}")
        assert hasattr(module, name), f"bench/spans.py traces missing tropmeas.{mod}.{name}"


def _sibling_imports(path):
    """The package modules that ``path`` imports at module level."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:  # from .x import ...
                found.add(module.split(".")[0])
            elif node.level == 1 or module == "tropmeas":  # from . import x
                found.update(alias.name for alias in node.names)
            elif module.startswith("tropmeas."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tropmeas."))
    return found


def test_package_imports_form_no_cycle():
    graph = {p.stem: _sibling_imports(p) for p in PACKAGE.glob("*.py")}
    assert graph["measures"] == set()
    assert graph["spaces"] >= {"measures", "transport"}
    # repeatedly drop a module that imports nothing left; a cycle stays
    left = dict(graph)
    while left:
        leaves = [m for m, deps in left.items() if not deps & left.keys()]
        assert leaves, f"import cycle among {sorted(left)}"
        for m in leaves:
            del left[m]
