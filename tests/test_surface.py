import ast
import importlib
import importlib.util
import pkgutil
import re
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


#: module -> its reference implementations, which the tests hold the fast
#: paths to, and the fast-path names none of them may reach
REFERENCES = {"transport": ("bottleneck_distance_bruteforce", "bottleneck_distance_threshold",
                            "cost", "pattern_feasible"),
              "monad": ("flatten_via_evaluation", "lift_function")}
FAST_PATHS = {"_row_loop", "_sweep", "_block", "_entries", "measure_distances",
              "measure_distance", "bottleneck_distance", "flatten"}


def test_references_share_no_proof():
    # a reference that reached the kernel or flatten would check it against
    # itself; follow the module's own functions that a reference calls
    for module, names in REFERENCES.items():
        defs = {node.name: node for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
                if isinstance(node, ast.FunctionDef)}
        for name in names:
            todo, seen = [name], set()
            while todo:
                fn = todo.pop()
                seen.add(fn)
                used = {getattr(n, "id", None) or getattr(n, "attr", None)
                        for n in ast.walk(defs[fn])}
                assert not used & FAST_PATHS, f"{module}.{name} reaches {used & FAST_PATHS}"
                todo += [f for f in used & defs.keys() if f not in seen]


#: backticked placeholders of README.md that name no code
README_PLACEHOLDERS = {"CHECK", "delta_a", "mu_t"}


def test_readme_names_exist():
    # bench/README.md is not checked: it belongs to the benchmark.  This
    # file is left out of the search, as it names the placeholders.
    root = PACKAGE.parents[1]
    corpus = "\n".join(p.read_text() for d in ("src", "tests", "bench")
                       for p in sorted((root / d).rglob("*.py"))
                       if p != Path(__file__).resolve())
    corpus += (root / "pyproject.toml").read_text()
    names = set(re.findall(r"`([A-Za-z_]\w*)[`(]", (root / "README.md").read_text()))
    missing = sorted(n for n in names - README_PLACEHOLDERS
                     if not re.search(rf"\b{n}\b", corpus))
    assert names and not missing, f"README.md names {missing}, found nowhere in the code"


def test_the_ufunc_buffer_is_set_in_one_helper():
    # every setbufsize of the package sits in transport._row_buffered, so
    # the row kernels' buffer policy has one home
    tree = ast.parse((PACKAGE / "transport.py").read_text())
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_row_buffered")
    found = [(p.name, i) for p in sorted(PACKAGE.parent.rglob("*.py"))
             for i, line in enumerate(p.read_text().splitlines(), 1) if "setbufsize" in line]
    assert found and all(name == "transport.py" and helper.lineno <= i <= helper.end_lineno
                         for name, i in found), found
