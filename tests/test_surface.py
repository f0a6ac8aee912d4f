import importlib
import importlib.util
import pkgutil
from pathlib import Path

import tropmeas

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
