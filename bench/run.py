"""Benchmark runner for tropmeas.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The runner is a single closed-loop caller in one process and
one thread: it issues the next operation only after the previous one has
returned and its output has been checked.

``--trace 0`` sets the workload up several times, then repeats passes of
its operations until ``--seconds`` have gone by, and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed number of passes of every workload
twice, untraced and then with span tracing of each ``tropmeas`` layer,
checks that both give the same outputs, writes the spans to
``.bench_out/spans-<workload>.npz`` and prints the per-layer metrics of
every workload, each prefixed by the workload's name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin native thread pools before numpy loads: the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 35
SETUP_REPEATS = 3

#: name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.24),
    ("pass_p50_ms", "ms", "lower", 0.24),
    ("op_p95_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def layer_unit(metric: str):
    """(unit, better) of a per-layer metric, from its last name part."""
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s", "lower"
    if field == "dedupe_ratio":
        return "ratio", "higher"
    if field == "scan_len":
        return "points", "lower"
    return "count", "lower"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _machine() -> str:
    import numpy

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pins = " ".join(f"{v}={os.environ[v]}" for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"machine: nproc {cores}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, {pins}")


def _import_s() -> float:
    """Time of ``import tropmeas`` in a fresh interpreter, as each CLI call pays it."""
    code = "import time; t = time.perf_counter(); import tropmeas; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(proc.stdout)


def _run_passes(w, passes=None, seconds=None):
    """Closed loop over passes: a fixed count, or as many as end within
    ``seconds`` at the mean pass time so far (at least one).

    Returns per-op latencies (s) of checked operations, items done, pass
    times, outputs' fingerprints, and the attempted and failed counts.
    """
    lat, passes_s, prints = [], [], []
    items = attempted = failed = 0
    start = perf_counter()
    index = 0
    while (index < passes) if passes is not None else (
            index == 0 or (perf_counter() - start) * (index + 1) / index <= seconds):
        pass_s = 0.0
        for op in w.ops(index):
            attempted += 1
            t0 = perf_counter()
            try:
                out = op.call()
                dt = perf_counter() - t0
                op.check(out)
            except Exception:  # an operation that raises or fails its check
                failed += 1
                print(f"FAILED {w.name} pass {index} op {op.label}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                prints.append(None)
                continue
            lat.append(dt)
            items += op.items
            pass_s += dt
            prints.append(w.fingerprint(out))
        passes_s.append(pass_s)
        index += 1
    return lat, items, passes_s, prints, attempted, failed


def _result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_untraced(cls, args) -> int:
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(_import_s())
        t0 = perf_counter()
        w = cls(args.seed, OUT)
        setups.append(perf_counter() - t0)
    lat, items, passes_s, _, attempted, failed = _run_passes(w, seconds=args.seconds)
    if not lat:
        print(f"{cls.name}: no operation succeeded", file=sys.stderr)
        return 1
    # Inclusive quantiles stay within the samples; on the few passes of a
    # campaigns run the exclusive method extrapolates past the slowest one.
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
        "items_per_s": items / sum(lat),
        "pass_p50_ms": statistics.median(passes_s) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    print(f"workload {cls.name}, seed {args.seed}, {args.seconds:g} s, closed loop, 1 caller")
    print(_machine())
    print(f"set-up: median of {SETUP_REPEATS} fresh imports plus set-ups "
          f"{', '.join(f'{i:.4f}+{s:.4f}' for i, s in zip(imports, setups))} s")
    print(f"operations: {attempted} attempted, {failed} failed, error_rate "
          f"{failed / attempted:.4g}; {len(lat)} latency samples, "
          f"{sum(x >= p95 for x in lat)} at or beyond p95; {len(passes_s)} passes; "
          f"{items} {cls.item}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    for line in cls.aliases(values, lat, passes_s):
        print(line)
    _result(failed == 0, attempted, failed, {k: (v, units[k]) for k, v in values.items()})
    return 0


def _layer_value(tracer, metric: str):
    span, field = metric.rsplit(".", 1)
    stats = tracer.stats
    if metric == "spaces.lift.dedupe_ratio":
        return stats["spaces.lift.points"] / max(stats["spaces.lift.inputs"], 1)
    if metric == "spaces.index_of_measure.scan_len":
        return stats["spaces.index_of_measure.scanned"] / max(
            tracer.metric(span, "calls"), 1)
    if metric in stats:
        return stats[metric]
    return tracer.metric(span, field)


def run_traced(workloads, args) -> int:
    from spans import Tracer

    print(f"traced run, seed {args.seed}: every workload, untraced then traced")
    print(_machine())
    metrics = {}
    attempted = failed = 0
    same = True
    for cls in workloads.WORKLOADS.values():
        w = cls(args.seed, OUT)
        plain = _run_passes(w, passes=cls.trace_passes)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_passes(w, passes=cls.trace_passes)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{cls.name}.npz")
        attempted += plain[4] + traced[4]
        failed += plain[5] + traced[5]
        if plain[3] != traced[3]:
            same = False
            print(f"{cls.name}: traced outputs differ from untraced outputs", file=sys.stderr)
        overhead = sum(traced[2]) - sum(plain[2])
        for m in cls.layers:
            metrics[f"{cls.name}.{m}"] = (_layer_value(tracer, m), layer_unit(m)[0])
        metrics[f"{cls.name}.trace.overhead_s"] = (overhead, "s")
        wall = sum(traced[2])
        shares = sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1])
        print(f"{cls.name}: {cls.trace_passes} pass(es), untraced {sum(plain[2]):.4f} s, "
              f"traced {wall:.4f} s, {len(tracer.start)} spans")
        print("  self time by layer: " + ", ".join(
            f"{layer} {s / wall:.1%}" for layer, s in shares if s > 0))
        stated = sum(s for layer, s in shares if layer in cls.dominant)
        rest = max((s for layer, s in shares if layer not in cls.dominant), default=0.0)
        print(f"  stated dominant {'+'.join(cls.dominant)} {stated / wall:.1%} against "
              f"{rest / wall:.1%} for the largest other layer: "
              f"{'confirmed' if stated > rest else 'NOT confirmed'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    _result(same and failed == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tropmeas" / "__init__.py").is_file():
        print(f"no tropmeas sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        return run_traced(workloads, args)
    return run_untraced(workloads.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
