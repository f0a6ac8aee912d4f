"""Run every workload over several seeds, summarise, and write the manifest.

    python3 bench/baseline.py --seeds 1:11 [--workloads campaigns,...] [--trace]

runs ``bench/run.py`` once per workload and seed, each in its own process,
and prints for every end-to-end metric the median, the quartiles and the
spread (distance between the quartiles as a share of the median) next to
the metric's bound.  ``--trace`` adds one traced run.  The summary is
written to ``.bench_out/baseline-<first seed>.json``, and ``BENCHMARK.json``
at the repository root is rewritten from the specifications in ``run.py``
and ``workloads.py`` (``--manifest-only`` does just that).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def manifest() -> dict:
    per_layer = []
    for cls in workloads.WORKLOADS.values():
        for m in cls.layers + ("trace.overhead_s",):
            unit, better = run.layer_unit(m)
            per_layer.append({"name": f"{cls.name}.{m}", "unit": unit, "better": better})
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": c.name, "why": c.why} for c in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in run.END_TO_END],
        "per_layer": per_layer,
    }


def _run(workload: str, seed: int, trace: int) -> dict:
    """One run's result, with the run's wall time added as ``wall_s``."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run.RUN_SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if trace:
        print(proc.stdout, end="")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = perf_counter() - t0
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1:11", help="A:B runs seeds A to B-1")
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--manifest-only", action="store_true")
    args = p.parse_args(argv)

    (run.ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    if args.manifest_only:
        return
    first, stop = (int(s) for s in args.seeds.split(":"))
    summary = {"machine": run._machine(), "run_seconds": run.RUN_SECONDS, "workloads": {}}
    for name in args.workloads.split(","):
        results = [_run(name, seed, 0) for seed in range(first, stop)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        wall = [r["wall_s"] for r in results]
        print(f"{name}: {len(results)} runs, seeds {first}..{stop - 1}, correct {correct}, "
              f"{attempted} operations attempted, {failed} failed; "
              f"wall per run {min(wall):.1f}..{max(wall):.1f} s")
        rows = {}
        for metric, unit, _, bound in run.END_TO_END:
            s = summarise([r["metrics"][metric]["value"] for r in results])
            rows[metric] = s
            ok = ("set-up: spread not gated" if metric == "setup_s"
                  else "within a third of the bound" if s["spread"] < bound / 3
                  else "within the bound" if s["spread"] <= bound else "WIDER THAN THE BOUND")
            print(f"  {metric:12s} median {s['median']:10.5g} {unit:4s} quartiles "
                  f"{s['q1']:.5g}..{s['q3']:.5g}  spread {s['spread']:.3%} "
                  f"(bound {bound:.0%}, a third {bound / 3:.2%}) {ok}")
        summary["workloads"][name] = {"correct": correct, "attempted": attempted,
                                      "failed": failed, "wall_s": wall, "metrics": rows}
    if args.trace:
        _run(args.workloads.split(",")[0], first, 1)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / f"baseline-{first}.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
