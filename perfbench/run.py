"""Benchmark of the exptwolevel package: end-to-end and per-layer metrics.

    python3 perfbench/run.py                 # every workload, tracing off then on
    python3 perfbench/run.py --workload fig-populations --seed 1 --seconds 10 --trace 0

One workload runs in one process through the package's public API.  Its
inputs are one or more draws, and its passes cycle through them.  With
--trace 0 the passes are timed untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported.  Either way the last pass on each draw is
checked against an independent reference.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics (the end-to-end or per-layer metrics of BENCHMARK.json).
Full results, the environment and the row digests go to
perfbench/out/<workload>-trace<0|1>.json.

Without --workload, every workload runs in a child process of its own (so
peak_rss_mb is that workload's), first untraced and then traced, and the
combined results go to perfbench/out/results.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the end-to-end metrics of BENCHMARK.json.  Their bounds are shares of a
# median, so none of them may be 0: fail_share and silent_wrong_share (0 on the
# fixed workloads) go on the result line as pass_share and honest_share, and
# max_dev (0 or infinite on some runs) is printed and saved only.
REPORTED = ("wall_s", "setup_s", "peak_rss_mb", "pass_share", "honest_share")
SETUP_SAMPLES = 15
MIN_PASSES = 2

_SETUP_CODE = """import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import exptwolevel as xt
{call}
print(time.perf_counter() - t0)
"""


def load_package():
    """Import exptwolevel from this checkout's src/, or None when it is absent."""
    if not (SRC / "exptwolevel" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import exptwolevel
    import exptwolevel.oracle  # noqa: F401  (integrate_tdse_batch is not re-exported)

    if not Path(exptwolevel.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return exptwolevel


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(xt, seed: int) -> dict:
    import numpy
    import scipy

    workers = getattr(xt.sweep, "_workers", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "exptwolevel": xt.__version__,
        "sweep_workers": workers() if workers else 1,
        "commit": git_commit(),
        "seed": seed,
    }


def measure_setup(workload) -> list:
    """Seconds to import exptwolevel and finish one first call, each in a fresh
    interpreter."""
    code = _SETUP_CODE.format(src=str(SRC), call=workload.first_call)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def timed_pass(workload, xt, inputs):
    start = time.perf_counter()
    output = workload.run(xt, inputs, str(OUT))
    return output, time.perf_counter() - start


def untraced_run(workload, xt, draws: list, seconds: float):
    """Untraced passes, cycling through the draws, until the next would end
    past `seconds`.  There are at least MIN_PASSES, and enough for every draw to
    run and the first to run twice.  Returns the pass walls, (draw, digests)
    per pass and the last output of each draw."""
    walls, digests, last = [], [], {}
    least = max(MIN_PASSES, len(draws) + 1)
    start = time.perf_counter()
    while True:
        k = len(walls) % len(draws)
        output, wall = timed_pass(workload, xt, draws[k])
        walls.append(wall)
        digests.append((k, workload.digests(output)))
        last[k] = output
        elapsed = time.perf_counter() - start
        if len(walls) >= least and elapsed + statistics.median(walls) > seconds:
            return walls, digests, last


def traced_run(workload, xt, draws: list, seconds: float):
    """Pairs of an untraced and a traced pass on the same draw, cycling through
    the draws, within `seconds` (at least one pair)."""
    import tracing

    cost = tracing.calibrate()
    walls, per_pass, digests, last = [], [], [], {}
    start = time.perf_counter()
    while True:
        k = len(walls) % len(draws)
        output, wall = timed_pass(workload, xt, draws[k])
        walls.append(wall)
        digests.append((k, workload.digests(output)))
        with tracing.Tracer() as tracer:
            output, _ = tracer.run(len(per_pass), workload.run, xt, draws[k], str(OUT))
        spans = tracer.take()
        per_pass.append(tracing.pass_metrics(spans, output[0], cost))
        digests.append((k, workload.digests(output)))
        last[k] = output
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    write_spans(OUT / f"{workload.name}-spans.csv", spans)
    return walls, tracing.summarize(per_pass, walls), digests, last, cost


def write_spans(path: Path, spans: list) -> None:
    index = {id(sp): i for i, sp in enumerate(spans)}
    t0 = min(sp.start for sp in spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,thread,run,cpu_s,error\n")
        for i, sp in enumerate(spans):
            parent = index.get(id(sp.parent), "")
            cpu = "" if sp.cpu_start is None else f"{sp.cpu_end - sp.cpu_start:.9f}"
            fh.write(f"{i},{sp.name},{sp.start - t0:.9f},{sp.end - t0:.9f},{parent},"
                     f"{sp.thread},{sp.run},{cpu},{int(sp.error)}\n")


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(xt, args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(xt, args.seed)
    setup = [] if args.trace else measure_setup(workload)
    draws = workload.inputs(xt, args.seed)
    workload.run(xt, workload.inputs(xt, args.seed, small=True)[0], str(OUT))  # warm-up
    if args.trace:
        walls, layers, digests, last, cost = traced_run(workload, xt, draws, args.seconds)
    else:
        walls, digests, last = untraced_run(workload, xt, draws, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = workloads.Tally()
    for k in sorted(last):
        workload.check(xt, last[k], args.seed, tally)
    first = {}
    for k, d in digests:
        first.setdefault(k, d)
    stable = all(d == first[k] for k, d in digests)
    # random-box has known failing rows (ROADMAP item 3): it is correct when
    # every pass was checked and repeated passes of a draw agree
    correct = stable and tally.attempted > 0 and (workload.expects_failures
                                                  or tally.failed == 0)

    print(f"workload {workload.name}: {workload.why}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    wall = statistics.median(walls)
    if args.trace:
        names = [row[0] for row in tracing.PER_LAYER]
        detail = {name: metric(layers[name], unit, len(walls))
                  for name, unit, _, _ in tracing.PER_LAYER}
        for name, unit, _, moves in tracing.PER_LAYER:
            print(f"  {name:40s} {layers[name]:14.6g} {unit:9s} moves {moves}")
        layer_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print("wrapper cost per call (inside, outside its span): " + ", ".join(
            f"{'worker' if w else 'run'} thread {1e6 * i:.2f} us, {1e6 * o:.2f} us"
            for w, (i, o) in cost.items()))
        print(f"accounting (medians of {len(walls)} pairs): layer self times "
              f"{layer_sum:.4f} s + benchmark code {layers['bench.self_s']:.4f} s "
              f"+ tracing overhead {layers['trace.overhead_s']:.4f} s = traced wall_s "
              f"{layers['trace.wall_s']:.4f} s; untraced wall_s {wall:.4f} s; residual "
              f"{100 * layers['trace.residual_share']:.1f}% of untraced wall_s")
    else:
        detail = {
            "wall_s": metric(wall, "s", len(walls)),
            "setup_s": metric(statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": metric(peak_mb, "MB", 1),
            "pass_share": metric(tally.pass_share, "ratio", tally.attempted),
            "honest_share": metric(tally.honest_share, "ratio", tally.attempted),
            "fail_share": metric(tally.fail_share, "ratio", tally.attempted),
            "silent_wrong_share": metric(tally.silent_wrong_share, "ratio", tally.attempted),
            "max_dev": metric(tally.max_dev, "abs", tally.checked),
        }
        names = REPORTED
        for name, m in detail.items():
            print(f"  {name:20s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
        print(f"  wall_s per pass: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"rows: {tally.attempted} attempted, {tally.flagged} flagged, "
          f"{tally.silent_wrong} silently wrong, {tally.checked} checked against the "
          f"reference; passes {'agree' if stable else 'DIFFER'}")
    for k, d in sorted(first.items()):
        for label, digest in d.items():
            print(f"digest {label}{'' if len(first) == 1 else f'-draw{k}'} sha256:{digest}")

    reported = {name: {"value": detail[name]["value"], "unit": detail[name]["unit"]}
                for name in names}
    results = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
               "environment": env, "metrics": detail, "correct": correct,
               "rows": {"attempted": tally.attempted, "flagged": tally.flagged,
                        "silent_wrong": tally.silent_wrong, "checked": tally.checked},
               "digests": {str(k): d for k, d in sorted(first.items())}}
    with open(OUT / f"{workload.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    import workloads

    OUT.mkdir(exist_ok=True)
    status, combined = 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            with open(OUT / f"{name}-trace{trace}.json", encoding="utf-8") as fh:
                combined.setdefault(name, {})[f"trace{trace}"] = json.load(fh)
    with open(OUT / "results.json", "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1)
    print(f"\n{'workload':16s} {'wall_s':>9s} {'setup_s':>8s} {'rss_MB':>7s} "
          f"{'fail':>7s} {'silent':>7s} {'max_dev':>9s} correct")
    for name, res in combined.items():
        if "trace0" not in res:
            continue
        m = res["trace0"]["metrics"]
        print(f"{name:16s} {m['wall_s']['value']:9.3f} {m['setup_s']['value']:8.3f} "
              f"{m['peak_rss_mb']['value']:7.1f} {m['fail_share']['value']:7.4f} "
              f"{m['silent_wrong_share']['value']:7.4f} {m['max_dev']['value']:9.2e} "
              f"{res['trace0']['correct']}")
    print(f"results: {OUT / 'results.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    xt = load_package()
    if xt is None:
        print(f"error: no exptwolevel package under {SRC}", file=sys.stderr)
        return 2
    # sweeps run with the package's default worker count
    os.environ.pop(getattr(xt.sweep, "WORKERS_ENV", ""), None)
    import workloads

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return run_workload(xt, args)


if __name__ == "__main__":
    sys.exit(main())
