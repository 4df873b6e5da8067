"""Benchmark of the polariton CLI verbs.

    python3 perfbench/run.py --workload witness-krylov --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Each workload is one pass of CLI ops, run in
this process over and over for ``--seconds``.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The lines
before it repeat every metric with its unit, the failure ratio and the
thread environment.  See README.md in this directory.
"""
import os

# Every timed and traced run is single-threaded, pinned before numpy loads.
# Dicke-sweep probes on 2 cores: the default pool of 4 threads over 2 BLAS
# threads took 17.5-20.7 s a pass, 1 pool thread over 2 BLAS threads took
# 10.9-12.2 s, and fully single-threaded took 18.4-19.0 s with the smallest
# spread (about 3%).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "POLARITON_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402

# One malloc arena (glibc M_ARENA_MAX = -8).  The CLI starts a new pool
# thread per sweep, and whether that thread reuses the previous thread's
# arena is a race; with several arenas the Dicke spectrum peak RSS came out
# at either 364 or 433 MB on the same inputs, with one it reads 327 MB.
_libc = ctypes.CDLL(ctypes.util.find_library("c"))
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-8, 1)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SPEC_FILE = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_FILE.read_text()) if SPEC_FILE.is_file() else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="run tiny versions of every workload and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def measure(args) -> dict:
    import bench
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload '{args.workload}', expected one of {sorted(workloads.WORKLOADS)}")
    references = json.loads(REFERENCE.read_text())
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = bench.setup_seconds(SRC, ROOT)

    # warm-up on tiny inputs: lazy imports and first-call costs stay out of the timing
    warm = bench.Runner(args.workload, True, args.seed, WORK_DIR / "warm", references["tiny"][args.workload])
    passes = [warm.run_pass()]
    size = "tiny" if args.tiny else "full"
    runner = bench.Runner(args.workload, args.tiny, args.seed, WORK_DIR / "run", references[size][args.workload])

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append((runner.run_pass(tracer), tracer.ops))
            finally:
                tracer.uninstall()
        last = untraced[-1].wall + (traced[-1][0].wall if traced else 0.0)
        if time.perf_counter() - start + last > args.seconds:
            break
    passes += untraced + [t for t, _ in traced]

    if not args.trace:
        metrics["wall_s"] = statistics.median(r.wall for r in untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        memory = spans.Tracer(memory=True)
        memory.install()
        try:
            mem_pass = runner.run_pass(memory)
        finally:
            memory.uninstall()
        passes.append(mem_pass)
        metrics.update(layer_summary(runner, untraced, traced, memory.ops))
        for op in workloads.ops(args.workload, False):
            if op.verb == "spectrum":
                timed, crossover = bench.crossover(op.config, args.seed)
                metrics.update(timed)
                passes.append(crossover)
    return {
        "metrics": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [problem for p in passes for problem in p.problems],
        "pass_walls": [r.wall for r in untraced],
        "verb_walls": verb_medians(untraced),
    }


def verb_medians(passes) -> dict:
    verbs = sorted({v for p in passes for v in p.verb_walls})
    return {v: statistics.median(p.verb_walls.get(v, 0.0) for p in passes) for v in verbs}


def layer_summary(runner, untraced, traced, memory_ops) -> dict:
    import spans
    import workloads

    per_pass, gaps = [], []
    for result, op_traces in traced:
        layers = spans.layer_metrics(op_traces)
        computed = used = 0
        for op, op_trace in zip(runner.ops, op_traces):
            if op.pairs_used is not None and op.name in result.values:
                used += op.pairs_used(result.values[op.name])
                computed += spans.layer_metrics([op_trace]).get("spectral.pairs_computed", 0)
        layers["spectral.pairs_used_ratio"] = used / computed if computed else 0.0
        analysed = layers.pop("classical.peaks_analysed", 0)
        layers["classical.split_ratio"] = layers.pop("classical.peaks_split", 0) / analysed if analysed else 0.0
        layers["holstein_primakoff.calls"] = sum(
            1 for t in op_traces for s in t.spans if s.layer == "holstein_primakoff" and s.key == s.name
        )
        layers["cli.files_written"] = sum(f for f, _ in result.written.values())
        layers["cli.bytes_written"] = sum(b for _, b in result.written.values())
        gaps += [spans.sum_gap(t) for t in op_traces]
        per_pass.append(layers)
    names = sorted({k for p in per_pass for k in p})
    out = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in names}
    out["trace.overhead_s"] = statistics.median(r.wall for r, _ in traced) - statistics.median(r.wall for r in untraced)
    gap = max(gaps)
    if gap > max(out["trace.overhead_s"], 1e-6):
        raise SystemExit(f"layer self times miss the verb wall time by {gap:.3g} s")
    print(f"trace: per op, layer self times + cli.self_s equal the traced verb time within {gap:.3g} s")
    out["model.build_peak_mb"] = spans.peak_mb(memory_ops, spans.BUILDERS)
    out["spectral.eigendecompose_peak_mb"] = spans.peak_mb(memory_ops, {"eigendecompose"})
    for verb, seconds in verb_medians(untraced).items():
        out[f"verb.{verb}_s"] = seconds
    for verb in workloads.VERBS:
        out.setdefault(f"verb.{verb}_s", 0.0)
    return out


def report(args, result) -> dict:
    import bench
    import workloads

    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    wanted = list(units)
    metrics = result["metrics"]
    absent = [n for n in wanted if not metrics.get(n)]
    if args.trace and absent:
        print("trace: not exercised by this workload, reported as 0: " + ", ".join(absent))
    for problem in result["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print("env: " + " ".join(f"{k}={v}" for k, v in bench.environment().items()))
    print("passes: " + " ".join(f"{w:.4g}" for w in result["pass_walls"]) + " s")
    for verb in workloads.VERBS:
        print(f"{verb}_s: {result['verb_walls'].get(verb, 0.0):.6g} s")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    out = {}
    for name in wanted:
        out[name] = {"value": float(metrics.get(name, 0.0)), "unit": units[name]}
        print(f"{name}: {out[name]['value']:.6g} {out[name]['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def smoke() -> int:
    """Tiny versions of every workload, untraced and traced; every metric of
    BENCHMARK.json must be printed with its unit and every check must pass."""
    from workloads import VERBS

    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            problems = []
            if done.returncode != 0 or not lines:
                problems.append(f"exit {done.returncode}: {done.stderr.strip()[-400:]}")
            else:
                result = json.loads(lines[-1])
                wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
                if set(result["metrics"]) != set(wanted):
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(wanted))}")
                if not trace:  # printed beside the end-to-end metrics
                    wanted.update({f"{verb}_s": "s" for verb in VERBS}, fail_ratio="ratio")
                for name, unit in wanted.items():
                    if not any(line.startswith(f"{name}: ") and line.split()[2] == unit for line in lines):
                        problems.append(f"{name} not printed in {unit}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} of {result['attempted']} ops failed: {done.stderr.strip()[-400:]}")
            print(f"smoke {workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polariton" / "cli.py").is_file():
        print(f"error: polariton sources not found under {SRC}", file=sys.stderr)
        return 2
    if SPEC is None or not REFERENCE.is_file():
        print("error: BENCHMARK.json or the reference values are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        result = measure(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
