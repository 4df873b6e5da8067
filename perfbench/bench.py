"""Runs the ops of a workload in-process and measures them.

Every op is one ``polariton.cli.main`` call.  Its output files are read
back after the call, outside the timed region, and compared with the
committed reference values.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

SETUP_STARTS = 7  # fresh interpreters per setup_s sample; single starts vary by ~50%


@dataclass
class PassResult:
    walls: dict = field(default_factory=dict)  # op name -> seconds
    verb_walls: dict = field(default_factory=dict)  # verb -> seconds
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # op name -> extracted values
    written: dict = field(default_factory=dict)  # op name -> (files, bytes)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Runner:
    """Runs one workload's ops, each into a fresh output directory."""

    def __init__(self, workload: str, tiny: bool, seed: int, work_dir: Path, reference):
        import polariton.cli

        self.main = polariton.cli.main
        self.workload = workload
        self.ops = workloads.ops(workload, tiny)
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.configs = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            if op.config is not None:
                path = work_dir / f"{op.name}.json"
                path.write_text(json.dumps(op.config))
                self.configs[op.name] = path

    def run_pass(self, tracer: spans.Tracer | None = None) -> PassResult:
        result = PassResult()
        for index, op in enumerate(self.ops):
            out = self.work_dir / "out" / op.name
            shutil.rmtree(out, ignore_errors=True)
            argv = op.argv(out, self.configs.get(op.name), self.seed)
            captured = io.StringIO()
            gc.collect()  # every op starts from the same heap, so collections land alike
            scope = tracer.op(index, op.verb) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                start = time.perf_counter()
                with scope:
                    code = self.main(argv)
                wall = time.perf_counter() - start
            result.walls[op.name] = wall
            result.verb_walls[op.verb] = result.verb_walls.get(op.verb, 0.0) + wall
            result.attempted += 1
            problems = self._check(op, out, code, captured.getvalue(), result)
            result.failed += bool(problems)
            result.problems += [f"{self.workload}/{op.name}: {p}" for p in problems]
            files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
            result.written[op.name] = (len(files), sum(p.stat().st_size for p in files))
        return result

    def _check(self, op, out: Path, code: int, log: str, result: PassResult) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {log.strip()[-400:]}"]
        try:
            values = op.extract(out)
        except (OSError, KeyError, ValueError) as exc:
            return [f"cannot read outputs: {exc!r}"]
        result.values[op.name] = values
        if self.reference is None:
            return []
        reference = self.reference.get(op.name)
        if reference is None:
            return ["no reference values"]
        return workloads.check(values, reference)


def setup_seconds(src: Path, root: Path) -> float:
    """Median over fresh interpreters of the time from process start to
    ``polariton.cli`` imported.  CLOCK_MONOTONIC is shared by all processes."""
    code = "import time, polariton.cli; print(repr(time.monotonic()))"
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples)


def crossover(config: dict, seed: int) -> tuple[dict, PassResult]:
    """Time ``eigendecompose(k=10)`` on each operator of the Dicke sweep,
    once on the dense path and once on the Krylov path.  Each operator is
    one attempted op, failed if the two paths disagree."""
    from polariton.model import HilbertSpec, ModelParams, build_dicke_hamiltonian
    from polariton.spectral import eigendecompose

    g = config["params"]["g"]
    k = config["spectrum"]["n_eigenvalues"]
    metrics, result = {}, PassResult()
    for n in config["sweep"]["values"]:
        h = build_dicke_hamiltonian(ModelParams(1.0, 1.0, g, n), HilbertSpec(12, n + 1))
        values = {}
        for method in ("dense", "krylov"):
            start = time.perf_counter()
            dec = eigendecompose(h, k=k, seed=seed, method=method)
            metrics[f"spectral.{method}_s.d{h.dim}"] = time.perf_counter() - start
            values[method] = dec.eigenvalues.tolist()
        result.attempted += 1
        if not workloads.matches(values["krylov"], values["dense"], workloads.TOLERANCES["eigenvalues"]):
            result.failed += 1
            result.problems.append(f"crossover d{h.dim}: dense and Krylov eigenvalues differ")
    return metrics, result


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
    env.update({k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "POLARITON_NUM_THREADS")})
    return env
