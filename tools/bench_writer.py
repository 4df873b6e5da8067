"""Time and trace the CSV writer: the number kernel on one block, and
``_write_csv`` on the tables the benchmark's cavity ops write.

    python tools/bench_writer.py [--src DIR] [--label NAME] [--out FILE]
    python tools/bench_writer.py --smoke

Each shape is timed as the median of REPEATS calls after one warm-up call;
its tracemalloc peak comes from one more call, traced on its own, so the
tracing does not slow the timed calls.  The record also holds the host, the
library versions and the thread environment.  ``--src`` names the ``src``
directory of the checkout to measure (default: this one's), so one session
can measure two checkouts with the same harness.  Without ``--out`` the
record is printed; with it, the record is stored under ``--label`` in that
JSON file, next to the records already there.

``--smoke`` runs every shape on tiny tables, checks that each written cell
is ``%`` of its value, and that the record holds every key; it applies no
timing gate.  Wall time here is a measurement, never a test.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPEATS = 15
SMOKE_REPEATS = 2
SMOKE_ROWS = 40
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIBRARIES = ("numpy", "scipy")
SHAPES = ("number_layout_block", "write_csv_grid_transmission", "write_csv_rabi_flop",
          "write_csv_semiclassical")
SHAPE_KEYS = ("rows", "columns", "median_s", "peak_bytes")
RECORD_KEYS = ("host", "libraries", "threads", "repeats", "shapes")


def _host() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": model, "nproc": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version()}


def _library_versions() -> dict:
    versions = {}
    for name in LIBRARIES:
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def _tables(smoke: bool) -> dict:
    """name -> {header: float64 column}: the classical sweep's probe grid and
    one point's transmission, and columns shaped like the rabi-flop (two)
    and semiclassical (six) tables at their default sample counts."""
    from polariton import classical, cli

    grid_rows, flop_rows, mean_field_rows = (SMOKE_ROWS,) * 3 if smoke else (100001, 32768, 20000)
    omega_b = 2.4e15
    omegas = np.linspace(0.7 * omega_b, 1.3 * omega_b, grid_rows)
    spectrum = classical.transmission_spectrum(cli.reference_cavity(), omegas)
    flop_t = 0.01 * np.arange(flop_rows)
    mean_t = 0.01 * np.arange(mean_field_rows)
    return {
        "grid_transmission": {"omega [rad/s]": spectrum.frequencies,
                              "transmission [1]": spectrum.intensities},
        "rabi_flop": {"time [1]": flop_t, "matter_excitation [1]": np.sin(0.1 * flop_t) ** 2},
        "semiclassical": {"time [1]": mean_t, "re_a [1]": 0.1 * np.cos(1.1 * mean_t),
                          "im_a [1]": -0.1 * np.sin(1.1 * mean_t),
                          "re_b [1]": 0.05 * np.sin(0.9 * mean_t),
                          "im_b [1]": 0.05 * np.cos(0.9 * mean_t),
                          "energy [1]": 0.0105 + 1e-15 * np.sin(mean_t)},
    }


def _measure(call, repeats: int) -> tuple[float, int]:
    """The median wall time of repeats calls after a warm-up call, and the
    tracemalloc peak of one more call."""
    call()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(walls), peak


def _check_cells(path: Path, table: dict) -> None:
    """Every cell of the written file is NUMBER_FORMAT % its value."""
    from polariton import svg

    lines = path.read_text().splitlines()
    expected = [",".join(table)] + [
        ",".join(svg.NUMBER_FORMAT % v for v in row)
        for row in zip(*(column.tolist() for column in table.values()))
    ]
    for number, (line, want) in enumerate(zip(lines, expected)):
        if line != want:
            raise SystemExit(f"{path.name} line {number + 1}: wrote {line!r}, % writes {want!r}")
    if len(lines) != len(expected):
        raise SystemExit(f"{path.name}: wrote {len(lines)} lines, expected {len(expected)}")


def run(smoke: bool) -> dict:
    """The record of every shape; a smoke run takes tiny tables and checks
    their text."""
    from polariton import svg
    from polariton.cli import _write_csv

    repeats = SMOKE_REPEATS if smoke else REPEATS
    shapes = {}
    block = np.random.default_rng(7).normal(size=SMOKE_ROWS if smoke else svg.BLOCK_CELLS)
    median, peak = _measure(lambda: svg._number_layout(block), repeats)
    shapes["number_layout_block"] = {"rows": block.size, "columns": 1,
                                     "median_s": median, "peak_bytes": peak}
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in _tables(smoke).items():
            path = Path(tmp) / f"{name}.csv"
            median, peak = _measure(lambda: _write_csv(path, table), repeats)
            if smoke:
                _check_cells(path, table)
            first = next(iter(table.values()))
            shapes[f"write_csv_{name}"] = {"rows": first.size, "columns": len(table),
                                           "median_s": median, "peak_bytes": peak}
    return {"host": _host(), "libraries": _library_versions(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
            "repeats": repeats, "shapes": shapes}


def _check_keys(record: dict) -> None:
    missing = [key for key in RECORD_KEYS if key not in record]
    shapes = record.get("shapes", {})
    missing += [shape for shape in SHAPES if shape not in shapes]
    missing += [f"{shape}.{key}" for shape, values in shapes.items()
                for key in SHAPE_KEYS if key not in values]
    if missing:
        raise SystemExit(f"the record lacks {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to measure")
    parser.add_argument("--label", default="change", help="the record's key in --out")
    parser.add_argument("--out", type=Path, help="JSON file to store the record in")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables; check the text and the keys, not the time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    record = run(args.smoke)
    if args.smoke:
        _check_keys(record)
    if args.out is None:
        print(json.dumps(record, indent=2))
        return 0
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records[args.label] = record
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
