"""Record the reference output values that run.py checks against.

    python3 perfbench/make_reference.py

Runs every workload once at both sizes, single-threaded, and writes the
values the checks compare to reference.json.  Run it only at a commit whose
outputs are known good; the committed file was recorded at the commit that
added the benchmark.
"""
import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "POLARITON_NUM_THREADS": "1"})

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402

SEED = 1234  # polariton.spectral.DEFAULT_SEED


def main() -> int:
    work = ROOT / ".perfbench_work"
    reference = {}
    try:
        for size in ("full", "tiny"):
            reference[size] = {}
            for workload in workloads.WORKLOADS:
                runner = bench.Runner(workload, size == "tiny", SEED, work / size / workload, None)
                result = runner.run_pass()
                if result.problems:
                    print("\n".join(result.problems), file=sys.stderr)
                    return 1
                reference[size][workload] = {
                    name: workloads.reference_values(values) for name, values in result.values.items()
                }
                print(f"{size} {workload}: {result.wall:.3f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
