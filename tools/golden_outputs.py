"""Run a fixed list of CLI cases against a checkout and record every output.

    python tools/golden_outputs.py <checkout> <out_dir>

Each case runs ``python -m polariton.cli`` from ``<checkout>/src`` as a
subprocess with ``OPENBLAS_NUM_THREADS=1``, inside its own directory
``<out_dir>/<case>``.  That directory then holds the case's config, its
result files under ``out/``, and ``exit_code.txt``, ``stdout.txt`` and
``stderr.txt``.  All paths handed to the CLI are relative.  A Python warning
prints its source file and line; the checkout's absolute path is recorded as
``<checkout>`` and the line number as ``<line>``, so an edit that moves the
warning's call site does not show.  Running the tool on two checkouts and
comparing with ``diff -r`` shows whether a change kept every result file,
exit code and message byte-identical.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ALL_FORMATS = ("--format", "csv,json,svg")

# polariton.cli.reference_cavity() at its defaults, frozen so that the inputs
# do not move with the checkout under test.
REFERENCE_CAVITY = {
    "length": 3.9242740985601107e-07,
    "reflectivity": 0.994777719933957,
    "background_index": 1.0,
    "area": 1e-12,
    "n_dipoles": 100,
    "dipole_moment": 9.377730192075738e-27,
    "omega_b": 2.4e15,
    "gamma": 6.0e12,
}

# (case name, CLI arguments, config)
CASES = [
    ("spectrum-bilinear", ["spectrum"], {"model": "bilinear"}),
    ("spectrum-dicke-n-sweep", ["spectrum", *ALL_FORMATS], {
        "model": "dicke",
        "params": {"g": 0.02, "n_atoms": 100},
        "sweep": {"name": "n_atoms", "values": [100, 150, 200]},
    }),
    ("spectrum-jc-rwa", ["spectrum"], {"model": "jc-rwa", "params": {"g": 0.1, "n_atoms": 3}}),
    ("spectrum-dicke-partial-hilbert", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 0.1, "n_atoms": 3},
        "hilbert": {"photon_cutoff": 8},
    }),
    ("witness-all-formats", ["witness", *ALL_FORMATS], {}),
    ("witness-g-sweep", ["witness"], {
        "sweep": {"name": "g", "values": [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]},
    }),
    ("witness-krylov-g-sweep", ["witness"], {
        "model": "bilinear",
        "hilbert": {"photon_cutoff": 63, "matter_dim": 65},
        "sweep": {"name": "g", "values": [0.1, 0.2, 0.3, 0.4]},
    }),
    ("witness-detuned", ["witness"], {"params": {"omega_b": 1.4}}),
    *(
        (f"rabi-flop-{model}", ["dynamics", "rabi-flop", *ALL_FORMATS], {"model": model})
        for model in ("bilinear", "dicke", "jc-rwa")
    ),
    ("semiclassical", ["dynamics", "semiclassical", *ALL_FORMATS], {"initial": {"a_re": 0.1}}),
    ("vacuum-correlation", ["dynamics", "vacuum-correlation", *ALL_FORMATS], {}),
    # X = a + a^dag on the ground vector as shifted products: here a few of
    # its components differ from a dense matrix-vector product by about an ulp
    ("vacuum-correlation-cutoff-20", ["dynamics", "vacuum-correlation", *ALL_FORMATS], {
        "hilbert": {"photon_cutoff": 20},
        "params": {"g": 0.4},
    }),
    ("classical-n-sweep", ["classical", *ALL_FORMATS], {
        "model": "classical",
        "cavity": REFERENCE_CAVITY,
        "sweep": {"name": "n_dipoles", "values": [25, 100, 400]},
    }),
    ("verify", ["verify"], {}),
    ("spectrum-g-sweep-one-eigenvalue", ["spectrum"], {
        "spectrum": {"n_eigenvalues": 1},
        "sweep": {"name": "g", "values": [0.1, 0.2]},
    }),
    ("classical-damped-default-grid", ["classical", *ALL_FORMATS], {
        "model": "classical",
        "cavity": dict(REFERENCE_CAVITY, gamma=5e13),
    }),
    ("classical-damped-freq-grid", ["classical", "--format", "json"], {
        "model": "classical",
        "cavity": dict(REFERENCE_CAVITY, gamma=7e13),
        "freq_grid": {"min": 1.68e15, "max": 3.12e15, "n": 4001},
    }),
    ("rabi-flop-partial-grid", ["dynamics", "rabi-flop", *ALL_FORMATS], {
        "grid": {"n_samples": 1024},
    }),
    # one full block of the flop signal and a partial one of 476 samples
    ("rabi-flop-ragged-grid", ["dynamics", "rabi-flop", *ALL_FORMATS], {
        "model": "bilinear",
        "grid": {"n_samples": 1500},
    }),
    # fewer samples than one block
    ("rabi-flop-short-grid", ["dynamics", "rabi-flop", *ALL_FORMATS], {
        "model": "dicke",
        "grid": {"n_samples": 700},
    }),
    ("spectrum-dicke-non-integral-n-atoms", ["spectrum"], {
        "model": "dicke",
        "params": {"n_atoms": 2.5},
    }),
    ("spectrum-huge-cutoff", ["spectrum"], {"hilbert": {"photon_cutoff": 1e300}}),
    # g = 0 leaves every basis state its own block, and the degenerate
    # levels n + k sit in different blocks
    ("spectrum-dicke-uncoupled", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 0.0, "n_atoms": 3},
    }),
    # more pairs than most excitation sectors hold
    ("spectrum-jc-rwa-many-pairs", ["spectrum"], {
        "model": "jc-rwa",
        "params": {"g": 0.1, "n_atoms": 3},
        "spectrum": {"n_eigenvalues": 40},
    }),
    # transmission that is not finite: refused, no result file written
    ("classical-non-finite-dipole", ["classical", *ALL_FORMATS], {
        "model": "classical",
        "cavity": dict(REFERENCE_CAVITY, dipole_moment=1e150),
        "freq_grid": {"min": 1e15, "max": 4e15, "n": 11},
    }),
    ("classical-overflow-grid", ["classical", *ALL_FORMATS], {
        "model": "classical",
        "cavity": REFERENCE_CAVITY,
        "freq_grid": {"min": 1e300, "max": 1.7e308, "n": 5},
    }),
    # dim 5213 in excitation sectors of at most 13 states: the one-state
    # sector 0 holds the ground energy 0, which one Lanczos run over the whole
    # operator misses
    ("spectrum-jc-rwa-krylov", ["spectrum"], {
        "model": "jc-rwa",
        "params": {"g": 0.02, "n_atoms": 400},
        "spectrum": {"n_eigenvalues": 6},
    }),
    # g = 0 at dim 4160: every basis state is its own block, ground energy 0
    ("witness-krylov-uncoupled", ["witness"], {
        "model": "bilinear",
        "params": {"g": 0.0},
        "hilbert": {"photon_cutoff": 63, "matter_dim": 65},
    }),
    # N = 1000 at lambda = g sqrt(N) of about 0.095: the Dicke parity blocks
    # of about 6500 states go to Lanczos; the JC-RWA excitation sectors hold
    # at most 13 states each and stay dense
    ("spectrum-dicke-krylov-large-n", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 0.003, "n_atoms": 1000},
        "spectrum": {"n_eigenvalues": 4},
    }),
    ("spectrum-jc-rwa-large-n", ["spectrum"], {
        "model": "jc-rwa",
        "params": {"g": 0.003, "n_atoms": 1000},
        "spectrum": {"n_eigenvalues": 4},
    }),
    # N = 10^4: natural bandwidth 5001 against 9 and 17 in reverse
    # Cuthill-McKee order, so the banded shift-invert factor must reorder
    ("spectrum-dicke-krylov-1e4", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 0.001, "n_atoms": 10000},
        "hilbert": {"photon_cutoff": 8},
        "spectrum": {"n_eigenvalues": 2},
    }),
    # refused before any work: the Lanczos path of this Dicke spectrum would
    # hand the seed to numpy, which takes no negative one
    ("spectrum-negative-seed", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 0.02, "n_atoms": 100},
        "seed": -1,
    }),
    ("verify-nan-tolerance", ["verify"], {
        "verify": {"tolerances": {"cross_route_entropy": float("nan")}},
    }),
    # omega_a^2 overflows a float: the normal-mode form and the norms of the
    # residual contract are scaled by a power of two
    ("spectrum-bilinear-huge-frequency", ["spectrum"], {"params": {"omega_a": 1e155}}),
    ("witness-huge-frequency", ["witness"], {"params": {"omega_a": 1e155, "omega_b": 1e155}}),
    ("spectrum-dicke-huge-frequency", ["spectrum"], {
        "model": "dicke",
        "params": {"n_atoms": 3, "omega_a": 1e160},
    }),
    # the benchmark's classical grid: 100001 points, about 160 to a pixel
    # column of the chart
    ("classical-benchmark-grid", ["classical", *ALL_FORMATS], {
        "model": "classical",
        "cavity": REFERENCE_CAVITY,
        "freq_grid": {
            "min": 0.7 * REFERENCE_CAVITY["omega_b"],
            "max": 1.3 * REFERENCE_CAVITY["omega_b"],
            "n": 100001,
        },
    }),
    # lambda = 1e-10 against a Gershgorin width of about N: the ground energy
    # is about -lambda^2 / 2, below the vacuum's Rayleigh quotient of 0
    ("spectrum-dicke-tiny-coupling", ["spectrum"], {
        "model": "dicke",
        "params": {"g": 1e-12, "n_atoms": 10000},
        "hilbert": {"photon_cutoff": 8},
        "spectrum": {"n_eigenvalues": 2},
    }),
    # the witness value scales with the frequencies, and so does its threshold
    ("witness-tiny-frequency", ["witness"], {
        "params": {"omega_a": 1e-200, "omega_b": 1e-200, "g": 1e-201},
    }),
    # 4 lambda^2 / (omega_a omega_b) = 4e1200 has no float: an unstable model
    ("spectrum-unstable-beyond-float-range", ["spectrum"], {
        "params": {"omega_a": 1e-300, "omega_b": 1e-300, "g": 1e300},
    }),
    # a verb that does not build the configured model refuses it
    ("witness-dicke-refused", ["witness"], {"model": "dicke", "params": {"g": 0.1, "n_atoms": 4}}),
    ("vacuum-correlation-dicke-refused", ["dynamics", "vacuum-correlation", *ALL_FORMATS], {
        "model": "dicke",
        "params": {"g": 0.1, "n_atoms": 4},
    }),
    ("rabi-flop-classical-refused", ["dynamics", "rabi-flop", *ALL_FORMATS], {"model": "classical"}),
    ("spectrum-semiclassical-model-refused", ["spectrum"], {"model": "semiclassical"}),
    # a sweep's values must be a JSON array, not a string whose characters it would sweep
    ("spectrum-sweep-values-string", ["spectrum"], {"sweep": {"name": "n_atoms", "values": "12"}}),
    # an output directory must be a JSON string, named in the refusal
    ("output-dir-number", ["spectrum"], {"output": {"dir": 5}}),
    # detuned and unstable: refused on resonance first, as witness_evaluate checks
    ("witness-detuned-unstable", ["witness"], {"params": {"omega_b": 1.4, "g": 0.6}}),
    # 4 lambda^2 lies a few ulps below omega_a omega_b: the lower eigenvalue of
    # the normal-mode form cancels below zero and is taken from its determinant
    ("spectrum-bilinear-near-stability-boundary", ["spectrum"], {
        "params": {"omega_a": 3.683534797907487, "omega_b": 0.28041593233669865,
                   "g": 0.5081638133146389},
    }),
]


def run_case(src: Path, case_dir: Path, argv, config) -> int:
    case_dir.mkdir(parents=True)
    (case_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "polariton.cli", *argv, "--config", "config.json", "--out", "out"],
        cwd=case_dir, env=env, capture_output=True, text=True,
    )
    (case_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
    (case_dir / "stdout.txt").write_text(proc.stdout)
    stderr = proc.stderr.replace(str(src.parent), "<checkout>")
    (case_dir / "stderr.txt").write_text(re.sub(r"(<checkout>/\S+\.py):\d+:", r"\1:<line>:", stderr))
    return proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src = Path(args[0]).resolve() / "src"
    out_dir = Path(args[1])
    if not (src / "polariton").is_dir():
        print(f"no polariton package under {src}", file=sys.stderr)
        return 1
    if out_dir.exists():
        print(f"{out_dir} exists; pass a new directory", file=sys.stderr)
        return 1
    for name, case_argv, config in CASES:
        code = run_case(src, out_dir / name, case_argv, config)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
