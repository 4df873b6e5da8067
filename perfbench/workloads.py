"""The benchmark's workloads: one pass of CLI operations each, the configs
they run, and how their outputs are read back and checked.

A workload is a list of ops.  Every op is one ``polariton.cli.main`` call
writing into its own output directory.  Each workload exists in two sizes:
"full", which is what is timed, and "tiny", used for warm-up and the smoke
mode.  Why each workload was chosen is in README.md next to this file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALL_FORMATS = "csv,json,svg"

# polariton.cli.reference_cavity() at its defaults, frozen here so that the
# benchmark's inputs do not move when the program changes.
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

# Relative tolerance per checked output field.  Values are compared with a
# tolerance, never byte for byte, so that a documented change in the last
# printed digits is not a failure.
TOLERANCES = {
    "eigenvalues": 1e-9,
    "ground_energy": 1e-9,
    "witness_value": 1e-9,
    "entropy_fock": 1e-9,
    "entropy_gaussian": 1e-9,
    "splitting": 1e-6,
    "dominant_frequency": 1e-9,
    "max_abs_a": 1e-6,
    "peak_omegas": 1e-9,
    "total_weight": 1e-9,
}
ABS_FLOOR = 1e-12  # absolute slack for values that are exactly or nearly 0
ENERGY_DRIFT_MAX = 1e-6  # mean-field energy drift, checked as a bound


def _read(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _points(out: Path, stem: str) -> list[dict]:
    return [_read(out, p.name) for p in sorted(out.glob(f"{stem}_[0-9][0-9][0-9].json"))]


def _spectrum(out: Path) -> dict:
    return {"eigenvalues": [p["eigenvalues"] for p in _points(out, "spectrum")]}


def _witness(out: Path) -> dict:
    keys = ("ground_energy", "witness_value", "entropy_fock", "entropy_gaussian", "verdict")
    points = _points(out, "witness")
    return {k: [p[k] for p in points] for k in keys}


def _classical(out: Path) -> dict:
    points = _points(out, "classical")
    return {"splitting": [p["splitting"] for p in points], "flag": [p["flag"] for p in points]}


def _rabi_flop(out: Path) -> dict:
    return {"dominant_frequency": _read(out, "rabi_flop.json")["dominant_frequency"]}


def _semiclassical(out: Path) -> dict:
    p = _read(out, "semiclassical.json")
    return {"max_abs_a": p["max_abs_a"], "energy_drift": p["energy_drift"]}


def _vacuum(out: Path) -> dict:
    p = _read(out, "vacuum_correlation.json")
    return {"peak_omegas": [q["omega"] for q in p["peaks"]], "total_weight": p["total_weight"]}


def _verify(out: Path) -> dict:
    return {"all_passed": _read(out, "verify_report.json")["all_passed"]}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``polariton <verb> <args> [--config] --out --seed``."""

    name: str
    verb: str
    args: tuple
    config: dict | None
    extract: Callable[[Path], dict]
    # eigenpairs whose values reach the output, from the extracted values;
    # None where the verb has no such notion (dynamics uses every pair)
    pairs_used: Callable[[dict], int] | None = None

    def argv(self, out: Path, config_path: Path | None, seed: int) -> list[str]:
        argv = [self.verb, *self.args, "--out", str(out), "--seed", str(seed)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        return argv


def _dicke_sweep(tiny: bool) -> list[Op]:
    n_atoms = (4, 6, 8) if tiny else (100, 150, 200)
    config = {
        "model": "dicke",
        "params": {"g": 0.02, "n_atoms": n_atoms[0]},
        "spectrum": {"n_eigenvalues": 10},
        "sweep": {"name": "n_atoms", "values": list(n_atoms)},
    }
    return [
        Op("spectrum", "spectrum", (), config, _spectrum,
           pairs_used=lambda v: sum(len(e) for e in v["eigenvalues"])),
    ]


def _witness_krylov(tiny: bool) -> list[Op]:
    # photon_cutoff 63, matter_dim 65 gives dim 4160, above DENSE_DIM_LIMIT,
    # so the ground state comes from the Krylov path
    hilbert = {"photon_cutoff": 16, "matter_dim": 17} if tiny else {"photon_cutoff": 63, "matter_dim": 65}
    g = (0.1, 0.2) if tiny else (0.1, 0.2, 0.3, 0.4)
    config = {
        "model": "bilinear",
        "params": {"g": g[0], "n_atoms": 1},
        "hilbert": hilbert,
        "sweep": {"name": "g", "values": list(g)},
    }
    return [
        Op("witness", "witness", (), config, _witness,
           pairs_used=lambda v: len(v["ground_energy"])),
    ]


def _cavity_dynamics(tiny: bool) -> list[Op]:
    omega_b = REFERENCE_CAVITY["omega_b"]
    n_dipoles = (25, 100) if tiny else (25, 50, 100, 200, 400)
    classical = {
        "model": "classical",
        "cavity": REFERENCE_CAVITY,
        "freq_grid": {"min": 0.7 * omega_b, "max": 1.3 * omega_b, "n": 2001 if tiny else 100001},
        "sweep": {"name": "n_dipoles", "values": list(n_dipoles)},
    }
    fmt = ("--format", ALL_FORMATS)
    rabi = {"grid": {"n_samples": 1024, "dt": 0.01}} if tiny else {}
    semi = {"initial": {"a_re": 0.1}}
    if tiny:
        semi["grid"] = {"n_samples": 2000, "dt": 0.01}
    return [
        Op("classical", "classical", fmt, classical, _classical),
        Op("rabi-flop", "dynamics", ("rabi-flop", *fmt), rabi, _rabi_flop),
        Op("semiclassical", "dynamics", ("semiclassical", *fmt), semi, _semiclassical),
        Op("vacuum-correlation", "dynamics", ("vacuum-correlation", *fmt), {}, _vacuum),
        Op("verify", "verify", (), None, _verify),
    ]


def _dicke_cavity(tiny: bool) -> list[Op]:
    # The interpreter-heavy cavity ops share a pass with the BLAS-heavy
    # Dicke spectrum, which the host's slow stretches hit about half as hard;
    # alone, their run medians spread past the wall_s bound (README.md, "Noise").
    return _dicke_sweep(tiny) + _cavity_dynamics(tiny)


WORKLOADS = {
    "dicke-cavity": _dicke_cavity,
    "witness-krylov": _witness_krylov,
}
VERBS = ("spectrum", "witness", "classical", "dynamics", "verify")


def ops(workload: str, tiny: bool) -> list[Op]:
    return WORKLOADS[workload](tiny)


def _close(a, b, rtol: float) -> bool:
    return (
        isinstance(a, (int, float))
        and math.isfinite(a)
        and abs(a - b) <= rtol * max(abs(a), abs(b)) + ABS_FLOOR
    )


def matches(actual, ref, rtol: float | None) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(ref)
            and all(matches(a, r, rtol) for a, r in zip(actual, ref))
        )
    if rtol is None or isinstance(ref, (bool, str)) or ref is None:
        return actual == ref
    return _close(actual, ref, rtol)


def check(values: dict, reference: dict) -> list[str]:
    """Mismatches between extracted output values and the reference."""
    problems = []
    drift = values.get("energy_drift")
    if drift is not None and not (drift <= ENERGY_DRIFT_MAX):
        problems.append(f"energy_drift {drift} exceeds {ENERGY_DRIFT_MAX}")
    for key, ref in reference.items():
        if key not in values:
            problems.append(f"{key} missing from the output")
        elif not matches(values[key], ref, TOLERANCES.get(key)):
            problems.append(f"{key} = {values[key]!r}, reference {ref!r}")
    if values.get("all_passed") is False:
        problems.append("verify reports a failed check")
    return problems


def reference_values(values: dict) -> dict:
    """The part of an op's extracted values that is compared to a reference."""
    return {k: v for k, v in values.items() if k != "energy_drift"}
