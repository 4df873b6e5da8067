"""Command line front end.

Verbs: spectrum | witness | dynamics | classical | verify.  A JSON config
file supplies the physical blocks; individual flags override it.  Exit
codes: 0 success, 1 configuration problem, 2 numerical failure, 3
verification failure.  All floating-point output is printed with 12
significant digits so repeated runs with the same config and seed produce
byte-identical files.  Sweep points run one after another in the calling
thread; BLAS threads are set as usual, e.g. by OPENBLAS_NUM_THREADS.

A run commits its result files together.  Each point's files are written as
the point completes, into a staging directory inside the output directory,
and only the point's payload is kept for the summary and the stdout line.
Once every point and the summary have succeeded, each file is moved into the
output directory with os.replace; the staging directory is removed on
success and on any failure, so a failed run lands no file.  A crash during
the final renames can leave part of the files, and a process killed before
its cleanup leaves the staging directory.  verify_report.json and the
witness refusal file are written directly.
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svg
from .classical import (
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    CavityParams,
    classical_quantum_agreement,
    default_grid,
    matched_coupling,
    peak_splitting,
    predicted_splitting,
    splitting_vs_n,
    transmission_spectrum,
)
from .dynamics import (
    FLOP_PHOTON_CUTOFF,
    flop_spectrum,
    rabi_flop_signal,
    semiclassical_trajectory,
    vacuum_correlation_spectrum,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .holstein_primakoff import SpinRep, commutator_residual, hp_exactness_error
from .model import (
    BUILDERS,
    HilbertSpec,
    ModelParams,
    build_bilinear_hamiltonian,
    default_spec,
)
from .series import TimeGrid
from .spectral import (
    DEFAULT_SEED,
    cutoff_convergence,
    eigendecompose,
    ground_state,
    jc_polariton_splitting,
    normal_modes,
)
from .witness import (
    _require_resonance,
    gaussian_ground_state,
    gaussian_linear_entropy,
    linear_entropy,
    linear_entropy_predicted,
    reduced_density,
    separable_bound_scan,
    witness_evaluate,
)

ALL_FORMATS = ("csv", "json", "svg")

VERIFY_TOLERANCES = {
    "hp_exactness": 1e-12,
    "cutoff_final_delta": 1e-10,
    "gap_vs_normal_modes": 1e-6,
    "cross_route_entropy": 1e-6,
    "classical_quantum": 0.05,
    "sqrt_n_slope": 0.02,
}


# ---------------------------------------------------------------- formatting


def _jsonify(obj):
    """Round floats to 12 significant digits and strip numpy types so the
    emitted JSON is reproducible byte for byte."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(svg._fmt(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path.name} would hold a non-finite number ({exc})") from None
    path.write_text(text + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return svg._fmt(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_csv(path: Path, table: dict) -> None:
    """Write a {header: column} table: a float64 array column is laid out by
    the number rule's kernel, any other column is read through tolist() and
    _cell.  A non-finite float is refused before the file is opened."""
    columns = []
    for column in table.values():
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            finite = np.isfinite(column).all()
        else:
            values = column.tolist() if isinstance(column, np.ndarray) else column
            finite = all(math.isfinite(v) for v in values if isinstance(v, float))
            column = svg._text_layout([_cell(v) for v in values])
        if not finite:
            raise NumericalError(f"{path.name} would hold a non-finite number")
        columns.append(column)
    separators = b"," * (len(columns) - 1) + b"\n"
    with path.open("wb") as out:
        out.write((",".join(table) + "\n").encode())
        for text in svg._rows(columns, separators):
            out.write(text)


# ------------------------------------------------------------ configuration


@dataclass
class RunConfig:
    model: str
    params: ModelParams
    hilbert: dict  # the photon_cutoff and matter_dim the config gives
    cavity: CavityParams | None
    grid: dict  # the n_samples and dt the config gives
    freq_grid: tuple | None
    n_eigenvalues: int
    initial_a: complex
    initial_b: complex
    seed: int
    sweep: tuple | None  # (name, values)
    out_dir: Path
    formats: tuple
    verify_tolerances: dict


# every config key and the type its value is read as; a top-level scalar has
# its own type, and None leaves a value to the code that uses it
_BLOCK_KEYS = {
    "model": None,
    "seed": int,
    "params": {"omega_a": float, "omega_b": float, "g": float, "n_atoms": int},
    "hilbert": {"photon_cutoff": int, "matter_dim": int},
    "cavity": {
        "length": float, "reflectivity": float, "background_index": float, "area": float,
        "n_dipoles": int, "dipole_moment": float, "omega_b": float, "gamma": float,
    },
    "grid": {"n_samples": int, "dt": float},
    "freq_grid": {"min": float, "max": float, "n": int},
    "spectrum": {"n_eigenvalues": int},
    "initial": {"a_re": float, "a_im": float, "b_re": float, "b_im": float},
    "sweep": {"name": None, "values": list},
    "output": {"dir": str, "formats": list},
    "verify": {"tolerances": None},
}


def _read(kind, value, where: str):
    """value read as kind.  A list or str key refuses anything but a JSON array
    or string; a number key refuses a bool and anything float() cannot read;
    an int key refuses a non-integral number instead of rounding it."""
    if kind in (list, str) and not isinstance(value, kind):
        raise TypeError(f"{where} must be a JSON {'array' if kind is list else 'string'}, "
                        f"got {value!r}")
    if kind in (None, list, str):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _filled(blocks: dict, name: str, **defaults) -> dict:
    """The block's values over the given defaults; a key without a default
    is required."""
    values = {**defaults, **blocks.get(name, {})}
    missing = set(_BLOCK_KEYS[name]) - set(values)
    if missing:
        raise ConfigurationError(f"{name} block missing keys: {sorted(missing)}")
    return values


def _load_config(args) -> RunConfig:
    try:
        return _parse_config(args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"config value cannot be read: {exc}") from None


def _parse_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config root must be a JSON object")

    unknown = set(raw) - set(_BLOCK_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    blocks = {}
    for name, kinds in _BLOCK_KEYS.items():
        if name not in raw:
            continue
        if not isinstance(kinds, dict):
            blocks[name] = _read(kinds, raw[name], name)
            continue
        if not isinstance(raw[name], dict):
            raise ConfigurationError(f"config block '{name}' must be a JSON object")
        unknown = set(raw[name]) - set(kinds)
        if unknown:
            raise ConfigurationError(f"unknown keys in config block '{name}': {sorted(unknown)}")
        blocks[name] = {k: _read(kinds[k], v, f"{name}.{k}") for k, v in raw[name].items()}

    model = blocks.get("model", "bilinear")
    if model not in (*BUILDERS, "classical"):
        raise ConfigurationError(f"unknown model '{model}'")

    params = ModelParams(**_filled(blocks, "params", omega_a=1.0, omega_b=1.0, g=0.2, n_atoms=1))
    cavity = None
    if "cavity" in blocks:
        cavity = CavityParams(**_filled(blocks, "cavity", background_index=1.0))

    freq_grid = None
    if "freq_grid" in blocks:
        fblock = _filled(blocks, "freq_grid")
        freq_grid = (fblock["min"], fblock["max"], fblock["n"])
        finite = all(map(math.isfinite, freq_grid))
        if not (finite and freq_grid[0] < freq_grid[1]) or freq_grid[2] < 2:
            raise ConfigurationError("freq_grid needs finite min < max and n >= 2")

    n_eigenvalues = _filled(blocks, "spectrum", n_eigenvalues=10)["n_eigenvalues"]
    if n_eigenvalues < 1:
        raise ConfigurationError("spectrum.n_eigenvalues must be >= 1")

    iblock = _filled(blocks, "initial", a_re=0.0, a_im=0.0, b_re=0.0, b_im=0.0)
    initial_a = complex(iblock["a_re"], iblock["a_im"])
    initial_b = complex(iblock["b_re"], iblock["b_im"])
    if not (cmath.isfinite(initial_a) and cmath.isfinite(initial_b)):
        raise ConfigurationError("initial amplitudes must be finite")

    seed = blocks.get("seed", DEFAULT_SEED)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")

    sweep = None
    if "sweep" in blocks:
        sblock = blocks["sweep"]
        if "name" not in sblock or "values" not in sblock or not sblock["values"]:
            raise ConfigurationError("sweep block needs 'name' and non-empty 'values'")
        sweep = (str(sblock["name"]), tuple(sblock["values"]))
    if getattr(args, "sweep", None):
        text = args.sweep
        if "=" not in text:
            raise ConfigurationError("--sweep expects NAME=v1,v2,...")
        name, _, values = text.partition("=")
        parts = [v for v in values.split(",") if v]
        if not parts:
            raise ConfigurationError("--sweep expects NAME=v1,v2,...")
        sweep = (name.strip(), tuple(parts))

    oblock = blocks.get("output", {})
    out_dir = Path(oblock.get("dir", "."))
    if getattr(args, "out", None):
        out_dir = Path(args.out)
    formats = tuple(oblock.get("formats", ["csv", "json"]))
    if getattr(args, "format", None):
        formats = tuple(f for f in args.format.split(",") if f)
    bad = set(formats) - set(ALL_FORMATS)
    if bad or not formats:
        raise ConfigurationError(
            f"formats must be a non-empty subset of {ALL_FORMATS}, got {formats}"
        )

    tolerances = dict(VERIFY_TOLERANCES)
    overrides = blocks.get("verify", {}).get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ConfigurationError("verify.tolerances must be a JSON object")
    bad = set(overrides) - set(tolerances)
    if bad:
        raise ConfigurationError(f"unknown verify tolerances: {sorted(bad)}")
    for key, value in overrides.items():
        where = f"verify.tolerances.{key}"
        tolerances[key] = _read(float, value, where)
        if not (math.isfinite(tolerances[key]) and tolerances[key] >= 0.0):
            raise ConfigurationError(f"{where} must be finite and >= 0, got {value!r}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}")
    if not os.access(out_dir, os.W_OK):
        raise ConfigurationError(f"output directory {out_dir} is not writable")

    return RunConfig(
        model=model,
        params=params,
        hilbert=blocks.get("hilbert", {}),
        cavity=cavity,
        grid=blocks.get("grid", {}),
        freq_grid=freq_grid,
        n_eigenvalues=n_eigenvalues,
        initial_a=initial_a,
        initial_b=initial_b,
        seed=seed,
        sweep=sweep,
        out_dir=out_dir,
        formats=formats,
        verify_tolerances=tolerances,
    )


def _hilbert(cfg: RunConfig, model: str, params: ModelParams, cutoff: int) -> HilbertSpec:
    """The configured truncation; a photon_cutoff the hilbert block omits is
    the caller's, a matter_dim it omits follows model.default_spec."""
    cutoff = cfg.hilbert.get("photon_cutoff", cutoff)
    return dataclasses.replace(default_spec(model, params, cutoff), **cfg.hilbert)


def _sweep_points(cfg: RunConfig, *, classical: bool):
    """Resolve the sweep axis against the params or cavity block, read each
    value as that block's key, and return (label, [(value, params_or_cavity),
    ...])."""
    block, base = ("cavity", cfg.cavity) if classical else ("params", cfg.params)
    if cfg.sweep is None:
        return None, [(None, base)]
    name, values = cfg.sweep
    kinds = _BLOCK_KEYS[block]
    if name not in kinds:
        raise ConfigurationError(f"sweep axis '{name}' is not a {block} key ({sorted(kinds)})")
    values = [_read(kinds[name], v, f"{block}.{name}") for v in values]
    return name, [(v, dataclasses.replace(base, **{name: v})) for v in values]


# ------------------------------------------------------------------ output


@dataclass
class Result:
    """What one run point writes: a JSON payload, CSV tables as
    {header: column} dicts and SVG charts as (title, x_label, y_label).
    Both are keyed by the suffix their file adds to the stem; a chart plots
    the first two columns of the table with its suffix."""

    payload: dict | None = None
    tables: dict = dataclasses.field(default_factory=dict)
    charts: dict = dataclasses.field(default_factory=dict)


def _emit(cfg: RunConfig, directory: Path, stem: str, result: Result) -> dict | None:
    """Write {stem}{suffix}.csv/.svg and {stem}.json into directory for each
    selected format, and return the payload."""
    if "csv" in cfg.formats:
        for suffix, table in result.tables.items():
            _write_csv(directory / f"{stem}{suffix}.csv", table)
    if "json" in cfg.formats and result.payload is not None:
        _write_json(directory / f"{stem}.json", result.payload)
    if "svg" in cfg.formats:
        for suffix, (title, x_label, y_label) in result.charts.items():
            xs, ys = list(result.tables[suffix].values())[:2]
            chart = svg.line_chart(xs, ys, title=title, x_label=x_label, y_label=y_label)
            (directory / f"{stem}{suffix}.svg").write_text(chart)
    return result.payload


def _emit_points(cfg: RunConfig, verb: str, name, points, point, headers=()) -> list:
    """Run point(cfg, params_or_cavity) for each point and write its files at
    once, stem {verb} or {verb}_{i:03d} in a sweep, keeping only its payload;
    with headers also {verb}_summary.csv: the sweep axis (the point index when
    nothing is swept), then one column per header, read from the payload key
    that the header starts with.  The files go into a staging directory in
    out_dir and move into out_dir only when all of them are written; the
    staging directory is removed in any case.  Returns the payloads."""
    staging = Path(tempfile.mkdtemp(prefix=".polariton-staging-", dir=cfg.out_dir))
    try:
        payloads = [_emit(cfg, staging, f"{verb}_{i:03d}" if name else verb, point(cfg, params))
                    for i, (_, params) in enumerate(points)]
        if headers:
            axis = {name: [value for value, _ in points]} if name else {"point": range(len(points))}
            table = {**axis, **{h: [p[h.split()[0]] for p in payloads] for h in headers}}
            _emit(cfg, staging, f"{verb}_summary", Result(tables={"": table}))
        for file in os.listdir(staging):
            os.replace(staging / file, cfg.out_dir / file)
    finally:
        shutil.rmtree(staging)
    return payloads


def _require_model(cfg: RunConfig, what: str, models) -> None:
    """Refuse a run whose configured model the verb does not build."""
    if cfg.model not in models:
        raise ConfigurationError(f"{what} builds only {list(models)}, not model '{cfg.model}'")


# ------------------------------------------------------------------- verbs


def _spectrum_point(cfg, params) -> Result:
    spec = _hilbert(cfg, cfg.model, params, 12)
    h = BUILDERS[cfg.model](params, spec)
    k = min(cfg.n_eigenvalues, h.dim)
    dec = eigendecompose(h, k, seed=cfg.seed)
    values = [float(v) for v in dec.eigenvalues]
    payload = {
        "model": cfg.model,
        "omega_a": params.omega_a,
        "omega_b": params.omega_b,
        "g": params.g,
        "n_atoms": params.n_atoms,
        "collective_coupling": params.collective_coupling,
        "photon_cutoff": spec.photon_cutoff,
        "matter_dim": spec.matter_dim,
        "ground_energy": values[0],
        "first_gap": values[1] - values[0] if k > 1 else None,
        "eigenvalues": values,
    }
    if k == 1:
        payload["first_gap_reason"] = "a gap needs two eigenvalues; only one was computed"
    if cfg.model == "bilinear":
        modes = normal_modes(params)
        payload["omega_minus"] = modes.omega_minus
        payload["omega_plus"] = modes.omega_plus
    table = {"index": range(k), "energy [hbar=1 input frequency units]": values}
    return Result(payload, {"": table}, {"": (f"{cfg.model} spectrum", "index", "energy")})


def cmd_spectrum(cfg: RunConfig, args) -> int:
    if cfg.model == "classical":
        return cmd_classical(cfg, args)
    name, points = _sweep_points(cfg, classical=False)
    headers = ("ground_energy [hbar=1 input frequency units]",
               "first_gap [hbar=1 input frequency units]")
    _emit_points(cfg, "spectrum", name, points, _spectrum_point, headers if name else ())
    print(f"spectrum: wrote {len(points)} point(s) to {cfg.out_dir}")
    return 0


def _bilinear_ground(params, spec, seed):
    """The bilinear Hamiltonian, its ground energy and state, and the photon's
    linear entropy along the Fock and the Gaussian route."""
    h = build_bilinear_hamiltonian(params, spec)
    energy, state = ground_state(h, seed=seed)
    fock = linear_entropy(reduced_density(state, spec, "photon"))
    gaussian = gaussian_linear_entropy(gaussian_ground_state(params), "photon")
    return h, energy, state, fock, gaussian


def _witness_point(cfg, params) -> Result:
    spec = _hilbert(cfg, "bilinear", params, 16)
    _require_resonance(params, "the separable energy floor")  # checked before anything is built
    h, energy, state, fock, gaussian = _bilinear_ground(params, spec, cfg.seed)
    verdict = witness_evaluate(h, state, params)
    gap, tol = abs(fock - gaussian), cfg.verify_tolerances["cross_route_entropy"]
    if not (gap <= tol):
        raise NumericalError(
            f"Fock and Gaussian entropies differ by {gap:.3e} > {tol:.0e} at "
            f"g = {params.g:.12g}: photon_cutoff {spec.photon_cutoff} has not converged"
        )
    return Result({
        "omega_a": params.omega_a,
        "omega_b": params.omega_b,
        "collective_coupling": params.collective_coupling,
        "ground_energy": energy,
        "witness_value": verdict.value,
        "separable_floor": verdict.separable_floor,
        "verdict": verdict.verdict,
        "coherent_scan_minimum": separable_bound_scan(params).minimum,
        "entropy_fock": fock,
        "entropy_gaussian": gaussian,
        "entropy_predicted": linear_entropy_predicted(params),
    })


def cmd_witness(cfg: RunConfig, args) -> int:
    _require_model(cfg, "witness", ("bilinear",))
    name, points = _sweep_points(cfg, classical=False)
    headers = ("witness_value [hbar=1 input frequency units]", "verdict",
               "entropy_fock [1]", "entropy_gaussian [1]", "entropy_predicted [1]")
    try:
        payloads = _emit_points(cfg, "witness", name, points, _witness_point, headers)
    except DomainError as exc:
        _emit(cfg, cfg.out_dir, "witness", Result({"status": "refused", "reason": str(exc)}))
        print(f"witness: refused ({exc})", file=sys.stderr)
        return 1
    verdicts = ", ".join(p["verdict"] for p in payloads)
    print(f"witness: {verdicts} (files in {cfg.out_dir})")
    return 0


def _rabi_flop(cfg, params) -> Result:
    _require_model(cfg, "rabi-flop", BUILDERS)
    # dt must resolve the spectral radius of the default truncation
    grid = dataclasses.replace(TimeGrid(32768, 0.01), **cfg.grid)
    spec = _hilbert(cfg, cfg.model, params, FLOP_PHOTON_CUTOFF[cfg.model])
    traj = rabi_flop_signal(params, grid, model=cfg.model, spec=spec, seed=cfg.seed)
    spectrum = flop_spectrum(traj)
    peak = float(spectrum.frequencies[int(np.argmax(spectrum.intensities))])
    payload = {
        "model": cfg.model,
        "collective_coupling": params.collective_coupling,
        "dominant_frequency": peak,
    }
    if cfg.model == "bilinear":
        payload["normal_mode_splitting"] = normal_modes(params).splitting
    if cfg.model == "jc-rwa":
        payload["single_excitation_splitting"] = 2.0 * params.collective_coupling
    tables = {
        "": {"time [1/input frequency]": traj.times,
             "matter_excitation [1]": traj.channels["matter_excitation"]},
        "_spectrum": {"omega [input frequency units]": spectrum.frequencies,
                      "power [arb]": spectrum.intensities},
    }
    charts = {"": ("matter excitation", "time", "<n_b>"),
              "_spectrum": ("flopping spectrum", "omega", "power")}
    return Result(payload, tables, charts)


def _semiclassical(cfg, params) -> Result:
    _require_model(cfg, "semiclassical", ("bilinear",))
    grid = dataclasses.replace(TimeGrid(20000, 0.01), **cfg.grid)
    traj = semiclassical_trajectory(params, cfg.initial_a, cfg.initial_b, grid)
    a, b, energy = (traj.channels[key] for key in ("a", "b", "energy"))
    payload = {
        "collective_coupling": params.collective_coupling,
        "initial_a": [cfg.initial_a.real, cfg.initial_a.imag],
        "initial_b": [cfg.initial_b.real, cfg.initial_b.imag],
        "max_abs_a": float(np.abs(a).max()),
        "max_abs_b": float(np.abs(b).max()),
        "energy_drift": float(np.max(np.abs(energy - energy[0]))),
    }
    table = {"time [1/input frequency]": traj.times, "re_a [1]": a.real, "im_a [1]": a.imag,
             "re_b [1]": b.real, "im_b [1]": b.imag,
             "energy [hbar=1 input frequency units]": energy}
    return Result(payload, {"": table}, {"": ("mean field", "time", "Re <a>")})


def _vacuum_correlation(cfg, params) -> Result:
    _require_model(cfg, "vacuum-correlation", ("bilinear",))
    grid = dataclasses.replace(TimeGrid(8192, 0.05), **cfg.grid)
    spec = _hilbert(cfg, "bilinear", params, 12)
    spectrum = vacuum_correlation_spectrum(params, grid, spec=spec, seed=cfg.seed)
    modes = normal_modes(params)
    floor = 0.01 * float(spectrum.intensities.max())
    lines = [
        {"omega": float(f), "weight": float(v)}
        for f, v in zip(spectrum.frequencies, spectrum.intensities)
        if v >= floor
    ]
    payload = {
        "collective_coupling": params.collective_coupling,
        "omega_minus": modes.omega_minus,
        "omega_plus": modes.omega_plus,
        "total_weight": float(spectrum.intensities.sum()),
        "peaks": lines,
    }
    table = {"omega [input frequency units]": spectrum.frequencies,
             "weight [1]": spectrum.intensities}
    return Result(payload, {"": table}, {"": ("vacuum correlation spectrum", "omega", "weight")})


# kind: (its point, its stdout line read from the point's payload)
_DYNAMICS = {
    "rabi-flop": (_rabi_flop, lambda p: f"dominant frequency {svg._fmt(p['dominant_frequency'])}"),
    "semiclassical": (_semiclassical, lambda p: f"max |<a>| {svg._fmt(p['max_abs_a'])}, "
                                                f"max |<b>| {svg._fmt(p['max_abs_b'])}"),
    "vacuum-correlation": (_vacuum_correlation,
                           lambda p: f"{len(p['peaks'])} line(s) above floor"),
}


def cmd_dynamics(cfg: RunConfig, args) -> int:
    kind = args.kind
    if cfg.sweep is not None:
        raise ConfigurationError("dynamics does not support sweeps")
    point, message = _DYNAMICS[kind]
    [payload] = _emit_points(cfg, kind.replace("-", "_"), None, [(None, cfg.params)], point)
    print(f"dynamics {kind}: {message(payload)}")
    return 0


def _classical_point(cavity, grid) -> Result:
    omegas = default_grid(cavity, 4001) if grid is None else grid
    spectrum = transmission_spectrum(cavity, omegas)
    report = peak_splitting(spectrum)
    payload = {
        "n_dipoles": cavity.n_dipoles,
        "predicted_splitting": predicted_splitting(cavity),
        "matched_lambda": matched_coupling(cavity),
        "flag": report.flag,
        "peak_frequencies": list(report.peak_frequencies),
        "splitting": report.splitting,
    }
    try:
        agreement = classical_quantum_agreement(cavity)
        payload["quantum_splitting"] = agreement.quantum_splitting
        payload["relative_deviation"] = agreement.relative_deviation
        if agreement.relative_deviation is None:
            payload["relative_deviation_reason"] = (
                f"transmission at the matched coupling shows {agreement.flag}"
            )
    except (ConfigurationError, DomainError) as exc:
        for key in ("quantum_splitting", "relative_deviation"):
            payload[key], payload[f"{key}_reason"] = None, str(exc)
    table = {"omega [rad/s]": spectrum.frequencies, "transmission [1]": spectrum.intensities}
    return Result(payload, {"": table}, {"": ("cavity transmission", "omega [rad/s]", "T")})


def cmd_classical(cfg: RunConfig, args) -> int:
    if cfg.cavity is None:
        raise ConfigurationError("classical runs need a cavity block in the config")
    name, points = _sweep_points(cfg, classical=True)
    # a configured grid is one array that every point's table shares
    grid = None if cfg.freq_grid is None else np.linspace(*cfg.freq_grid)
    headers = ("splitting [rad/s]", "predicted_splitting [rad/s]", "flag")
    payloads = _emit_points(cfg, "classical", name, points,
                            lambda cfg, cavity: _classical_point(cavity, grid),
                            headers if name else ())
    flags = ", ".join(p["flag"] for p in payloads)
    print(f"classical: {flags} (files in {cfg.out_dir})")
    return 0


# ------------------------------------------------------------------ verify


def reference_cavity(
    n_dipoles: int = 100,
    *,
    coupling_fraction: float = 0.1,
    finesse: float = 300.0,
    gamma_fraction: float = 0.0025,
) -> CavityParams:
    """SI cavity with dipole resonance omega_b = 2.4e15 rad/s and mode
    cross-section 1e-12 m^2, tuned to its first longitudinal mode, with the
    dipole moment solved so the predicted peak separation is
    coupling_fraction * omega_b."""
    omega_b, area = 2.4e15, 1e-12
    length = math.pi * SPEED_OF_LIGHT / omega_b
    target = coupling_fraction * omega_b
    dipole = target / math.sqrt(n_dipoles * omega_b / (HBAR * VACUUM_PERMITTIVITY * area * length))
    # amplitude reflectivity from finesse = pi r / (1 - r^2)
    coef = math.pi / finesse
    r = (-coef + math.sqrt(coef * coef + 4.0)) / 2.0
    return CavityParams(length=length, reflectivity=r, background_index=1.0, area=area,
                        n_dipoles=n_dipoles, dipole_moment=dipole, omega_b=omega_b,
                        gamma=gamma_fraction * omega_b)


def _log_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def _check(name: str, tolerance: float, measured: dict, passed) -> dict:
    return {"name": name, "tolerance": tolerance, "measured": measured, "passed": bool(passed)}


def run_verification(tolerances: dict, seed: int = DEFAULT_SEED) -> dict:
    """The five standing cross-checks with their measured values."""
    checks = []

    # 1. exact bosonization on the truncated ladder
    js = [0.5 * k for k in range(1, 101)]
    worst_exact = max(hp_exactness_error(SpinRep(j)) for j in js)
    worst_comm = max(commutator_residual(SpinRep(j)) for j in js)
    tol = tolerances["hp_exactness"]
    checks.append(_check("hp_exactness", tol,
                         {"max_map_error": worst_exact, "max_commutator_residual": worst_comm},
                         worst_exact <= tol and worst_comm <= tol))

    # 2. cutoff ladder and gap agreement with the normal modes
    params = ModelParams.from_collective(1.0, 1.0, 0.2)
    ladder = cutoff_convergence(
        "bilinear", params, (8, 10, 12), tol=tolerances["cutoff_final_delta"], seed=seed
    )
    h = build_bilinear_hamiltonian(params, default_spec("bilinear", params, 12))
    dec = eigendecompose(h, 3, seed=seed)
    modes = normal_modes(params)
    gap_lo = abs(float(dec.eigenvalues[1] - dec.eigenvalues[0]) - modes.omega_minus)
    gap_hi = abs(float(dec.eigenvalues[2] - dec.eigenvalues[0]) - modes.omega_plus)
    gtol = tolerances["gap_vs_normal_modes"]
    checks.append(_check(
        "cutoff_convergence", tolerances["cutoff_final_delta"],
        {"final_delta": ladder.final_delta, "gap_error_lower": gap_lo, "gap_error_upper": gap_hi},
        ladder.converged and gap_lo <= gtol and gap_hi <= gtol,
    ))

    # 3. entropy route agreement
    worst_gap = 0.0
    for lam in (0.05, 0.1, 0.2, 0.3):
        p = ModelParams.from_collective(1.0, 1.0, lam)
        *_, fock, gaussian = _bilinear_ground(p, default_spec("bilinear", p, 16), seed)
        worst_gap = max(worst_gap, abs(fock - gaussian))
    tol = tolerances["cross_route_entropy"]
    checks.append(_check("cross_route_entropy", tol, {"max_route_gap": worst_gap}, worst_gap <= tol))

    # 4. classical transmission versus quantum normal modes
    cavity = reference_cavity()
    agreement = classical_quantum_agreement(cavity)
    tol = tolerances["classical_quantum"]
    checks.append(_check("classical_quantum", tol, {
        "relative_deviation": agreement.relative_deviation,
        "classical_splitting": agreement.classical_splitting,
        "quantum_splitting": agreement.quantum_splitting,
    }, agreement.flag == "split" and agreement.relative_deviation <= tol))

    # 5. square-root scaling of the splitting with dipole number
    fit_cavity = reference_cavity(
        256, coupling_fraction=0.04, finesse=1000.0, gamma_fraction=5e-5
    )
    n_values = (4, 8, 16, 32, 64, 128, 256)
    splittings = splitting_vs_n(fit_cavity, n_values)
    tol = tolerances["sqrt_n_slope"]
    if any(s is None for s in splittings):
        classical_slope = None
        ok = False
    else:
        classical_slope = _log_slope(n_values, splittings)
        ok = abs(classical_slope - 0.5) <= tol
    jc_ns = (1, 2, 4, 8, 16, 32, 64)
    jc_splittings = [
        jc_polariton_splitting(ModelParams(1.0, 1.0, 0.01, n), seed=seed) for n in jc_ns
    ]
    jc_slope = _log_slope(jc_ns, jc_splittings)
    ok = ok and abs(jc_slope - 0.5) <= tol
    measured = {"classical_slope": classical_slope, "jc_slope": jc_slope}
    if classical_slope is None:
        unresolved = [n for n, s in zip(n_values, splittings) if s is None]
        measured["classical_slope_reason"] = f"no resolved splitting at n_dipoles {unresolved}"
    checks.append(_check("sqrt_n_fit", tol, measured, ok))

    return {
        "seed": seed,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def cmd_verify(cfg: RunConfig, args) -> int:
    report = run_verification(cfg.verify_tolerances, seed=cfg.seed)
    # the report is written whatever the selected formats
    _write_json(cfg.out_dir / "verify_report.json", report)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"verify: {check['name']}: {status}")
    if report["all_passed"]:
        print("verify: all checks passed")
        return 0
    print("verify: FAILED", file=sys.stderr)
    return 3


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors so the
    exit code stays 1."""

    def error(self, message):
        raise ConfigurationError(message)


# verb: (handler, help, what --sweep runs over; None where it takes no sweep)
_VERBS = {
    "spectrum": (cmd_spectrum, "eigenvalue tables or classical spectra", "a parameter"),
    "witness": (cmd_witness, "entanglement witness and linear entropy", "a parameter"),
    "dynamics": (cmd_dynamics, "time evolution and spectra", None),
    "classical": (cmd_classical, "multi-beam interference transmission", "a cavity parameter"),
    "verify": (cmd_verify, "run the standing cross-check suite", None),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="polariton", description=__doc__)
    subs = parser.add_subparsers(dest="verb", parser_class=_Parser)
    for verb, (handler, help_text, axis) in _VERBS.items():
        sub = subs.add_parser(verb, help=help_text)
        if verb == "dynamics":
            sub.add_argument("kind", choices=tuple(_DYNAMICS))
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--out", help="output directory (overrides config)")
        sub.add_argument("--format", help="comma list from csv,json,svg")
        sub.add_argument("--seed", type=int, help="eigensolver seed")
        if axis:
            sub.add_argument("--sweep", help=f"NAME=v1,v2,... over {axis}")
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_help()
            return 1
        cfg = _load_config(args)
        return args.handler(cfg, args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a Python float formula overflowed or divided by 0
        print(f"numerical failure: arithmetic out of range ({exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
