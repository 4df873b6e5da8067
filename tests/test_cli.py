"""End-to-end runs of the command line verbs."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polariton
from polariton.classical import CavityParams
from polariton.cli import _BLOCK_KEYS, main, reference_cavity
from polariton.model import HilbertSpec, ModelParams
from polariton.series import TimeGrid

SRC = Path(polariton.__file__).resolve().parents[1]


def _run_cli(argv, **env):
    """Run the CLI in a fresh interpreter with extra environment variables."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True
    )


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _cavity_block():
    cav = reference_cavity()
    return {
        "length": cav.length,
        "reflectivity": cav.reflectivity,
        "background_index": cav.background_index,
        "area": cav.area,
        "n_dipoles": cav.n_dipoles,
        "dipole_moment": cav.dipole_moment,
        "omega_b": cav.omega_b,
        "gamma": cav.gamma,
    }


def test_spectrum_writes_all_formats(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "model": "bilinear",
            "params": {"omega_a": 1.0, "omega_b": 1.0, "g": 0.2},
            "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "json", "svg"]},
        },
    )
    assert main(["spectrum", "--config", cfg]) == 0
    out = tmp_path / "out"
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "index"
    assert "energy" in header
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["ground_energy"] == pytest.approx(-0.0210936870693, abs=1e-9)
    assert payload["omega_minus"] == pytest.approx(0.774596669241, abs=1e-9)
    svg_text = (out / "spectrum.svg").read_text()
    assert svg_text.startswith("<svg") and "polyline" in svg_text


def test_spectrum_sweep_summary(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"output": {"dir": str(tmp_path / "out"), "formats": ["csv"]}},
    )
    assert main(["spectrum", "--config", cfg, "--sweep", "g=0.1,0.2,0.3"]) == 0
    out = tmp_path / "out"
    lines = (out / "spectrum_summary.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "g"
    assert len(lines) == 4
    assert (out / "spectrum_000.csv").exists()
    assert (out / "spectrum_002.csv").exists()


def test_spectrum_asks_only_for_the_written_pairs(tmp_path, monkeypatch):
    from polariton import cli

    asked = []
    real = cli.eigendecompose

    def spy(h, k=None, **kwargs):
        asked.append(k)
        return real(h, k, **kwargs)

    monkeypatch.setattr(cli, "eigendecompose", spy)
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    assert asked == [10]
    assert len(json.loads((tmp_path / "spectrum.json").read_text())["eigenvalues"]) == 10


def test_spectrum_keeps_the_ground_energy_of_a_one_state_sector(tmp_path):
    # dim 5213; the vacuum alone makes up the excitation-0 sector
    cfg = _write_config(tmp_path / "cfg.json", {
        "model": "jc-rwa",
        "params": {"g": 0.02, "n_atoms": 400},
        "spectrum": {"n_eigenvalues": 6},
    })
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["ground_energy"] == 0.0
    assert payload["eigenvalues"][:2] == [0.0, 0.6]


def test_gap_and_ladder_callers_ask_only_for_the_pairs_they_read(monkeypatch):
    from polariton import cli, holstein_primakoff, spectral
    from polariton.holstein_primakoff import dicke_vs_bilinear_gap
    from polariton.model import ModelParams
    from polariton.spectral import cutoff_convergence, jc_polariton_splitting

    asked = []
    real = spectral.eigendecompose

    def spy(h, k=None, **kwargs):
        asked.append(k)
        return real(h, k, **kwargs)

    for module in (cli, holstein_primakoff, spectral):
        monkeypatch.setattr(module, "eigendecompose", spy)
    p = ModelParams.from_collective(1.0, 1.0, 0.1)
    cutoff_convergence("bilinear", p, (4, 6))
    jc_polariton_splitting(ModelParams(1.0, 1.0, 0.01, 4))
    dicke_vs_bilinear_gap(p, (2, 4))
    assert asked == [1, 1, 3, 2, 2]
    asked.clear()
    assert cli.run_verification(cli.VERIFY_TOLERANCES)["all_passed"]
    assert asked and None not in asked


def test_witness_verdicts_and_keys(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "params": {"g": 0.2},
            "output": {"dir": str(tmp_path / "out"), "formats": ["json", "csv"]},
        },
    )
    assert main(["witness", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "witness.json").read_text())
    assert payload["verdict"] == "entangled"
    assert payload["witness_value"] < -1e-6
    assert payload["entropy_predicted"] == pytest.approx(0.04, abs=1e-12)
    assert abs(payload["entropy_fock"] - payload["entropy_gaussian"]) < 1e-6


def test_witness_refuses_detuned_input(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "params": {"omega_a": 1.0, "omega_b": 1.4, "g": 0.2},
            "output": {"dir": str(tmp_path / "out"), "formats": ["json"]},
        },
    )
    assert main(["witness", "--config", cfg]) == 1
    refusal = json.loads((tmp_path / "out" / "witness.json").read_text())
    assert refusal["status"] == "refused"
    assert "resonance" in refusal["reason"]


def test_witness_refuses_detuned_input_before_solving(tmp_path, monkeypatch):
    # at dim 4160 the ground state is a Krylov solve; a detuned point needs none
    from polariton import cli

    calls = []
    real = cli.ground_state

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "ground_state", spy)
    cfg = _write_config(tmp_path / "cfg.json", {
        "params": {"omega_b": 1.4},
        "hilbert": {"photon_cutoff": 63, "matter_dim": 65},
    })
    assert main(["witness", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert calls == []
    refusal = json.loads((tmp_path / "out" / "witness.json").read_text())
    assert refusal["reason"].startswith("the separable energy floor holds only on resonance")


def test_dynamics_kinds_run(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "params": {"g": 0.2},
            "grid": {"n_samples": 4096, "dt": 0.01},
            "output": {"dir": str(tmp_path / "out"), "formats": ["json"]},
        },
    )
    assert main(["dynamics", "rabi-flop", "--config", cfg]) == 0
    flop = json.loads((tmp_path / "out" / "rabi_flop.json").read_text())
    bin_width = 2.0 * 3.141592653589793 / (4096 * 0.01)
    assert abs(flop["dominant_frequency"] - flop["normal_mode_splitting"]) <= bin_width

    assert main(["dynamics", "semiclassical", "--config", cfg]) == 0
    mean_field = json.loads((tmp_path / "out" / "semiclassical.json").read_text())
    assert mean_field["max_abs_a"] == 0.0
    assert mean_field["max_abs_b"] == 0.0

    vac_cfg = _write_config(
        tmp_path / "vac.json",
        {
            "params": {"g": 0.2},
            "grid": {"n_samples": 8192, "dt": 0.05},
            "output": {"dir": str(tmp_path / "out"), "formats": ["json"]},
        },
    )
    assert main(["dynamics", "vacuum-correlation", "--config", vac_cfg]) == 0
    vac = json.loads((tmp_path / "out" / "vacuum_correlation.json").read_text())
    assert len(vac["peaks"]) == 2


def test_classical_verb(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "model": "classical",
            "cavity": _cavity_block(),
            "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "json"]},
        },
    )
    assert main(["classical", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "classical.json").read_text())
    assert payload["flag"] == "split"
    assert payload["relative_deviation"] < 0.05
    header = (tmp_path / "out" / "classical.csv").read_text().splitlines()[0]
    assert "rad/s" in header


def test_sweep_point_matches_single_run(tmp_path):
    sweep = _write_config(
        tmp_path / "sweep.json",
        {"output": {"dir": str(tmp_path / "sweep"), "formats": ["json"]}},
    )
    assert main(["witness", "--config", sweep, "--sweep", "g=0.05,0.1,0.2,0.3"]) == 0
    single = _write_config(
        tmp_path / "single.json",
        {"params": {"g": 0.2}, "output": {"dir": str(tmp_path / "single"), "formats": ["json"]}},
    )
    assert main(["witness", "--config", single]) == 0
    point = (tmp_path / "sweep" / "witness_002.json").read_bytes()
    assert point == (tmp_path / "single" / "witness.json").read_bytes()


def test_sweep_is_thread_order_independent(tmp_path):
    """The BLAS thread count does not change a byte of the sweep output."""

    def run(threads):
        out = tmp_path / f"blas{threads}"
        argv = ["-m", "polariton.cli", "witness", "--sweep", "g=0.05,0.1,0.2,0.3",
                "--format", "csv,json", "--out", str(out)]
        _run_cli(argv, OPENBLAS_NUM_THREADS=str(threads))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    one = run(1)
    assert len(one) == 5
    assert one == run(2)


def test_verify_accepts_tolerance_overrides(tmp_path):
    cfg = _write_config(
        tmp_path / "strict.json",
        {
            "verify": {"tolerances": {"hp_exactness": 1e-30}},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["verify", "--config", cfg]) == 3
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["hp_exactness"]["passed"] is False
    assert by_name["cross_route_entropy"]["passed"] is True


def test_configuration_errors_exit_one(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 1
    bad_model = _write_config(tmp_path / "m.json", {"model": "tight-binding"})
    assert main(["spectrum", "--config", bad_model]) == 1
    bad_key = _write_config(tmp_path / "k.json", {"paramz": {}})
    assert main(["spectrum", "--config", bad_key]) == 1
    assert main(["spectrum", "--format", "yaml"]) == 1
    assert main(["spectrum", "--sweep", "volume=1,2"]) == 1
    assert main(["spectrum", "--sweep", "gnarble"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    nan_g = _write_config(
        tmp_path / "nan.json", {"model": "dicke", "params": {"g": math.nan, "n_atoms": 3}}
    )
    assert main(["spectrum", "--config", nan_g, "--out", str(tmp_path / "nan")]) == 1
    assert not (tmp_path / "nan").exists()
    bad_value = _write_config(tmp_path / "v.json", {"sweep": {"name": "g", "values": ["abc"]}})
    assert main(["spectrum", "--config", bad_value, "--out", str(tmp_path / "v")]) == 1
    assert main(["spectrum", "--sweep", "g=abc", "--out", str(tmp_path / "v")]) == 1
    # a block that is not an object, or holds a key nothing reads, is refused
    for i, config in enumerate([
        {"params": {"omega_A": 1.3}},
        {"params": [0.3]},
        {"grid": {"n_sample": 100}},
        {"verify": {"tolerances": ["hp_exactness"]}},
    ]):
        path = _write_config(tmp_path / f"block{i}.json", config)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "b")]) == 1
    assert not (tmp_path / "b").exists()
    # a value its key's type cannot hold as given is refused, naming the key
    capsys.readouterr()
    for i, (config, key) in enumerate([
        ({"model": "dicke", "params": {"n_atoms": 2.5}}, "params.n_atoms"),
        ({"spectrum": {"n_eigenvalues": 2.9}}, "spectrum.n_eigenvalues"),
        ({"hilbert": {"photon_cutoff": 6.9}}, "hilbert.photon_cutoff"),
        ({"seed": 3.5}, "seed"),
        ({"params": {"g": False}}, "params.g"),
        ({"output": {"dir": 5}}, "output.dir"),
    ]):
        path = _write_config(tmp_path / f"typed{i}.json", config)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "t")]) == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "t").exists()
    assert main(["spectrum", "--sweep", "n_atoms=1.7,2", "--out", str(tmp_path / "s")]) == 1
    assert "params.n_atoms" in capsys.readouterr().err
    assert not any((tmp_path / "s").iterdir())
    # a truncation too large to allocate is a numerical failure, not a traceback
    huge = _write_config(tmp_path / "huge.json", {"hilbert": {"photon_cutoff": 1e9}})
    assert main(["spectrum", "--config", huge, "--out", str(tmp_path / "h")]) == 2
    # each refusal names its cause on stderr and leaves no result file
    (tmp_path / "text.json").write_text("{model: dicke}")
    (tmp_path / "inf.json").write_text('{"initial": {"a_re": 1e400}}')  # JSON reads inf
    (tmp_path / "file").write_text("")
    no_gamma = {key: value for key, value in _cavity_block().items() if key != "gamma"}
    for i, (argv, config, message) in enumerate([
        (["spectrum"], "text.json", "config is not valid JSON"),
        (["spectrum"], [1, 2], "config root must be a JSON object"),
        (["classical"], {"model": "classical", "cavity": no_gamma}, "missing keys: ['gamma']"),
        (["spectrum"], {"spectrum": {"n_eigenvalues": 0}}, "spectrum.n_eigenvalues must be >= 1"),
        (["dynamics", "semiclassical"], "inf.json", "initial amplitudes must be finite"),
        (["spectrum"], {"sweep": {"name": "g", "values": []}}, "non-empty 'values'"),
        (["spectrum", "--sweep", "g="], None, "--sweep expects NAME=v1,v2,..."),
        (["verify"], {"verify": {"tolerances": {"bogus": 1.0}}}, "unknown verify tolerances"),
        (["classical"], {"model": "classical"}, "classical runs need a cavity block"),
        (["spectrum"], {"sweep": {"name": "g", "values": 5}}, "config value cannot be read"),
    ]):
        if isinstance(config, str):
            argv = [*argv, "--config", str(tmp_path / config)]
        elif config is not None:
            argv = [*argv, "--config", _write_config(tmp_path / f"refused{i}.json", config)]
        out = tmp_path / f"refused{i}"
        assert main([*argv, "--out", str(out)]) == 1, message
        assert message in capsys.readouterr().err
        assert not (out.exists() and any(out.iterdir()))
    assert main(["spectrum", "--out", str(tmp_path / "file" / "out")]) == 1
    assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags", [
    ({"seed": -1}, []),
    ({}, ["--seed", "-1"]),
])
def test_negative_seed_exits_one(tmp_path, capsys, config, flags):
    # 1313 states in two parity blocks of over 512: the Lanczos path reads the seed
    config = {"model": "dicke", "params": {"g": 0.02, "n_atoms": 100}, **config}
    path = _write_config(tmp_path / "seed.json", config)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "o"), *flags]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["witness", "verify"])
@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_bad_verify_tolerance_exits_one(tmp_path, capsys, verb, value):
    config = {"verify": {"tolerances": {"cross_route_entropy": value}}}
    path = _write_config(tmp_path / "tol.json", config)
    assert main([verb, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "verify.tolerances.cross_route_entropy must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, key", [
    ({"model": "dicke", "sweep": {"name": "n_atoms", "values": "12"}}, "sweep.values"),
    ({"sweep": {"name": "g", "values": {"0.1": 1}}}, "sweep.values"),
    ({"output": {"formats": "csv"}}, "output.formats"),
    ({"output": {"formats": {"json": True}}}, "output.formats"),
], ids=["values-string", "values-object", "formats-string", "formats-object"])
def test_a_list_key_refuses_anything_but_a_json_array(tmp_path, capsys, config, key):
    # tuple() of a string or an object would sweep its characters or its keys
    path = _write_config(tmp_path / "list.json", config)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config value cannot be read: {key} must be a JSON array" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("block, cls", [
    ("params", ModelParams), ("hilbert", HilbertSpec), ("cavity", CavityParams), ("grid", TimeGrid),
])
def test_config_blocks_match_the_dataclasses_they_fill(block, cls):
    # each field can be set from the config, and read as the type it declares
    keys = {key: kind.__name__ for key, kind in _BLOCK_KEYS[block].items()}
    assert keys == {field.name: field.type for field in dataclasses.fields(cls)}


@pytest.mark.parametrize("config", [
    {"hilbert": {"photon_cutoff": 1e300}},
    {"hilbert": {"photon_cutoff": 1e12}},
    {"model": "dicke", "params": {"n_atoms": 1e300}},
])
def test_truncation_numpy_cannot_index_exits_two(tmp_path, capsys, config):
    # numpy refuses these shapes with ValueError before trying to allocate
    path = _write_config(tmp_path / "huge.json", config)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "h")]) == 2
    assert "out of memory" in capsys.readouterr().err


def test_grid_block_follows_the_verb_default(tmp_path):
    def flop(name, grid):
        out = tmp_path / name
        cfg = _write_config(tmp_path / f"{name}.json", {"grid": grid})
        argv = ["dynamics", "rabi-flop", "--config", cfg, "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "rabi_flop.csv").read_text().splitlines()[1:]
        return len(rows), float(rows[1].split(",")[0])

    # a key the grid block omits keeps the verb's own value, 32768 x 0.01
    assert flop("samples", {"n_samples": 1024}) == (1024, 0.01)
    assert flop("step", {"dt": 0.005}) == (32768, 0.005)


def test_hilbert_block_is_used_as_given(tmp_path):
    def spectrum(name, model, hilbert):
        out = tmp_path / name
        cfg = _write_config(
            tmp_path / f"{name}.json",
            {
                "model": model,
                "params": {"g": 0.1, "n_atoms": 3},
                "hilbert": hilbert,
                "output": {"dir": str(out), "formats": ["json"]},
            },
        )
        code = main(["spectrum", "--config", cfg])
        if code != 0:
            return code
        payload = json.loads((out / "spectrum.json").read_text())
        return payload["photon_cutoff"], payload["matter_dim"]

    # a given matter_dim is never replaced, so a mismatch is refused
    assert spectrum("mismatch", "dicke", {"photon_cutoff": 8, "matter_dim": 9}) == 1
    assert spectrum("bilinear_given", "bilinear", {"matter_dim": 5}) == (12, 5)
    # an omitted matter_dim follows the default truncation rule
    assert spectrum("dicke_default", "dicke", {"photon_cutoff": 8}) == (8, 4)
    assert spectrum("bilinear_default", "bilinear", {"photon_cutoff": 8}) == (8, 9)


_SWEEP_G = {"sweep": {"name": "g", "values": [0.1, 0.2]}}
_CLASSICAL = {"model": "classical", "cavity": _cavity_block()}
_CLASSICAL_SWEEP = dict(_CLASSICAL, sweep={"name": "n_dipoles", "values": [25, 100]})


def _stems(*stems, kinds=("csv", "json", "svg")):
    return {f"{stem}.{kind}" for stem in stems for kind in kinds}


@pytest.mark.parametrize(
    "argv, config, code, files",
    [
        (["spectrum"], {}, 0, _stems("spectrum")),
        (["spectrum"], _SWEEP_G, 0,
         _stems("spectrum_000", "spectrum_001") | {"spectrum_summary.csv"}),
        (["spectrum"], _CLASSICAL, 0, _stems("classical")),
        (["witness"], {}, 0, {"witness.json", "witness_summary.csv"}),
        (["witness"], _SWEEP_G, 0,
         {"witness_000.json", "witness_001.json", "witness_summary.csv"}),
        (["witness"], {"params": {"omega_b": 1.4}}, 1, {"witness.json"}),
        (["classical"], _CLASSICAL, 0, _stems("classical")),
        (["classical"], _CLASSICAL_SWEEP, 0,
         _stems("classical_000", "classical_001") | {"classical_summary.csv"}),
        (["dynamics", "rabi-flop"], {"grid": {"n_samples": 1024, "dt": 0.01}}, 0,
         _stems("rabi_flop") | _stems("rabi_flop_spectrum", kinds=("csv", "svg"))),
        (["dynamics", "semiclassical"], {"grid": {"n_samples": 1000, "dt": 0.01}}, 0,
         _stems("semiclassical")),
        (["dynamics", "vacuum-correlation"], {}, 0, _stems("vacuum_correlation")),
        (["dynamics", "rabi-flop"], _SWEEP_G, 1, set()),
        (["dynamics", "semiclassical"], _SWEEP_G, 1, set()),
        (["dynamics", "vacuum-correlation"], _SWEEP_G, 1, set()),
        (["verify"], {}, 0, {"verify_report.json"}),
        (["witness"], {"params": {"g": 0.49}}, 2, set()),
    ],
)
def test_output_file_sets(tmp_path, argv, config, code, files):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", config)
    argv = [*argv, "--config", cfg, "--format", "csv,json,svg", "--out", str(out)]
    assert main(argv) == code
    assert {p.name for p in out.iterdir()} == files


def test_classical_nulls_carry_reasons(tmp_path):
    # no dipoles: no matched quantum model; one damped dipole: no splitting
    cavity = dict(_cavity_block(), gamma=5e13)
    omega_b = cavity["omega_b"]
    config = {
        "cavity": cavity,
        "freq_grid": {"min": 0.7 * omega_b, "max": 1.3 * omega_b, "n": 4001},
        "sweep": {"name": "n_dipoles", "values": [0, 1, 100]},
    }
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main(["classical", "--config", cfg, "--format", "json", "--out", str(tmp_path)]) == 0
    empty, damped, full = (
        json.loads((tmp_path / f"classical_00{i}.json").read_text()) for i in range(3)
    )
    for key in ("quantum_splitting", "relative_deviation"):
        assert empty[key] is None
        assert "dipole" in empty[f"{key}_reason"]
        assert full[key] is not None
        assert f"{key}_reason" not in full
    assert damped["quantum_splitting"] is not None
    assert "quantum_splitting_reason" not in damped
    assert damped["relative_deviation"] is None
    assert "no-splitting" in damped["relative_deviation_reason"]


def test_default_probe_grid_stays_positive_for_a_damped_cavity(tmp_path):
    # 60 linewidths exceed omega_b, which used to push the grid below zero
    cavity = dict(_cavity_block(), gamma=5e13)
    cfg = _write_config(tmp_path / "cfg.json", {"model": "classical", "cavity": cavity})
    assert main(["classical", "--config", cfg, "--format", "csv", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "classical.csv").read_text().splitlines()[1:]
    omegas = [float(row.split(",")[0]) for row in rows]
    assert len(omegas) == 4001 and omegas[0] > 0.0


def test_quantum_splitting_does_not_depend_on_a_probe_grid(tmp_path):
    # 40 linewidths exceed omega_b on the matched-coupling grid
    cavity = dict(_cavity_block(), gamma=7e13)
    omega_b = cavity["omega_b"]
    config = {
        "cavity": cavity,
        "freq_grid": {"min": 0.7 * omega_b, "max": 1.3 * omega_b, "n": 4001},
    }
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main(["classical", "--config", cfg, "--format", "json", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classical.json").read_text())
    assert payload["flag"] == "split"
    assert payload["quantum_splitting"] == pytest.approx(2.0 * payload["matched_lambda"], rel=1e-2)
    assert "quantum_splitting_reason" not in payload


def _polyline_points(svg_text):
    start = svg_text.index('<polyline points="') + len('<polyline points="')
    return svg_text[start : svg_text.index('"', start)].split()


@pytest.mark.parametrize(
    "argv, config, n_charts",
    [
        (["spectrum"], {}, 1),
        (["spectrum"], _SWEEP_G, 2),
        (["witness"], {}, 0),
        (["classical"], _CLASSICAL, 1),
        (["dynamics", "rabi-flop"], {"grid": {"n_samples": 1024, "dt": 0.01}}, 2),
        (["dynamics", "semiclassical"], {"grid": {"n_samples": 1000, "dt": 0.01}}, 1),
        (["dynamics", "vacuum-correlation"], {}, 1),
        (["verify"], {}, 0),
    ],
)
def test_each_chart_plots_its_own_table(tmp_path, argv, config, n_charts):
    from scipy.spatial import cKDTree

    from polariton import svg

    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main([*argv, "--config", cfg, "--format", "csv,svg", "--out", str(out)]) == 0
    charts = sorted(out.glob("*.svg"))
    assert len(charts) == n_charts
    for chart in charts:
        rows = chart.with_suffix(".csv").read_text().splitlines()[1:]
        points = _polyline_points(chart.read_text())
        if argv[-1] not in ("classical", "vacuum-correlation"):
            # no pixel column holds a run of more than 2 points: all are drawn
            assert len(points) == len(rows) > 1
            continue
        xs, ys = np.array([row.split(",")[:2] for row in rows], dtype=float).T
        px = svg._scale(xs, xs.min(), xs.max(), svg.MARGIN_LEFT, svg.WIDTH - svg.MARGIN_RIGHT)
        py = svg._scale(ys, ys.min(), ys.max(), svg.HEIGHT - svg.MARGIN_BOTTOM, svg.MARGIN_TOP)
        table = np.column_stack([px, py])
        drawn = np.array([point.split(",") for point in points], dtype=float)
        assert 1 < len(drawn) < len(rows)
        assert np.abs(drawn[[0, -1]] - table[[0, -1]]).max() <= 0.01
        # every drawn point is a point of the table, and in each pixel column
        # the drawn points reach the table's lowest and highest y
        distance, match = cKDTree(table).query(drawn, p=np.inf)
        assert distance.max() <= 0.01
        column = np.floor(px)
        for c in np.unique(column):
            drawn_y, table_y = drawn[column[match] == c, 1], py[column == c]
            assert abs(drawn_y.min() - table_y.min()) <= 0.01
            assert abs(drawn_y.max() - table_y.max()) <= 0.01


def test_csv_cells_follow_one_rule(tmp_path):
    from polariton.cli import _cell

    # witness summary: an int point index, a verdict string, 12-digit floats
    out = tmp_path / "witness"
    assert main(["witness", "--format", "csv,json", "--out", str(out)]) == 0
    payload = json.loads((out / "witness.json").read_text())
    header, row = (out / "witness_summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["point"] == "0"
    assert cells["verdict"] == "entangled"
    for key in ("witness_value", "entropy_fock", "entropy_gaussian", "entropy_predicted"):
        (cell,) = (v for k, v in cells.items() if k.split()[0] == key)
        assert cell == f"{payload[key]:.12g}"

    # spectrum sweep with one eigenvalue: no gap, so an empty cell and a reason;
    # sweep values are written as read: a string as its number, a float to 12 digits
    out = tmp_path / "spectrum"
    config = {
        "spectrum": {"n_eigenvalues": 1},
        "sweep": {"name": "g", "values": ["0.1", 0.30000000000000004]},
    }
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main(["spectrum", "--config", cfg, "--format", "csv,json", "--out", str(out)]) == 0
    lines = (out / "spectrum_summary.csv").read_text().splitlines()
    assert lines[0].split(",")[0::2] == ["g", "first_gap [hbar=1 input frequency units]"]
    for i, g in enumerate(("0.1", "0.3")):
        point = json.loads((out / f"spectrum_00{i}.json").read_text())
        assert lines[i + 1] == f"{g},{point['ground_energy']:.12g},"
        assert point["first_gap"] is None and "two eigenvalues" in point["first_gap_reason"]

    # no table holds a bool today; the rule still spells it the JSON way
    assert (_cell(True), _cell(False), _cell(None)) == ("true", "false", "")


def test_unresolved_slope_is_written_as_null_with_a_reason(tmp_path, monkeypatch):
    from polariton import cli

    real = cli.splitting_vs_n
    monkeypatch.setattr(
        cli, "splitting_vs_n", lambda *a, **kw: [None, *real(*a, **kw)[1:]]
    )
    assert main(["verify", "--out", str(tmp_path)]) == 3

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "verify_report.json").read_text()
    report = json.loads(text, parse_constant=refuse)
    fit = next(c for c in report["checks"] if c["name"] == "sqrt_n_fit")
    assert fit["measured"]["classical_slope"] is None
    assert "n_dipoles [4]" in fit["measured"]["classical_slope_reason"]
    assert fit["passed"] is False and report["all_passed"] is False


def test_non_finite_json_exits_two(tmp_path, monkeypatch, capsys):
    from polariton import cli

    monkeypatch.setattr(cli, "linear_entropy_predicted", lambda params: math.nan)
    assert main(["witness", "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "witness.json").exists()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    code = (
        "import sys, polariton.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_cli(["-c", code]).stdout.strip() == "[]"


def test_out_flag_overrides_config(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"output": {"dir": str(tmp_path / "ignored"), "formats": ["json"]}},
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "chosen")]) == 0
    assert (tmp_path / "chosen" / "spectrum.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("cavity, freq_grid, message", [
    ({"dipole_moment": 1e150}, {"min": 1e15, "max": 4e15, "n": 11}, "transmission is not finite"),
    ({}, {"min": 1e300, "max": 1.7e308, "n": 5}, "transmission is not finite"),
    # Python float arithmetic in the cavity formulas: d**2 overflows, A L hbar eps0 reaches 0
    ({"dipole_moment": 1e200}, None, "arithmetic out of range"),
    ({"area": 1e-273}, None, "arithmetic out of range"),
])
def test_non_finite_classical_results_exit_two(tmp_path, capsys, cavity, freq_grid, message):
    config = {"model": "classical", "cavity": {**_cavity_block(), **cavity}}
    if freq_grid is not None:
        config["freq_grid"] = freq_grid
    cfg = _write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main(["classical", "--config", cfg, "--format", "csv,json,svg", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_mean_field_overflow_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"params": {"g": 0.1}, "initial": {"a_re": 1e300}})
    out = tmp_path / "out"
    assert main(["dynamics", "semiclassical", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "1e+300" in err
    assert not list(out.glob("*"))


def test_singular_mean_field_modes_exit_two(tmp_path, capsys):
    # at lambda = 1e231 over omega_b = 1e-231 the four eigenmodes of the
    # mean-field generator coincide in round-off
    params = {"omega_a": 1.0, "omega_b": 1e-231, "g": 1e231, "n_atoms": 1}
    cfg = _write_config(tmp_path / "cfg.json", {"params": params, "grid": {"n_samples": 16}})
    out = tmp_path / "out"
    assert main(["dynamics", "semiclassical", "--config", cfg, "--out", str(out)]) == 2
    assert "eigenmodes are singular" in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_huge_frequency_keeps_its_normal_modes(tmp_path, capsys):
    # omega_a^2 overflows a float; the normal-mode form is scaled by a power of two
    cfg = _write_config(tmp_path / "cfg.json", {"params": {"omega_a": 1e155}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((out / "spectrum.json").read_text())
    assert math.isfinite(payload["omega_plus"]) and math.isfinite(payload["omega_minus"])
    assert payload["omega_plus"] == pytest.approx(1e155, rel=1e-12)
    assert payload["omega_minus"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("omega, g", [(1e-200, 1e-201), (1e160, 1e154)])
def test_stable_spectrum_at_both_ends_of_the_float_range(tmp_path, capsys, omega, g):
    # 4 lambda^2 and omega_a omega_b both underflow to 0, or both overflow to
    # inf, as plain products; the spectrum is that of the unit-scale model
    # up to round-off of the unit-scale |H|
    payloads = []
    for scale in (1.0, omega):
        params = {"omega_a": omega / scale, "omega_b": omega / scale, "g": g / scale}
        cfg = _write_config(tmp_path / "cfg.json", {"params": params})
        out = tmp_path / f"out-{scale}"
        assert main(["spectrum", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payloads.append(json.loads((out / "spectrum.json").read_text()))
    scaled, unit = payloads
    for key in ("ground_energy", "omega_minus", "omega_plus", "first_gap"):
        assert scaled[key] / omega == pytest.approx(unit[key], rel=1e-9, abs=1e-12)
    assert np.allclose(np.divide(scaled["eigenvalues"], omega), unit["eigenvalues"],
                       rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_unstable_refusal_prints_a_finite_ratio(tmp_path, capsys, scale):
    # 4 lambda^2 and omega_a omega_b overflow to inf, or underflow to 0, as
    # plain products; their ratio is 4 at both scales
    params = {"omega_a": scale, "omega_b": scale, "g": scale}
    cfg = _write_config(tmp_path / "cfg.json", {"params": params})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "4*lambda^2/(omega_a*omega_b) = 4 >= 1" in capsys.readouterr().err


def test_unstable_refusal_beyond_the_float_range_exits_one(tmp_path, capsys):
    # 4 lambda^2 / (omega_a omega_b) = 4e1200: a domain refusal, not an
    # arithmetic failure
    params = {"omega_a": 1e-300, "omega_b": 1e-300, "g": 1e300}
    cfg = _write_config(tmp_path / "cfg.json", {"params": params})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "4*lambda^2/(omega_a*omega_b) is beyond the float range" in capsys.readouterr().err


def test_writers_refuse_non_finite_numbers(tmp_path):
    from polariton import svg
    from polariton.cli import _write_csv
    from polariton.errors import NumericalError

    for table in ({"x": np.array([1.0, math.nan])}, {"x": [1.0, None, -math.inf]}):
        with pytest.raises(NumericalError, match="non-finite"):
            _write_csv(tmp_path / "t.csv", table)
        assert not (tmp_path / "t.csv").exists()
    for xs, ys in (([0.0, 1.0], [0.0, math.inf]), ([math.nan, 1.0], [0.0, 1.0])):
        with pytest.raises(NumericalError, match="non-finite"):
            svg.line_chart(xs, ys)


@pytest.mark.parametrize("extreme", [1e308, np.finfo(float).max])
def test_chart_plots_a_span_near_the_largest_float(extreme):
    # hi - lo and the tick values overflow in plain floats; in units of a
    # power of two near 1/max(|lo|, |hi|) they do not
    from polariton import svg

    chart = svg.line_chart([-extreme, 0.0, extreme], [extreme, 0.0, -extreme])
    assert _polyline_points(chart) == ["80.00,36.00", "390.00,210.00", "700.00,384.00"]
    labels = [float(text) for text in re.findall(r'font-size="11">([^<]*)<', chart)]
    assert len(labels) == 2 * svg.N_TICKS
    assert all(math.isfinite(v) and abs(v) <= extreme for v in labels)
    ticks = [-extreme, -extreme / 2, 0.0, extreme / 2, extreme]
    assert sorted(labels[::2]) == pytest.approx(ticks)


def _bit_pattern_floats():
    rng = np.random.default_rng(11)
    random = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300, 1e-300, -1e-300]
    return [*random.tolist(), *edges]


def test_one_call_formats_match_the_per_value_rule():
    from polariton import svg

    values = _bit_pattern_floats()
    for x in values:
        assert "%.12g" % x == svg._fmt(x) == f"{x:.12g}"
        assert "%.2f" % x == f"{x:.2f}"
    # the same holds formatting all of them in one call
    assert (svg.NUMBER_FORMAT + ",") * len(values) % tuple(values) == "".join(
        f"{x:.12g}," for x in values
    )


def test_one_call_csv_matches_the_per_cell_rule(tmp_path):
    from polariton.cli import _write_csv

    def cell(v):  # the per-cell rule every CSV cell follows
        if isinstance(v, float):
            return f"{v:.12g}"
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    floats = np.array([1.0 / 3, -0.0, 5e-324, 1e-310, -2.5e-300, 1e300, 0.1, 123456789.123456789])
    n = floats.size
    table = {
        "index": range(n),
        "float list": [None if i % 3 == 0 else 1.0 / (i + 7) for i in range(n)],
        "label": [f"p{i}%s" for i in range(n)],
        "flag": [i % 2 == 0 for i in range(n)],
        "value [1]": floats,
    }
    _write_csv(tmp_path / "t.csv", table)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()))
    expected = [",".join(table), *(",".join(map(cell, row)) for row in rows)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


def _log_floats(lo, hi):
    """Positive floats spread evenly in log10 between 10**lo and 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _assert_finite_cell(text):
    try:
        value = float(text)
    except ValueError:
        return  # a label, a flag or an empty cell
    assert math.isfinite(value), text


def _assert_finite_json(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            _assert_finite_json(v)
    elif isinstance(obj, float):
        assert math.isfinite(obj)


def _assert_only_finite_numbers(out):
    """No CSV cell, JSON number, SVG coordinate or tick label under out
    parses as non-finite."""
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                _assert_finite_cell(cell)
    for path in out.glob("*.json"):
        _assert_finite_json(json.loads(path.read_text()))
    for path in out.glob("*.svg"):
        text = path.read_text()
        for point in _polyline_points(text):
            for coordinate in point.split(","):
                _assert_finite_cell(coordinate)
        for label in re.findall(r">([^<]*)</text>", text):
            _assert_finite_cell(label)


_CAVITY_FUZZ = st.fixed_dictionaries({
    key: st.one_of(st.just(value), values)
    for (key, value), values in zip(_cavity_block().items(), [
        _log_floats(-300, 300),  # length
        st.one_of(st.floats(0.0, 1.0), _log_floats(-300, 0)),  # reflectivity
        st.one_of(st.floats(1.0, 10.0), _log_floats(0, 300)),  # background_index
        _log_floats(-300, 300),  # area
        st.integers(0, 10**6),  # n_dipoles
        st.one_of(st.just(0.0), _log_floats(-300, 300)),  # dipole_moment
        _log_floats(-300, 300),  # omega_b
        st.one_of(st.just(0.0), _log_floats(-300, 300)),  # gamma
    ])
})
_FREQ_GRID_FUZZ = st.one_of(st.none(), st.fixed_dictionaries({
    "min": _log_floats(-300, 300), "max": _log_floats(-300, 300), "n": st.integers(0, 64),
}))


@settings(max_examples=60, deadline=None)
@given(cavity=_CAVITY_FUZZ, freq_grid=_FREQ_GRID_FUZZ)
def test_classical_config_fuzz_exits_cleanly_and_writes_only_finite_numbers(cavity, freq_grid):
    config = {"model": "classical", "cavity": cavity}
    if freq_grid is not None:
        config["freq_grid"] = freq_grid
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write_config(tmp / "cfg.json", config)
        out = tmp / "out"
        # an exception escaping main() is the traceback a user would see
        code = main(["classical", "--config", cfg, "--format", "csv,json,svg", "--out", str(out)])
        assert code in (0, 1, 2)
        _assert_only_finite_numbers(out)


# either sign over 1e-300..1e300, or zero
_EXTREME = st.one_of(_log_floats(-300, 300), _log_floats(-300, 300).map(lambda x: -x), st.just(0.0))


def _default_typical_or_extreme(default, lo, hi, extreme=_EXTREME):
    return st.one_of(st.just(default), st.floats(lo, hi), extreme)


_DYNAMICS_FUZZ = st.fixed_dictionaries({
    "model": st.sampled_from(["bilinear", "dicke", "jc-rwa", "semiclassical"]),
    "params": st.fixed_dictionaries({
        "omega_a": _default_typical_or_extreme(1.0, 0.1, 10.0, _log_floats(-300, 300)),
        "omega_b": _default_typical_or_extreme(1.0, 0.1, 10.0, _log_floats(-300, 300)),
        "g": _default_typical_or_extreme(0.2, 0.0, 0.6),
        "n_atoms": st.integers(1, 16),
    }),
    "grid": st.fixed_dictionaries(
        {"n_samples": st.one_of(st.integers(16, 4096), st.integers(0, 15))},
        optional={"dt": st.one_of(st.floats(1e-3, 0.05), _log_floats(-300, 300))},
    ),
    "initial": st.fixed_dictionaries({}, optional={
        key: _default_typical_or_extreme(0.0, -2.0, 2.0) for key in ("a_re", "a_im", "b_re", "b_im")
    }),
})


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rabi-flop", "semiclassical", "vacuum-correlation"]),
    config=_DYNAMICS_FUZZ,
)
def test_dynamics_config_fuzz_exits_cleanly_and_writes_only_finite_numbers(kind, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write_config(tmp / "cfg.json", config)
        out = tmp / "out"
        # an exception escaping main() is the traceback a user would see
        argv = ["dynamics", kind, "--config", cfg, "--format", "csv,json,svg", "--out", str(out)]
        code = main(argv)
        assert code in (0, 1, 2)
        _assert_only_finite_numbers(out)


_SWEEP_FUZZ = st.one_of(
    st.fixed_dictionaries({
        "name": st.sampled_from(["g", "omega_a", "omega_b"]),
        "values": st.lists(_default_typical_or_extreme(0.2, 0.0, 2.0), min_size=1, max_size=3),
    }),
    st.fixed_dictionaries({
        "name": st.just("n_atoms"),
        "values": st.lists(st.one_of(st.integers(0, 8), st.floats(0.0, 8.0)), min_size=1, max_size=3),
    }),
)
# a cutoff of at most 12 and n_atoms of at most 8 keep every operator below
# dim 300, so no example allocates more than a few MB
_QUANTUM_FUZZ = st.fixed_dictionaries({
    "model": st.sampled_from(["bilinear", "dicke", "jc-rwa", "semiclassical"]),
    "params": st.fixed_dictionaries({
        "omega_a": _default_typical_or_extreme(1.0, 0.1, 10.0),
        "omega_b": _default_typical_or_extreme(1.0, 0.1, 10.0),
        "g": _default_typical_or_extreme(0.2, 0.0, 0.6),
        "n_atoms": st.integers(0, 8),
    }),
}, optional={
    "hilbert": st.fixed_dictionaries({}, optional={
        "photon_cutoff": st.integers(0, 12), "matter_dim": st.integers(0, 13),
    }),
    "spectrum": st.fixed_dictionaries({"n_eigenvalues": st.integers(0, 200)}),
    "sweep": _SWEEP_FUZZ,
})


@settings(max_examples=80, deadline=None)
@given(verb=st.sampled_from(["spectrum", "witness"]), config=_QUANTUM_FUZZ)
def test_spectrum_and_witness_config_fuzz_exits_cleanly_and_writes_only_finite_numbers(verb, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write_config(tmp / "cfg.json", config)
        out = tmp / "out"
        # an exception escaping main() is the traceback a user would see
        code = main([verb, "--config", cfg, "--format", "csv,json,svg", "--out", str(out)])
        assert code in (0, 1, 2)
        _assert_only_finite_numbers(out)


def _kernel_text(values):
    """The number kernel's text of each value, one per line."""
    from polariton import svg

    text = b"".join(svg._rows([np.asarray(values, dtype=float)], b"\n")).decode()
    return text.splitlines()


def _near_ties(mantissas, exponents):
    """The doubles nearest (m + 1/2) 10**(e - 11) and their neighbours one ulp
    either side: the values whose 12th digit a product rounding could move.
    A tie above the largest double is left out."""
    ties = [float(f"{m}5e{e - 12}") for m, e in zip(mantissas, exponents)]
    ties = [x for x in ties if x < np.finfo(float).max]
    return [y for x in ties for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_BIT_PATTERNS, min_size=1, max_size=64),
    mantissas=st.lists(st.integers(10**11, 10**12 - 1), min_size=8, max_size=8),
    exponents=st.lists(st.integers(-307, 308), min_size=8, max_size=8),
    subnormal_bits=st.lists(st.integers(1, 2**52 - 1), min_size=1, max_size=8),
)
def test_number_kernel_writes_what_percent_writes(values, mantissas, exponents, subnormal_bits):
    from polariton import svg

    subnormals = np.array(subnormal_bits, dtype=np.uint64).view(np.float64).tolist()
    values = values + _near_ties(mantissas, exponents) + subnormals + [-v for v in subnormals]
    assert _kernel_text(values) == [svg.NUMBER_FORMAT % v for v in values]


def test_number_kernel_writes_what_percent_writes_at_powers_of_ten():
    from polariton import svg

    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = [y for x in powers for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    values += [0.0, -0.0, 999999999999.5, 99999999999.95, 0.00009999999999995, np.finfo(float).max]
    values += [-v for v in values]
    assert _kernel_text(values) == [svg.NUMBER_FORMAT % v for v in values]


def test_number_kernel_writes_what_percent_writes_at_every_group_and_exponent():
    from polariton import svg

    # a zero group, trailing zeros within and across groups, every digit, a carry
    mantissas = ["100000000000", "100000000001", "100010000000", "100000010000",
                 "120000000000", "123400005678", "999999999999", "999999999999.5"]
    values = [float(f"{m}e{e - 11}") for e in range(-323, 309) for m in mantissas]
    # every value of each 4-digit group, in fixed, below-one and scientific text
    groups = np.arange(10000)
    for e in (5, -3, 17):
        values += [float(f"{m}e{e - 11}") for m in np.r_[
            np.maximum(groups, 1000) * 10**8, 10**11 + groups * 10**4, 10**11 + groups,
        ].tolist()]
    values = [v for v in values if v < np.finfo(float).max]
    values += [-v for v in values]
    assert _kernel_text(values) == [svg.NUMBER_FORMAT % v for v in values]


def test_number_kernel_memory_holds_one_block():
    from polariton import svg

    block = np.random.default_rng(7).normal(size=svg.BLOCK_CELLS)
    # the 35-slot layout, the float temporaries and int32 groups
    assert _traced_peak(lambda: svg._number_layout(block)) < 2.25e6


def _m4_reference(px, py):
    """The points a chart draws, one run at a time: of each run of
    consecutive points in one integer pixel column, the first, the last, the
    earliest of least py and the latest of greatest py."""
    keep, start = set(), 0
    for i in range(1, len(px) + 1):
        if i == len(px) or math.floor(px[i]) != math.floor(px[start]):
            run = range(start, i)
            keep |= {start, i - 1, min(run, key=lambda k: (py[k], k)),
                     max(run, key=lambda k: (py[k], k))}
            start = i
    return sorted(keep)


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(80, 699), st.integers(1, 50)), min_size=1, max_size=30),
    ordered=st.booleans(),
    data=st.data(),
)
def test_chart_keeps_each_runs_first_last_lowest_and_highest_point(runs, ordered, data):
    from polariton import svg

    # runs of 1 to 50 points in one pixel column; y from a few values, so ties
    columns = np.repeat([c for c, _ in runs], [n for _, n in runs])
    n = columns.size
    fractions = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    px = columns + np.array(fractions)
    if ordered:
        px.sort()
    py = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([36.0, 200.0, 384.0]), st.floats(36.0, 384.0)),
        min_size=n, max_size=n,
    )))
    kept = svg._m4(px, py)
    assert kept.tolist() == _m4_reference(px, py)
    # every pixel column keeps its first and last point, its minimum and its maximum
    for c in np.unique(np.floor(px)):
        points = np.flatnonzero(np.floor(px) == c)
        drawn = np.intersect1d(points, kept)
        assert drawn[0] == points[0] and drawn[-1] == points[-1]
        assert py[drawn].min() == py[points].min() and py[drawn].max() == py[points].max()


def test_block_edges_write_what_the_per_cell_rule_writes(tmp_path):
    from polariton import svg
    from polariton.cli import _write_csv

    tie = float("1234567890125e-12")  # a near-tie that the kernel leaves to %
    for width in (1, 2, 3, 6):
        block = svg.BLOCK_CELLS // width  # the rows of one block of this table
        for rows in (block - 1, block, block + 1):
            values = np.linspace(-3.0, 5.0, rows)
            for i in (0, block - 1, block, rows - 1):
                if i < rows:
                    values[i] = tie if i % 2 else 0.0
            labels = ["split" if i % 3 else "" for i in range(rows)]
            # float, text and reversed float columns in turn, width of them
            columns = [values, labels, values[::-1].copy()] * 2
            texts = [[f"{x:.12g}" for x in values], labels,
                     [f"{y:.12g}" for y in values[::-1]]] * 2
            headers = ["x [1]", "flag", "y [1]", "x2 [1]", "flag2", "y2 [1]"][:width]
            _write_csv(tmp_path / "t.csv", dict(zip(headers, columns)))
            expected = [",".join(headers)] + [",".join(row) for row in zip(*texts[:width])]
            assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"
            chart = svg.line_chart(values, values ** 2)
            xs = svg._scale(values, values.min(), values.max(),
                            svg.MARGIN_LEFT, svg.WIDTH - svg.MARGIN_RIGHT)
            ys = svg._scale(values ** 2, (values ** 2).min(), (values ** 2).max(),
                            svg.HEIGHT - svg.MARGIN_BOTTOM, svg.MARGIN_TOP)
            assert _polyline_points(chart) == [
                svg.POINT_FORMAT % xs[i] + "," + svg.POINT_FORMAT % ys[i]
                for i in _m4_reference(xs, ys)
            ]


def _traced_peak(call):
    """The tracemalloc peak, in bytes, of call() after one untraced call."""
    import tracemalloc

    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows, width, bound", [(20000, 6, 3e6), (100001, 2, 3.5e6)])
def test_csv_memory_does_not_grow_with_the_table(tmp_path, rows, width, bound):
    from polariton.cli import _write_csv

    rng = np.random.default_rng(7)
    table = {f"c{j} [1]": rng.normal(size=rows) for j in range(width)}
    # one block of fixed cells; blocks of 16384 rows took 12.5 and 5.6 MB
    assert _traced_peak(lambda: _write_csv(tmp_path / "t.csv", table)) < bound


def test_chart_memory_holds_only_the_kept_points():
    from polariton import svg

    xs = np.linspace(1.68e15, 3.12e15, 100001)
    ys = np.sin(np.linspace(0.0, 50.0, xs.size)) ** 2
    # the scaled points and one temporary of their size; 5.7 MB with a sort of all points
    assert _traced_peak(lambda: svg.line_chart(xs, ys)) < 4.5e6


def test_text_cells_refuse_a_nul():
    from polariton import svg

    with pytest.raises(ValueError, match="NUL"):
        svg._text_layout(["ok", "a\0b"])


_EVERY_VERB = [["spectrum"], ["witness"], ["dynamics", "rabi-flop"], ["classical"], ["verify"]]


@pytest.mark.parametrize("argv", _EVERY_VERB, ids=lambda argv: argv[0])
def test_every_verb_accepts_the_common_flags(argv):
    from polariton.cli import _build_parser

    flags = ["--config", "run.json", "--out", "o", "--format", "csv", "--seed", "7"]
    args = _build_parser().parse_args([*argv, *flags])
    assert (args.config, args.out, args.format, args.seed) == ("run.json", "o", "csv", 7)


@pytest.mark.parametrize("argv", _EVERY_VERB, ids=lambda argv: argv[0])
def test_sweep_flag_belongs_to_the_verbs_that_sweep(tmp_path, capsys, argv):
    from polariton.cli import _build_parser

    if argv[0] in ("spectrum", "witness", "classical"):
        assert _build_parser().parse_args([*argv, "--sweep", "g=0.1,0.2"]).sweep == "g=0.1,0.2"
        return
    assert main([*argv, "--sweep", "g=0.1,0.2", "--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments: --sweep" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bare_command_prints_every_verb_and_exits_one(capsys):
    assert main([]) == 1
    usage = capsys.readouterr().out
    assert "{spectrum,witness,dynamics,classical,verify}" in usage


_REFUSED_MODELS = [
    *((["witness"], model) for model in ("dicke", "jc-rwa", "classical")),
    *((["dynamics", kind], model)
      for kind in ("vacuum-correlation", "semiclassical") for model in ("dicke", "jc-rwa", "classical")),
    (["dynamics", "rabi-flop"], "classical"),
    # semiclassical names no Hamiltonian, whatever the verb
    *((argv, "semiclassical") for argv in _EVERY_VERB),
    (["dynamics", "semiclassical"], "semiclassical"),
    (["dynamics", "vacuum-correlation"], "semiclassical"),
]


@pytest.mark.parametrize("argv, model", _REFUSED_MODELS,
                         ids=[f"{argv[-1]}-{model}" for argv, model in _REFUSED_MODELS])
def test_a_verb_never_runs_another_model_than_the_config_names(tmp_path, capsys, argv, model):
    config = {"model": model, "params": {"g": 0.1}, "grid": {"n_samples": 1024}}
    if argv == ["classical"]:
        config["cavity"] = _cavity_block()
    path = _write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main([*argv, "--config", path, "--format", "csv,json,svg", "--out", str(out)]) == 1
    assert f"'{model}'" in capsys.readouterr().err
    assert not (out.exists() and any(out.iterdir()))


def test_a_build_that_cannot_fit_is_refused_before_it_allocates(tmp_path, capsys, monkeypatch):
    from polariton import model

    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 10 if name == "SC_PHYS_PAGES" else sysconf(name))
    # ten pages hold the default bilinear operator of 169 states
    assert main(["spectrum", "--out", str(tmp_path / "small")]) == 0

    def unreachable(terms):
        raise AssertionError("the operator was assembled")

    monkeypatch.setattr(model, "_kron_sum", unreachable)
    path = _write_config(tmp_path / "big.json", {"hilbert": {"photon_cutoff": 316}})  # 100489 states
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "100489" in err
    assert not any((tmp_path / "big").iterdir())


def _refuse_call(monkeypatch, module, name, n):
    """Make module.name raise NumericalError on its n-th call."""
    from polariton.errors import NumericalError

    real, calls = getattr(module, name), []

    def refused(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise NumericalError(f"{name} refused on call {n}")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, refused)


def _classical_sweep(n, values=(25, 100, 400)):
    """A classical n_dipoles sweep on a freq_grid of n points."""
    omega_b = reference_cavity().omega_b
    return {
        "model": "classical", "cavity": _cavity_block(),
        "freq_grid": {"min": 0.7 * omega_b, "max": 1.3 * omega_b, "n": n},
        "sweep": {"name": "n_dipoles", "values": list(values)},
    }


_FAILED_RUNS = {
    # the chart of the last point of a sweep, written after its CSV and JSON
    "classical-last-chart": (["classical"], _classical_sweep(2001), "svg", "line_chart", 3),
    # the first of its two charts, written after both CSVs and the JSON
    "rabi-flop-chart": (["dynamics", "rabi-flop"], {"grid": {"n_samples": 1024}},
                        "svg", "line_chart", 1),
    "spectrum-last-point": (["spectrum", "--sweep", "g=0.1,0.2,0.3"], {},
                            "cli", "_spectrum_point", 3),
}


@pytest.mark.parametrize("case", sorted(_FAILED_RUNS))
def test_a_run_that_fails_midway_lands_no_file(tmp_path, capsys, monkeypatch, case):
    from polariton import cli, svg

    argv, config, module, name, n = _FAILED_RUNS[case]
    _refuse_call(monkeypatch, {"cli": cli, "svg": svg}[module], name, n)
    out = tmp_path / "out"
    path = _write_config(tmp_path / "cfg.json", config)
    assert main([*argv, "--config", path, "--format", "csv,json,svg", "--out", str(out)]) == 2
    assert f"{name} refused on call {n}" in capsys.readouterr().err
    # neither a result file nor the staging directory
    assert not list(out.iterdir())


def test_a_failed_run_keeps_the_previous_runs_files(tmp_path, capsys, monkeypatch):
    from polariton import svg

    out = tmp_path / "out"
    flags = ["--format", "csv,json,svg", "--out", str(out)]
    assert main(["spectrum", "--sweep", "g=0.1,0.2,0.3", *flags]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # other values, so that a file written before the failure would differ
    _refuse_call(monkeypatch, svg, "line_chart", 3)
    assert main(["spectrum", "--sweep", "g=0.15,0.25,0.35", *flags]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_run_commits_only_its_own_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--sweep", "g=0.1,0.2,0.3", "--out", str(out)]) == 0
    earlier = (out / "spectrum_002.json").read_bytes()
    (out / "notes.txt").write_text("kept\n")
    assert main(["spectrum", "--sweep", "g=0.2,0.3", "--out", str(out)]) == 0
    # no staging directory is left
    names = sorted(path.name for path in out.iterdir())
    assert names == ["notes.txt", *(f"spectrum_{i:03d}.{ext}" for i in range(3)
                                    for ext in ("csv", "json")), "spectrum_summary.csv"]
    # written by the first run only, so untouched by the second
    assert (out / "spectrum_002.json").read_bytes() == earlier
    assert (out / "notes.txt").read_text() == "kept\n"
    assert json.loads((out / "spectrum_001.json").read_text())["g"] == 0.3


def test_classical_sweep_memory_does_not_grow_with_its_points(tmp_path, capsys):
    peaks = []
    for values in ([100], [25, 50, 100, 200, 400]):
        path = _write_config(tmp_path / f"classical{len(values)}.json",
                             _classical_sweep(100001, values))
        argv = ["classical", "--config", path, "--format", "csv,json,svg",
                "--out", str(tmp_path / f"out{len(values)}")]
        peaks.append(_traced_peak(lambda: main(argv)))
    # each point's intensities are written and dropped before the next point;
    # held until the end, five points took 3.1 MiB more than one
    assert peaks[1] - peaks[0] < 0.5 * 2**20
