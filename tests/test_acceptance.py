"""Acceptance gate: the eleven headline claims, one test per criterion.

Each test prints a single criterion line and asserts it.  Tolerances here
are the contract; loosening them is not an option for making a red test
green."""
import math

import numpy as np

from polariton.classical import classical_quantum_agreement, splitting_vs_n
from polariton.cli import main, reference_cavity
from polariton.dynamics import (
    flop_spectrum,
    rabi_flop_signal,
    semiclassical_trajectory,
    vacuum_correlation_spectrum,
)
from polariton.holstein_primakoff import (
    SpinRep,
    commutator_residual,
    dicke_vs_bilinear_gap,
    hp_exactness_error,
)
from polariton.model import (
    HilbertSpec,
    ModelParams,
    StateVector,
    build_bilinear_hamiltonian,
    expectation,
)
from polariton.series import TimeGrid
from polariton.spectral import (
    cutoff_convergence,
    eigendecompose,
    jc_polariton_splitting,
    normal_modes,
    ground_state,
)
from polariton.witness import (
    gaussian_ground_state,
    gaussian_linear_entropy,
    linear_entropy,
    linear_entropy_predicted,
    reduced_density,
    separable_bound_scan,
    thermal_occupation,
    witness_evaluate,
)

SEED = 1234


def _gate(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _log_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def test_criterion_01_quoted_entropy_and_route_agreement():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    predicted = linear_entropy_predicted(p)
    spec = HilbertSpec(16, 17)
    _, state = ground_state(build_bilinear_hamiltonian(p, spec), seed=SEED)
    fock = linear_entropy(reduced_density(state, spec, "photon"))
    gauss = gaussian_linear_entropy(gaussian_ground_state(p), "photon")
    ratios = [
        gaussian_linear_entropy(
            gaussian_ground_state(ModelParams.from_collective(1.0, 1.0, lam)), "photon"
        )
        / lam**2
        for lam in (0.01, 0.02, 0.05)
    ]
    ok = (
        abs(predicted - 0.04) <= 1e-15
        and abs(fock - gauss) <= 1e-6
        and all(abs(r - 0.5) <= 0.05 * 0.5 for r in ratios)
    )
    _gate(
        1,
        "quoted entropy formula",
        ok,
        f"predicted={predicted:.17g}, fock={fock:.6g}, gaussian={gauss:.6g}, "
        f"small-coupling ratios={[f'{r:.4f}' for r in ratios]}",
    )


def test_criterion_02_witness_soundness():
    values = []
    for lam in (0.05, 0.1, 0.2, 0.3, 0.45):
        p = ModelParams.from_collective(1.0, 1.0, lam)
        cutoff = 32 if lam > 0.3 else 16
        spec = HilbertSpec(cutoff, cutoff + 1)
        h = build_bilinear_hamiltonian(p, spec)
        _, state = ground_state(h, seed=SEED)
        verdict = witness_evaluate(h, state, p)
        scan = separable_bound_scan(p)
        values.append((lam, verdict.value, scan.minimum))
    ground_ok = all(v < -1e-6 for _, v, _ in values)
    floor_ok = all(m >= -1e-9 for _, _, m in values)

    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    spec12 = HilbertSpec(11, 12)
    h12 = build_bilinear_hamiltonian(p, spec12)
    product_min = min(
        expectation(h12, StateVector.product_fock(spec12, n, k))
        for n in range(12)
        for k in range(12)
    )
    ok = ground_ok and floor_ok and product_min >= 0.0
    _gate(
        2,
        "energy witness soundness",
        ok,
        f"ground values={[f'{v:.2e}' for _, v, _ in values]}, "
        f"fock-product minimum={product_min:.2e}",
    )


def test_criterion_03_normal_mode_consistency():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    ladder = cutoff_convergence("bilinear", p, (8, 10, 12), tol=1e-10, seed=SEED)
    dec = eigendecompose(build_bilinear_hamiltonian(p, HilbertSpec(12, 13)), seed=SEED)
    modes = normal_modes(p)
    gap_lo = float(dec.eigenvalues[1] - dec.eigenvalues[0])
    gap_hi = float(dec.eigenvalues[2] - dec.eigenvalues[0])
    ok = (
        ladder.final_delta < 1e-10
        and abs(gap_lo - modes.omega_minus) <= 1e-6
        and abs(gap_hi - modes.omega_plus) <= 1e-6
    )
    _gate(
        3,
        "exact gaps match normal modes",
        ok,
        f"final_delta={ladder.final_delta:.2e}, "
        f"gap errors=({abs(gap_lo - modes.omega_minus):.2e}, {abs(gap_hi - modes.omega_plus):.2e})",
    )


def test_criterion_04_sqrt_n_scaling():
    cavity = reference_cavity(256, coupling_fraction=0.04, finesse=1000.0, gamma_fraction=5e-5)
    n_classical = (4, 8, 16, 32, 64, 128, 256)
    splittings = splitting_vs_n(cavity, n_classical)
    resolved = all(s is not None for s in splittings)
    classical_slope = _log_slope(n_classical, splittings) if resolved else float("nan")

    n_jc = (1, 2, 4, 8, 16, 32, 64)
    jc = [jc_polariton_splitting(ModelParams(1.0, 1.0, 0.01, n), seed=SEED) for n in n_jc]
    jc_slope = _log_slope(n_jc, jc)
    ok = resolved and abs(classical_slope - 0.5) <= 0.02 and abs(jc_slope - 0.5) <= 0.02
    _gate(
        4,
        "sqrt(N) splitting scaling",
        ok,
        f"classical slope={classical_slope:.4f}, jc slope={jc_slope:.4f}",
    )


def test_criterion_05_classical_equals_quantum():
    desk = classical_quantum_agreement(reference_cavity())
    desk_ok = desk.flag == "split" and desk.relative_deviation <= 0.05

    # refinement inside the stated regime: gamma <= splitting/20, finesse >= 100
    deviations = []
    for gamma_fraction, finesse in ((0.002, 100.0), (0.0015, 150.0), (0.001, 200.0)):
        cav = reference_cavity(
            coupling_fraction=0.04, gamma_fraction=gamma_fraction, finesse=finesse
        )
        report = classical_quantum_agreement(cav)
        assert cav.gamma <= report.classical_splitting / 20.0
        assert cav.finesse >= 100.0
        deviations.append(report.relative_deviation)
    monotone = all(b < a for a, b in zip(deviations, deviations[1:]))
    ok = desk_ok and monotone and all(d <= 0.05 for d in deviations)
    _gate(
        5,
        "classical splitting equals quantum",
        ok,
        f"desk deviation={desk.relative_deviation:.2e}, "
        f"refinement={[f'{d:.2e}' for d in deviations]}",
    )


def test_criterion_06_semiclassical_failure():
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    grid = TimeGrid(100001, 0.01)  # horizon 1e3 / omega
    traj = semiclassical_trajectory(p, 0.0, 0.0, grid)
    bound = max(
        float(np.max(np.abs(traj.channels["a"]))),
        float(np.max(np.abs(traj.channels["b"]))),
    )

    spectrum = vacuum_correlation_spectrum(p, TimeGrid(8192, 0.05), seed=SEED)
    modes = normal_modes(p)
    bin_width = float(spectrum.frequencies[1] - spectrum.frequencies[0])
    lines = np.flatnonzero(spectrum.intensities > 1e-12)
    two_peaks = lines.size == 2 and (
        abs(spectrum.frequencies[lines[0]] - modes.omega_minus) <= bin_width
        and abs(spectrum.frequencies[lines[1]] - modes.omega_plus) <= bin_width
    )
    ok = bound <= 1e-12 and two_peaks
    _gate(
        6,
        "mean field misses the vacuum splitting",
        ok,
        f"vacuum amplitude bound={bound:.2e}, quantum lines={lines.size}",
    )


def test_criterion_07_hp_exactness():
    js = [0.5 * k for k in range(1, 101)]
    map_err = max(hp_exactness_error(SpinRep(j)) for j in js)
    comm_err = max(commutator_residual(SpinRep(j)) for j in js)
    ok = map_err <= 1e-12 and comm_err <= 1e-12
    _gate(
        7,
        "spin-boson map exact on the ladder",
        ok,
        f"map error={map_err:.2e}, commutator residual={comm_err:.2e}",
    )


def test_criterion_08_thermodynamic_limit():
    p = ModelParams.from_collective(1.0, 1.0, 0.1)
    cmp = dicke_vs_bilinear_gap(p, (2, 4, 8, 16, 32, 64, 100), seed=SEED)
    errs = cmp.relative_errors
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ok = monotone and cmp.final_error < 0.01
    _gate(
        8,
        "finite ladder converges to bosonic limit",
        ok,
        f"relative errors={[f'{e:.2e}' for e in errs]}",
    )


def test_criterion_09_flopping_spectra():
    grid = TimeGrid(32768, 0.01)
    p = ModelParams.from_collective(1.0, 1.0, 0.2)
    traj = rabi_flop_signal(p, grid, model="bilinear", seed=SEED)
    spectrum = flop_spectrum(traj)
    bin_width = float(spectrum.frequencies[1] - spectrum.frequencies[0])
    peak = float(spectrum.frequencies[int(np.argmax(spectrum.intensities))])
    bilinear_ok = abs(peak - normal_modes(p).splitting) <= bin_width

    pj = ModelParams(1.0, 1.0, 0.05, 4)
    traj_jc = rabi_flop_signal(pj, grid, model="jc-rwa", seed=SEED)
    spectrum_jc = flop_spectrum(traj_jc)
    peak_jc = float(spectrum_jc.frequencies[int(np.argmax(spectrum_jc.intensities))])
    jc_ok = abs(peak_jc - 2.0 * 0.05 * math.sqrt(4)) <= bin_width

    def parseval_error(traj_, spectrum_):
        x = traj_.channels["matter_excitation"]
        n = x.size
        weights = np.full(spectrum_.intensities.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        time_power = float(np.sum((x - x.mean()) ** 2))
        freq_power = float(np.sum(weights * spectrum_.intensities) / n)
        return abs(time_power - freq_power) / max(1.0, time_power)

    parseval_ok = (
        parseval_error(traj, spectrum) <= 1e-9
        and parseval_error(traj_jc, spectrum_jc) <= 1e-9
    )
    ok = bilinear_ok and jc_ok and parseval_ok
    _gate(
        9,
        "flopping spectra peak at the splittings",
        ok,
        f"bilinear peak={peak:.5f}, jc peak={peak_jc:.5f}, bin={bin_width:.5f}",
    )


def test_criterion_10_thermal_occupation():
    value = thermal_occupation(10.0, 1.0)
    ok = value < 5e-5
    _gate(10, "ten-fold frequency margin beats kT", ok, f"occupation={value:.3e}")


def test_criterion_11_reproducible_verification(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["verify", "--out", str(first), "--seed", str(SEED)]) == 0
    assert main(["verify", "--out", str(second), "--seed", str(SEED)]) == 0
    a = (first / "verify_report.json").read_bytes()
    b = (second / "verify_report.json").read_bytes()
    ok = a == b and len(a) > 0
    _gate(11, "verification is byte-reproducible", ok, f"report bytes={len(a)}")
