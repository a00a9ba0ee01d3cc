"""End-to-end acceptance checks, one scoreboard line per guarantee.

Each test prints a single ``[label] PASS/FAIL - detail`` line straight to
the terminal (bypassing capture) before asserting, so a red run still
shows the whole scoreboard. Budgets on wall time are part of the checks.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lcalearn import cli
from lcalearn import experiment
from lcalearn.accumulator import AccumulatorState, accumulate_step, slca_step
from lcalearn.data import (
    FrameSequence,
    LabeledSample,
    generate_sparse_vectors,
    load_event_dataset,
    save_events,
)
from lcalearn.dictionary import Dictionary, InputDims, analyze, init_random, synthesize
from lcalearn.lca import (
    LcaParams,
    MembraneState,
    energy,
    lca_step,
    run_inference,
    soft_threshold,
)

EVENT_DATASET_ENV = "LCALEARN_POKER_DVS"
TREND_SPIKE_HEIGHTS = (1.0, 5.0, 10.0, 20.0)
TREND_FILTER = {"kind": "boxcar", "window_ms": 40.0}


def report(capsys, label: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{label}] {'PASS' if passed else 'FAIL'} - {detail}")


def random_unit_rows(rng, n: int, d: int) -> Dictionary:
    elements = rng.normal(size=(n, d))
    elements /= np.linalg.norm(elements, axis=1, keepdims=True)
    return Dictionary(elements, InputDims(height=1, width=d))


# ---------------------------------------------------------------------------
# Accumulator guarantees
# ---------------------------------------------------------------------------

def test_carry_bound_invariant(capsys):
    """Every prefix of emitted output stays within one spike height of demand."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 61))
        desired = rng.uniform(0.0, 5.0, size=length)
        height = float(10.0 ** rng.uniform(-3.0, 1.0))
        state = AccumulatorState.zeros(1, height)
        emitted = wanted = 0.0
        for d in desired:
            frame, state = accumulate_step(state, np.array([d]))
            emitted += float(frame.value[0])
            wanted += float(d)
            worst = max(worst, abs(emitted - wanted) / height)
    elapsed = time.perf_counter() - start
    passed = worst < 1.0 and elapsed < 5.0
    report(
        capsys, "carry-bound", passed,
        f"worst prefix gap {worst:.6f} spike heights over 1000 sequences, {elapsed:.1f}s",
    )
    assert worst < 1.0
    assert elapsed < 5.0


def test_vanishing_spike_height_matches_graded_membranes(capsys):
    """With a tiny spike height the spiking dynamics shadow the graded ones."""
    start = time.perf_counter()
    dictionary = init_random(3, 20, InputDims(height=4, width=4))
    stimulus = np.random.default_rng(4).normal(0.0, 0.5, size=16)
    params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=200)
    graded = MembraneState.zeros(20)
    spiking = MembraneState.zeros(20)
    accumulator = AccumulatorState.zeros(20, 1e-6)
    code = soft_threshold(graded.u, params.lam)
    gap = 0.0
    for _ in range(params.steps):
        graded = lca_step(graded, dictionary, stimulus, params, code)
        code = soft_threshold(graded.u, params.lam)
        spiking, accumulator, _ = slca_step(
            spiking, accumulator, dictionary, stimulus, params
        )
        gap = max(gap, float(np.abs(graded.u - spiking.u).max()))
    elapsed = time.perf_counter() - start
    passed = gap < 1e-4 and elapsed < 5.0
    report(
        capsys, "graded-limit", passed,
        f"max membrane gap {gap:.2e} over {params.steps} steps at height 1e-6, "
        f"{elapsed:.1f}s",
    )
    assert gap < 1e-4
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Inference dynamics guarantees
# ---------------------------------------------------------------------------

def test_energy_descent_along_trajectories(capsys):
    """Reconstruction-plus-sparsity cost is (almost) never increased by a step."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_fraction = 1.0
    worst_rise = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 51))
        dictionary = random_unit_rows(rng, n, d)
        stimulus = rng.normal(size=d)
        lam = float(rng.uniform(0.05, 0.5))
        params = LcaParams(lam=lam, dt=1.0, tau=100.0, steps=400)
        result = run_inference(dictionary, stimulus, params, record_trace=True)
        energies = [energy(dictionary, stimulus, np.zeros(n), lam)]
        energies.extend(row[1] for row in result.trace)
        diffs = np.diff(energies)
        worst_fraction = min(worst_fraction, float((diffs <= 0.0).mean()))
        worst_rise = max(worst_rise, energies[-1] - energies[0])
    elapsed = time.perf_counter() - start
    passed = worst_fraction >= 0.95 and worst_rise <= 0.0 and elapsed < 30.0
    report(
        capsys, "energy-descent", passed,
        f"min non-increasing fraction {worst_fraction:.3f} over 50 instances, "
        f"max(final-initial) {worst_rise:.2e}, {elapsed:.1f}s",
    )
    assert worst_fraction >= 0.95
    assert worst_rise <= 0.0
    assert elapsed < 30.0


def test_fixed_point_identity_at_early_stop(capsys):
    """Once updates stall, membranes satisfy u = a + analyze(residual)."""
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    triggered = 0
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(4, 16))
        dictionary = random_unit_rows(rng, n, d)
        stimulus = rng.normal(size=d)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=100000)
        result = run_inference(dictionary, stimulus, params, early_stop=1e-6)
        if result.state.step_index < params.steps:
            triggered += 1
        residual = stimulus - synthesize(dictionary, result.code)
        gap = np.abs(result.state.u - result.code - analyze(dictionary, residual))
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - start
    passed = triggered == 20 and worst < 1e-3 and elapsed < 30.0
    report(
        capsys, "fixed-point", passed,
        f"early stop hit on {triggered}/20 instances, worst identity gap "
        f"{worst:.2e}, {elapsed:.1f}s",
    )
    assert triggered == 20
    assert worst < 1e-3
    assert elapsed < 30.0


def test_orthonormal_pair_closed_form_code(capsys):
    """Two orthonormal elements, input e0 + 0.1*e1, threshold 0.3 -> (0.7, 0)."""
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))
    dictionary = Dictionary(q.T[:2], InputDims(height=1, width=4))
    stimulus = dictionary.elements[0] + 0.1 * dictionary.elements[1]
    params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=20000)
    result = run_inference(dictionary, stimulus, params, early_stop=1e-12)
    gap = float(np.abs(result.code - np.array([0.7, 0.0])).max())
    passed = gap < 1e-3
    report(
        capsys, "orthonormal-pair", passed,
        f"converged code ({result.code[0]:.5f}, {result.code[1]:.5f}), gap {gap:.1e}",
    )
    assert gap < 1e-3


# ---------------------------------------------------------------------------
# Learning guarantees
# ---------------------------------------------------------------------------

def greedy_match(learned: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Best-first one-to-one cosine matching of learned rows to true rows."""
    sims = learned @ truth.T
    matched = np.empty(truth.shape[0])
    for k in range(truth.shape[0]):
        i, j = np.unravel_index(int(np.argmax(sims)), sims.shape)
        matched[k] = sims[i, j]
        sims[i, :] = -2.0
        sims[:, j] = -2.0
    return matched


def test_dictionary_recovery_graded_and_spiking(capsys):
    """Training on 3-sparse mixtures recovers the generating elements."""
    start = time.perf_counter()
    truth, vectors = generate_sparse_vectors(0, 30, 20, 5000, n_active=3)
    samples = [LabeledSample(FrameSequence(v.reshape(1, 4, 5)), 0) for v in vectors]
    raw = {
        "dataset": {"kind": "npy", "path": "unused"},  # samples passed directly
        "dict_size": 30,
        "lambda": 0.1,
        "dt": 1.0, "tau": 10.0, "display_ms": 100.0,
        "epochs": 1, "learning_rate": 0.05, "seed": 0,
    }
    modes = {
        "graded": {},
        "spiking": {"spike_height": 1.0, "filter": TREND_FILTER},
    }
    rates = {}
    for mode, extra in modes.items():
        config = experiment.config_from_dict({**raw, **extra})
        run = experiment.run_training(config, samples, samples[:50])
        matched = greedy_match(run.dictionary.elements, truth)
        rates[mode] = float((matched >= 0.9).mean())
    elapsed = time.perf_counter() - start
    passed = min(rates.values()) >= 0.9 and elapsed < 180.0
    report(
        capsys, "dictionary-recovery", passed,
        f"matched at cosine >= 0.9: graded {rates['graded']:.0%}, "
        f"spiking {rates['spiking']:.0%}, {elapsed:.0f}s",
    )
    assert rates["graded"] >= 0.9
    assert rates["spiking"] >= 0.9
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# Spike-height trend on the synthetic event-frame dataset
# ---------------------------------------------------------------------------

def trend_config(spike_height: float = 0.0) -> experiment.ExperimentConfig:
    raw = {
        "dataset": {"kind": "synthetic", "seed": 0, "density": 0.25, "saturation": 1},
        "dict_size": 64,
        "lambda": 0.6,
        "dt": 1.0, "tau": 10.0,
        "display_ms": 100.0, "gap_ms": 100.0,
        "epochs": 12, "learning_rate": 0.05, "seed": 0,
    }
    if spike_height > 0:
        raw["spike_height"] = spike_height
        raw["filter"] = dict(TREND_FILTER)
    return experiment.config_from_dict(raw)


@pytest.fixture(scope="module")
def spike_height_trend():
    """One graded run plus one spiking run per height, on shared data."""
    start = time.perf_counter()
    base = trend_config()
    train, valid = experiment.load_dataset(base.dataset, base.seed)
    params = base.lca_params()
    graded = experiment.run_training(base, train, valid)
    rows = {}
    for height in TREND_SPIKE_HEIGHTS:
        run = experiment.run_training(trend_config(height), train, valid)
        unfiltered = experiment.evaluate_codes(
            run.dictionary, valid, params, spike_height=height
        )
        filtered = experiment.evaluate_codes(
            run.dictionary, valid, params, spike_height=height,
            filter_spec=dict(TREND_FILTER),
        )
        rows[height] = {
            "unfiltered": unfiltered["rmse"],
            "filtered": filtered["rmse"],
            "max_spikes": max(run.metrics.max_spikes_per_step),
        }
    return {
        "lca_rmse": graded.metrics.rmse_val[-1],
        "rows": rows,
        "elapsed": time.perf_counter() - start,
    }


def test_reconstruction_error_vs_spike_height(spike_height_trend, capsys):
    """Raw spike codes degrade with height; 40 ms averaging restores quality."""
    lca_rmse = spike_height_trend["lca_rmse"]
    rows = spike_height_trend["rows"]
    elapsed = spike_height_trend["elapsed"]
    unfiltered = [rows[s]["unfiltered"] for s in TREND_SPIKE_HEIGHTS]
    increasing = all(b > a for a, b in zip(unfiltered, unfiltered[1:]))
    band = max(abs(rows[s]["filtered"] - lca_rmse) for s in TREND_SPIKE_HEIGHTS)
    passed = increasing and band <= 0.05 and elapsed < 600.0
    report(
        capsys, "spike-height-trend", passed,
        "unfiltered rmse " + " -> ".join(f"{v:.3f}" for v in unfiltered)
        + f" ({'strictly increasing' if increasing else 'NOT increasing'}); "
        f"filtered within {band:.3f} of graded {lca_rmse:.3f}; {elapsed:.0f}s",
    )
    assert increasing
    assert band <= 0.05
    assert elapsed < 600.0


def test_spike_count_regimes(spike_height_trend, capsys):
    """Height 1 fires in bursts; height 20 never exceeds one spike per step."""
    rows = spike_height_trend["rows"]
    low, high = rows[1.0]["max_spikes"], rows[20.0]["max_spikes"]
    passed = low > 10 and high == 1
    report(
        capsys, "spike-regimes", passed,
        f"max spikes per neuron per step: {low} at height 1, {high} at height 20",
    )
    assert low > 10
    assert high == 1


# ---------------------------------------------------------------------------
# Event-camera benchmark (needs the external dataset)
# ---------------------------------------------------------------------------

def test_event_benchmark_classification(capsys):
    """Half-size dictionary plus linear readout on real event recordings."""
    root = Path(os.environ.get(EVENT_DATASET_ENV, "data/poker-dvs"))
    if not (root / "train").is_dir() or not (root / "valid").is_dir():
        with capsys.disabled():
            print(
                f"[event-benchmark] SKIP - no event dataset at {root} "
                f"(point {EVENT_DATASET_ENV} at a root with train/ and valid/)"
            )
        pytest.skip(f"event dataset not present at {root}")
    start = time.perf_counter()
    train, valid = load_event_dataset(root)
    raw = {
        "dataset": {"kind": "events", "path": str(root)},
        "dict_size": {"ratio": 0.5},
        "lambda": 0.6,
        "dt": 1.0, "tau": 100.0,
        "display_ms": 100.0, "gap_ms": 100.0,
        "epochs": 30, "learning_rate": 0.005, "seed": 0,
        "classifier": {"epochs": 50, "learning_rate": 0.01},
    }
    graded = experiment.run_training(experiment.config_from_dict(raw), train, valid)
    spiking = experiment.run_training(
        experiment.config_from_dict(
            {**raw, "spike_height": 20.0, "filter": dict(TREND_FILTER)}
        ),
        train, valid,
    )
    graded_acc = graded.metrics.accuracy[-1]
    spiking_acc = spiking.metrics.accuracy[-1]
    elapsed = time.perf_counter() - start
    passed = graded_acc >= 0.85 and abs(graded_acc - spiking_acc) <= 0.08
    report(
        capsys, "event-benchmark", passed,
        f"graded accuracy {graded_acc:.1%}, spiking (height 20, averaged) "
        f"{spiking_acc:.1%}, {elapsed:.0f}s",
    )
    assert graded_acc >= 0.85
    assert abs(graded_acc - spiking_acc) <= 0.08


# ---------------------------------------------------------------------------
# Sweeps and image smoke run
# ---------------------------------------------------------------------------

def test_threshold_sweep_sparsity_monotonic(capsys):
    """Mean active fraction falls as the threshold rises, across 10 seeds."""
    start = time.perf_counter()
    base = experiment.config_from_dict({
        "dataset": {
            "kind": "synthetic", "seed": 0, "height": 8, "width": 8, "frames": 3,
            "density": 0.2, "train_per_class": 10, "valid_per_class": 5,
        },
        "dict_size": 32,
        "lambda": 0.4,
        "dt": 1.0, "tau": 10.0, "display_ms": 100.0,
        "epochs": 2, "learning_rate": 0.05, "seed": 0,
    })
    result = experiment.run_sweep(base, "lambda", [0.4, 0.6, 0.8, 1.0], repeats=10)
    means = [row["sparsity_mean"] for row in result.rows]
    failures = sum(row["failed"] for row in result.rows)
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    elapsed = time.perf_counter() - start
    passed = decreasing and failures == 0 and elapsed < 600.0
    report(
        capsys, "threshold-sparsity", passed,
        "mean sparsity % " + " -> ".join(f"{m:.2f}" for m in means)
        + f" ({'strictly decreasing' if decreasing else 'NOT decreasing'}), "
        f"{failures} failed runs, {elapsed:.0f}s",
    )
    assert decreasing
    assert failures == 0
    assert elapsed < 600.0


def write_grating_images(path: Path, count: int = 100) -> None:
    """Image-file fixture: oriented gratings, 1 label byte + 3072 pixel bytes."""
    rng = np.random.default_rng(7)
    yy, xx = np.mgrid[0:32, 0:32]
    records = []
    for i in range(count):
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(0.15, 0.6)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        image = np.empty((3, 32, 32))
        for channel in range(3):
            image[channel] = 0.5 + rng.uniform(0.2, 0.5) * wave
        pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
        records.append(bytes([i % 10]) + pixels.tobytes())
    path.write_bytes(b"".join(records))


def test_image_training_smoke(tmp_path, capsys):
    """100 images, 200 steps per sample, 256 elements: error falls, codes sparse."""
    start = time.perf_counter()
    data_path = tmp_path / "images.bin"
    write_grating_images(data_path)
    config = experiment.config_from_dict({
        "dataset": {
            "kind": "cifar", "path": str(data_path), "crop": 16, "valid_fraction": 0.2,
        },
        "dict_size": 256,
        "lambda": 0.5,
        "dt": 1.0, "tau": 50.0, "display_ms": 200.0,
        "epochs": 3, "learning_rate": 0.05, "seed": 0,
    })
    run = experiment.run_training(config)
    rmse_train = run.metrics.rmse_train
    decreasing = all(b < a for a, b in zip(rmse_train, rmse_train[1:]))
    final_sparsity = run.metrics.sparsity_pct[-1]
    elapsed = time.perf_counter() - start
    passed = decreasing and final_sparsity < 20.0
    report(
        capsys, "image-smoke", passed,
        "train rmse " + " -> ".join(f"{v:.4f}" for v in rmse_train)
        + f" ({'decreasing' if decreasing else 'NOT decreasing'}), "
        f"final sparsity {final_sparsity:.1f}%, {elapsed:.0f}s",
    )
    assert decreasing
    assert final_sparsity < 20.0


# ---------------------------------------------------------------------------
# Bit-exact reruns of the command-line surface
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> None:
    code = cli.main(argv)
    assert code == 0, f"command {argv} exited {code}"


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_identical_rerun_is_bit_exact(tmp_path, capsys):
    """Same config and seed twice: every artifact byte-identical."""
    start = time.perf_counter()
    base = {
        "dataset": {
            "kind": "synthetic", "seed": 2, "n_classes": 3, "height": 6, "width": 6,
            "frames": 2, "train_per_class": 4, "valid_per_class": 2,
        },
        "dict_size": 12,
        "lambda": 0.5,
        "dt": 1.0, "tau": 10.0, "display_ms": 50.0,
        "epochs": 2, "learning_rate": 0.05, "seed": 0,
        "checkpoint_every": 1,
    }
    graded_cfg = tmp_path / "graded.json"
    graded_cfg.write_text(json.dumps(base))
    spiking_cfg = tmp_path / "spiking.json"
    spiking_cfg.write_text(json.dumps(
        {**base, "spike_height": 2.0, "filter": {"kind": "boxcar", "window_ms": 20.0}}
    ))
    readout_cfg = tmp_path / "readout.json"
    readout_cfg.write_text(json.dumps(
        {**base, "classifier": {"epochs": 5, "learning_rate": 0.05}}
    ))
    events_path = tmp_path / "clip.evt"
    rng = np.random.default_rng(6)
    events = [
        (
            int(t), int(rng.integers(0, 8)), int(rng.integers(0, 8)),
            int(rng.choice([-1, 1])),
        )
        for t in sorted(rng.integers(0, 3000, size=200))
    ]
    save_events(events_path, events, width=8, height=8)

    def run_all(root: Path) -> dict:
        run_cli(["synth", "--out", str(root / "synth"), "--seed", "3"])
        run_cli(["train", "--config", str(graded_cfg), "--out", str(root / "train")])
        run_cli(["train", "--config", str(spiking_cfg), "--out", str(root / "spiking")])
        checkpoint = str(root / "train" / "dict_epoch_2.lcad")
        run_cli([
            "sweep", "--config", str(graded_cfg), "--out", str(root / "sweep"),
            "--axis", "lambda", "--values", "0.4,0.6", "--repeats", "2",
        ])
        run_cli([
            "infer", "--config", str(graded_cfg), "--dict", checkpoint,
            "--out", str(root / "infer"), "--split", "valid", "--index", "0",
        ])
        run_cli([
            "infer", "--config", str(spiking_cfg), "--dict", checkpoint,
            "--out", str(root / "spiking-infer"),
        ])
        run_cli([
            "classify-train", "--config", str(readout_cfg), "--dict", checkpoint,
            "--out", str(root / "readout"),
        ])
        run_cli([
            "events-to-frames", "--input", str(events_path),
            "--out", str(root / "frames"), "--window-us", "500",
        ])
        run_cli([
            "export-dict", "--dict", checkpoint, "--out", str(root / "figures"),
            "--top-k", "9",
        ])
        run_cli([
            "export-recon", "--config", str(graded_cfg), "--dict", checkpoint,
            "--out", str(root / "figures-recon"), "--count", "4",
        ])
        return tree_bytes(root)

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    same_names = sorted(first) == sorted(second)
    changed = [name for name in first if second.get(name) != first[name]]
    elapsed = time.perf_counter() - start
    passed = same_names and not changed
    report(
        capsys, "bit-exact-rerun", passed,
        f"{len(first)} artifacts from 10 commands; "
        + ("all byte-identical" if passed else f"differ: {sorted(changed)[:5]}")
        + f", {elapsed:.0f}s",
    )
    assert same_names
    assert changed == []
