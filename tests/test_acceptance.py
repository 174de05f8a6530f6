"""Acceptance suite: every criterion, at its stated tolerance.

Each test prints one [acceptance N] PASS/FAIL line (run with ``pytest -s``
to see them all); all randomness is seeded so reruns are identical.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_policy
from prunecert.certifier import StateSpaceSpec, admissible_magnitude, certify
from prunecert.cli import EXIT_OK, main
from prunecert.linalg import gram, spectral_norm
from prunecert.policy import (
    ActivationKind,
    Layer,
    MlpPolicy,
    apply_activation,
    forward_batch,
)
from prunecert.pruner import (
    CalibrationBatch,
    collect_calibration,
    obs_compensate,
    prune_to_budget,
    rank_weights,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {name} {suffix}"


def _calibration_states(rng, dim, n=24, radius=10.0):
    dirs = rng.standard_normal((n, dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    radii = radius * rng.random(n) ** (1.0 / dim)
    return [row for row in dirs * radii[:, None]]


def test_criterion_1_single_layer_soundness_sweep():
    rng = np.random.default_rng(1001)
    radius = 10.0
    violations = 0
    cases = 0
    for _ in range(50):
        p = random_policy(rng, depth=int(rng.integers(1, 6)), max_width=32)
        calib = collect_calibration(p, _calibration_states(rng, p.input_dim))
        k = int(rng.integers(p.num_layers))
        entries = rank_weights(p, calib, [k], damping="auto")
        space = StateSpaceSpec(dim=p.input_dim, radius=radius)
        for frac in (0.1, 0.5, 0.9):
            count = int(round(frac * len(entries)))
            pruned, _ = prune_to_budget(p, entries[:count])
            cert = certify(p, pruned, space, n=10_000, seed=int(rng.integers(2**32)))
            violations += cert.audit.violations
            cases += 1
    _check(
        1,
        "single-layer soundness sweep",
        violations == 0 and cases == 150,
        f"{cases} cases, {violations} violations",
    )


def test_criterion_2_multi_layer_additivity_sweep():
    rng = np.random.default_rng(2002)
    radius = 10.0
    violations = 0
    cases = 0
    for _ in range(50):
        depth = int(rng.integers(2, 6))
        p = random_policy(rng, depth=depth, max_width=32)
        calib = collect_calibration(p, _calibration_states(rng, p.input_dim))
        n_pruned = int(rng.integers(2, min(3, depth) + 1))
        layers = sorted(rng.choice(depth, size=n_pruned, replace=False).tolist())
        entries = rank_weights(p, calib, layers, damping="auto")
        space = StateSpaceSpec(dim=p.input_dim, radius=radius)
        for frac in (0.1, 0.5, 0.9):
            count = int(round(frac * len(entries)))
            pruned, _ = prune_to_budget(p, entries[:count])
            cert = certify(p, pruned, space, n=10_000, seed=int(rng.integers(2**32)))
            violations += cert.audit.violations
            cases += 1
    _check(
        2,
        "multi-layer additive soundness sweep",
        violations == 0 and cases == 150,
        f"{cases} cases, {violations} violations",
    )


def test_criterion_3_tightness_fixture():
    original = MlpPolicy(
        layers=(Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("relu")),)
    )
    pruned = MlpPolicy(
        layers=(Layer(weight=[[0.5]], bias=[0.0], activation=ActivationKind("relu")),)
    )
    space = StateSpaceSpec(dim=1, radius=2.0, box=(np.array([2.0]), np.array([2.0])))
    audit = certify(original, pruned, space, n=128, seed=3).audit
    ok = abs(audit.tightness - 1.0) <= 1e-12 and audit.violations == 0
    _check(3, "equality fixture tightness 1.0", ok, f"tightness={audit.tightness!r}")


def test_criterion_4_saliency_matches_exact_loss_ranking():
    rng = np.random.default_rng(4004)
    mismatches = 0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        w = rng.normal(size=(int(rng.integers(1, 9)), d))
        p = MlpPolicy(
            layers=(
                Layer(weight=w, bias=np.zeros(w.shape[0]), activation=ActivationKind("relu")),
            )
        )
        # orthogonal calibration rows make the curvature block diagonal
        x = np.zeros((d, d + 2))
        x[:, :d] = np.diag(rng.uniform(0.5, 2.0, size=d))
        calib = CalibrationBatch((gram(x),))
        entries = rank_weights(p, calib, [0], damping=0.0)
        brute = []
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                w_hat = w.copy()
                w_hat[r, c] = 0.0
                diff = (w - w_hat) @ x
                brute.append((float((diff * diff).sum()), 0, r, c))
        brute.sort()
        ranked = list(zip(entries.row.tolist(), entries.col.tolist()))
        if ranked != [(r, c) for _, _, r, c in brute]:
            mismatches += 1
    _check(4, "saliency ranking equals brute-force loss ranking", mismatches == 0,
           f"{mismatches} mismatched layers of 20")


def test_criterion_5_obs_matches_constrained_least_squares():
    rng = np.random.default_rng(5005)
    max_err = 0.0
    loss_failures = 0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d + 4))
        row = rng.normal(size=d)
        q = int(rng.integers(d))
        h_inv = np.linalg.inv(gram(x))
        got = obs_compensate(row, q, h_inv)
        free = [i for i in range(d) if i != q]
        z, *_ = np.linalg.lstsq(x[free, :].T, row[q] * x[q, :], rcond=None)
        expected = row.copy()
        expected[free] = row[free] + z
        expected[q] = 0.0
        max_err = max(max_err, float(np.abs(got - expected).max()))
        base = row[None, :] @ x
        comp_loss = float(((got[None, :] @ x - base) ** 2).sum())
        zero = row.copy()
        zero[q] = 0.0
        zero_loss = float(((zero[None, :] @ x - base) ** 2).sum())
        if comp_loss > zero_loss + 1e-10:
            loss_failures += 1
    ok = max_err <= 1e-8 and loss_failures == 0
    _check(5, "compensation equals constrained least squares", ok,
           f"max_abs_err={max_err:.3g}, loss_failures={loss_failures}")


def test_criterion_6_spectral_norm_oracle_and_lipschitz_probes():
    rng = np.random.default_rng(6006)
    worst_rel = 0.0
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 65)), int(rng.integers(1, 65))))
        truth = float(np.linalg.svd(a, compute_uv=False)[0])
        rel = abs(spectral_norm(a) - truth) / max(truth, 1.0)
        worst_rel = max(worst_rel, rel)
    probe_violations = 0
    for _ in range(10):
        p = random_policy(rng, depth=int(rng.integers(1, 5)), max_width=16)
        lip = math.prod(p.weight_spectral_norms)
        s = rng.normal(scale=2.0, size=(1000, p.input_dim))
        t = rng.normal(scale=2.0, size=(1000, p.input_dim))
        num = np.linalg.norm(forward_batch(p, s.T) - forward_batch(p, t.T), axis=0)
        den = np.linalg.norm(s - t, axis=1)
        keep = den > 0
        probe_violations += int(
            np.count_nonzero(num[keep] > lip * den[keep] * (1.0 + 1e-9))
        )
    ok = worst_rel < 1e-6 and probe_violations == 0
    _check(6, "spectral norm vs SVD oracle + Lipschitz probes", ok,
           f"worst_rel={worst_rel:.3g}, probe_violations={probe_violations}")


def test_criterion_7_non_expansiveness_of_certified_activations():
    rng = np.random.default_rng(7007)
    kinds = (
        ActivationKind("relu"),
        ActivationKind("leaky_relu", 0.1),
        ActivationKind("prelu", 0.5),
        ActivationKind("elu", 1.0),
        ActivationKind("elu", 0.3),
        ActivationKind("identity"),
    )
    total_violations = 0
    for kind in kinds:
        x = rng.normal(scale=4.0, size=(100_000, 6))
        y = apply_activation(kind, x)
        total_violations += int(
            np.count_nonzero(np.linalg.norm(y, axis=1) > np.linalg.norm(x, axis=1))
        )
    _check(7, "certified activations never expand the norm", total_violations == 0,
           f"{total_violations} violations over {len(kinds)}x100000 vectors")


def test_criterion_8_budget_round_trip():
    rng = np.random.default_rng(8008)
    failures = 0
    for _ in range(20):
        depth = int(rng.integers(1, 5))
        p = random_policy(rng, depth=depth, max_width=16)
        calib = collect_calibration(p, _calibration_states(rng, p.input_dim, radius=3.0))
        n_layers = int(rng.integers(1, depth + 1))
        layers = sorted(rng.choice(depth, size=n_layers, replace=False).tolist())
        epsilon = float(rng.uniform(0.01, 1.0))
        space = StateSpaceSpec(dim=p.input_dim, radius=float(rng.uniform(0.5, 5.0)))
        caps = admissible_magnitude(p, layers, epsilon, space)
        entries = rank_weights(p, calib, layers, damping="auto")
        pruned, _ = prune_to_budget(p, entries, caps, damping="auto", calib=calib)
        cert = certify(p, pruned, space, n=100, seed=0)
        if not cert.budget <= epsilon + 1e-9:
            failures += 1
    _check(8, "admissible magnitudes re-certify under budget", failures == 0,
           f"{failures} of 20 pairs exceeded epsilon")


def _strip_timestamp(path: Path) -> str:
    data = json.loads(path.read_text())
    data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize(
    "system, fixture, dynamics_flags, x0",
    [
        (
            "pendulum",
            "pendulum_policy.json",
            ["--dynamics", "pendulum", "--action-limit", "5.0",
             "--state-box-lo=-3.2,-8", "--state-box-hi", "3.2,8"],
            "0.5,0",
        ),
        (
            "double_integrator",
            "double_integrator_policy.json",
            ["--dynamics", "double_integrator", "--action-limit", "5.0",
             "--state-box-lo=-4,-4", "--state-box-hi", "4,4"],
            "1,0",
        ),
    ],
)
def test_criterion_9_closed_loop_cli_pipeline(tmp_path, system, fixture, dynamics_flags, x0):
    model = FIXTURES / fixture
    calib = tmp_path / "calib.csv"
    grid = np.array([[a, b] for a in (-1.0, -0.5, 0.5, 1.0) for b in (-1.0, -0.5, 0.5, 1.0)])
    np.savetxt(calib, grid, delimiter=",")
    pruned_dir = tmp_path / "pruned"
    assert main([
        "prune", "--model", str(model), "--calibration", str(calib),
        "--layers", "0", "--sparsity", "0.5", "--seed", "11",
        "--out", str(pruned_dir),
    ]) == EXIT_OK
    pruned = pruned_dir / "pruned_model.json"
    cert_dir = tmp_path / "cert"
    assert main([
        "certify", "--model", str(model), "--pruned", str(pruned),
        "--radius", "3.0", "--samples", "2000", "--seed", "11",
        "--out", str(cert_dir),
    ]) == EXIT_OK
    cert = cert_dir / "certificate.json"

    reports = []
    csv_bytes = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), *dynamics_flags,
            "--x0", x0, "--horizon", "500", "--seed", "11", "--out", str(out),
        ])
        assert code == EXIT_OK
        reports.append(json.loads((out / "deviation_report.json").read_text()))
        csv_bytes.append(
            (out / "trajectory_original.csv").read_bytes()
            + (out / "trajectory_pruned.csv").read_bytes()
        )
    report = reports[0]
    reproducible = (
        csv_bytes[0] == csv_bytes[1]
        and _strip_timestamp(tmp_path / "run1" / "deviation_report.json")
        == _strip_timestamp(tmp_path / "run2" / "deviation_report.json")
    )
    ok = (
        report["in_ball_violations"] == 0
        and report["in_ball_count"] > 0
        and reproducible
    )
    _check(9, f"closed-loop CLI pipeline ({system})", ok,
           f"in_ball={report['in_ball_count']}, violations={report['in_ball_violations']}, "
           f"reproducible={reproducible}")
