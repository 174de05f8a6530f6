"""Seeded input generation for the benchmark workloads.

Every file the CLI reads (model JSON, calibration CSV, linear-system JSON)
and every argument derived from data (``x0``, ``epsilon``) comes from here,
drawn from one ``numpy.random.Generator`` per job.  The same workload,
seed and job index always give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("fixture-rollouts", "wide-sparsity", "budget-inverse")

RADIUS = 3.0
AUDIT_SAMPLES = 10_000
FIXTURE_DIR = Path("tests") / "fixtures"

# (fixture file, simulate flags) for the paper's two closed-loop demos
FIXTURES = (
    (
        "pendulum_policy.json",
        ("--dynamics", "pendulum", "--action-limit", "5.0",
         "--state-box-lo=-3.2,-8", "--state-box-hi=3.2,8"),
    ),
    (
        "double_integrator_policy.json",
        ("--dynamics", "double_integrator", "--action-limit", "5.0",
         "--state-box-lo=-4,-4", "--state-box-hi=4,4"),
    ),
)


@dataclass(frozen=True)
class JobSpec:
    """One policy's trip through prune -> certify -> simulate -> report.

    The ``*_args`` fields are command-specific flags; the input files they
    name live in ``dir``.
    """

    index: int
    seed: int
    label: str
    dir: Path
    prune_args: tuple[str, ...]
    certify_args: tuple[str, ...]
    simulate_args: tuple[str, ...]
    expected_removed: int | None  # sparsity mode: round(s * N)
    epsilon: float | None  # epsilon mode: the budget the certificate must meet


def job_seed(workload: str, seed: int, index: int) -> int:
    """Seed of job ``index``, independent of every other job's."""
    tag = WORKLOADS.index(workload)
    return int(np.random.SeedSequence([int(seed), tag, int(index)]).generate_state(1)[0])


def ball_states(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """``n`` states drawn volume-uniformly from the ball, one per row."""
    dirs = rng.standard_normal((n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (radius * rng.random(n) ** (1.0 / dim))[:, None]


def float_list(values) -> str:
    """Comma-joined ``repr`` of plain Python floats.

    ``repr(np.float64(x))`` is ``np.float64(x)`` under numpy 2, which the CLI
    cannot parse, hence the explicit ``float``.
    """
    return ",".join(repr(float(v)) for v in values)


def _write_csv(path: Path, rows: np.ndarray) -> None:
    path.write_text("".join(float_list(r) + "\n" for r in rows), encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def mlp_dict(rng: np.random.Generator, dims: list[int]) -> dict:
    """ReLU MLP in the model JSON schema; identity output layer."""
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        kind = "identity" if i == len(dims) - 2 else "relu"
        layers.append(
            {
                "weights": (rng.standard_normal((n_out, n_in)) / math.sqrt(n_in)).tolist(),
                "bias": (0.1 * rng.standard_normal(n_out)).tolist(),
                "activation": {"kind": kind, "alpha": 1.0},
            }
        )
    return {"layers": layers}


def stable_system(rng: np.random.Generator, n: int, m: int) -> dict:
    """``x' = A x + B u`` with A symmetric, eigenvalues in [0.3, 0.9]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.3, 0.9, n)) @ q.T
    b = 0.1 * rng.standard_normal((n, m))
    return {"A": a.tolist(), "B": b.tolist()}


def _fixture_job(root: Path, out: Path, rng, index: int) -> dict:
    fixture, dyn_flags = FIXTURES[index % len(FIXTURES)]
    model = (root / FIXTURE_DIR / fixture).read_bytes()
    (out / "model.json").write_bytes(model)
    w0 = json.loads(model)["layers"][0]["weights"]
    _write_csv(out / "calibration.csv", ball_states(rng, 64, 2, RADIUS))
    x0 = ball_states(rng, 1, 2, RADIUS)[0]
    return {
        "label": fixture.removesuffix("_policy.json"),
        "prune": ("--layers", "0", "--sparsity", "0.5"),
        "simulate": dyn_flags + ("--horizon", "10000", f"--x0={float_list(x0)}"),
        "expected_removed": round(0.5 * len(w0) * len(w0[0])),
    }


def _synthetic_job(out: Path, rng, width: int, n_calib: int, horizon: int):
    dims = [8, width, width, 2]
    model = mlp_dict(rng, dims)
    _write_json(out / "model.json", model)
    _write_csv(out / "calibration.csv", ball_states(rng, n_calib, dims[0], RADIUS))
    _write_json(out / "system.json", stable_system(rng, dims[0], dims[-1]))
    x0 = ball_states(rng, 1, dims[0], RADIUS)[0]
    simulate = (
        "--dynamics", "linear", "--system", str(out / "system.json"), "--action-limit", "1.0",
        "--horizon", str(horizon), f"--x0={float_list(x0)}",
    )
    return model, simulate


def _wide_job(out: Path, rng) -> dict:
    model, simulate = _synthetic_job(out, rng, width=512, n_calib=1024, horizon=2000)
    n_weights = sum(len(layer["weights"]) * len(layer["weights"][0]) for layer in model["layers"])
    return {
        "label": "zero-only",
        "prune": ("--sparsity", "0.5"),
        "simulate": simulate,
        "expected_removed": round(0.5 * n_weights),
    }


def _budget_job(out: Path, rng, index: int) -> dict:
    model, simulate = _synthetic_job(out, rng, width=128, n_calib=256, horizon=1000)
    # epsilon as a fixed share of the radius times the Lipschitz product,
    # so the cap scales with each drawn model
    lip = math.prod(np.linalg.norm(np.asarray(layer["weights"]), 2) for layer in model["layers"])
    epsilon = float(0.02 * RADIUS * lip)
    prune = ("--epsilon", repr(epsilon), "--radius", repr(RADIUS))
    compensate = index % 2 == 1
    return {
        "label": "compensated" if compensate else "zero-only",
        "prune": prune + ("--compensate",) * compensate,
        "simulate": simulate,
        "epsilon": epsilon,
    }


def generate_job(root: Path, workload: str, seed: int, index: int, out: Path) -> JobSpec:
    """Write the inputs of job ``index`` of ``workload`` into ``out``.

    ``root`` is the checkout root; only fixture-rollouts reads from it (the
    repository's frozen fixture policies).
    """
    out.mkdir(parents=True, exist_ok=True)
    s = job_seed(workload, seed, index)
    rng = np.random.default_rng(s)
    if workload == "fixture-rollouts":
        job = _fixture_job(root, out, rng, index)
    elif workload == "wide-sparsity":
        job = _wide_job(out, rng)
    elif workload == "budget-inverse":
        job = _budget_job(out, rng, index)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return JobSpec(
        index=index,
        seed=s,
        label=job["label"],
        dir=out,
        prune_args=("--calibration", str(out / "calibration.csv")) + job["prune"],
        certify_args=("--radius", repr(RADIUS), "--samples", str(AUDIT_SAMPLES), "--seed", str(s)),
        simulate_args=job["simulate"],
        expected_removed=job.get("expected_removed"),
        epsilon=job.get("epsilon"),
    )
