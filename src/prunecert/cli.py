"""Command-line front end: prune, certify, verify, simulate, report.

One config seed feeds every random draw through named substreams, so a
single number reproduces a full run.  All emitted JSON is canonical
(sorted keys, two-space indent) and floats round-trip exactly; reports are
byte-identical across reruns except for their timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from prunecert import __version__, linalg
from prunecert.certifier import (
    AuditSummary,
    Certificate,
    CertificateRow,
    StateSpaceSpec,
    admissible_magnitude,
    audit_bound,
    multi_layer_budget,
)
from prunecert.controlsim import (
    BlowUpError,
    DoubleIntegrator,
    LinearSystem,
    LoopAudit,
    Pendulum,
    deviation_audit,
)
from prunecert.policy import MlpPolicy, _write_json, load_policy, save_policy
from prunecert.pruner import (
    PrunePlan,
    Ranking,
    apply_plan,
    collect_calibration,
    prune_to_budget,
    rank_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# substream tags hanging off the config seed
STREAM_CALIBRATION = 1
STREAM_AUDIT = 2

ENV_OUTDIR = "PRUNECERT_OUTDIR"


class UsageError(Exception):
    """Bad flags, unreadable files, malformed inputs: exit code 1."""


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic child seed for a named substream of the run seed."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def _load_policy_file(path) -> MlpPolicy:
    if path is None:
        raise UsageError("a model file is required")
    try:
        return load_policy(path)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_states_csv(path, expected_dim: int) -> list[np.ndarray]:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: could not parse CSV ({exc})") from exc
    if data.size == 0:
        raise UsageError(f"{path}: no states found")
    if data.shape[1] != expected_dim:
        raise UsageError(
            f"{path}: states have {data.shape[1]} columns but the model expects "
            f"{expected_dim}"
        )
    if not np.isfinite(data).all():
        raise UsageError(f"{path}: states contain non-finite values")
    return [data[i] for i in range(data.shape[0])]


# ---------------------------------------------------------------------------
# certificate JSON schema
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: Certificate) -> dict:
    """Serialize a certificate; requires attached audit evidence."""
    if cert.audit is None:
        raise ValueError("cannot serialize an unaudited certificate")
    a = cert.audit
    return {
        "layers": [
            {
                "k": r.layer,
                "c_max": r.c_max,
                "delta_spectral": r.delta_spectral,
                "contribution": r.contribution,
            }
            for r in cert.rows
        ],
        "budget": cert.budget,
        "radius": cert.radius,
        "radius_source": cert.radius_source,
        "audit": {
            "samples": a.samples,
            "max_dev": a.max_dev,
            "mean_dev": a.mean_dev,
            "violations": a.violations,
            "tightness": a.tightness,
            "margin": a.margin,
            "seed": a.seed,
        },
        "holds": cert.holds,
        "timestamp": _timestamp(),
    }


def certificate_from_dict(d) -> Certificate:
    """Parse the certificate schema back into a Certificate."""
    if not isinstance(d, dict):
        raise ValueError("certificate: expected an object")
    for key in ("layers", "budget", "radius", "audit", "holds"):
        if key not in d:
            raise ValueError(f"certificate: missing field '{key}'")
    rows = tuple(
        CertificateRow(
            layer=int(r["k"]),
            c_max=float(r["c_max"]),
            delta_spectral=float(r["delta_spectral"]),
            contribution=float(r["contribution"]),
        )
        for r in d["layers"]
    )
    a = d["audit"]
    audit = AuditSummary(
        samples=int(a["samples"]),
        max_dev=float(a["max_dev"]),
        mean_dev=float(a.get("mean_dev", a["max_dev"])),
        violations=int(a["violations"]),
        budget=float(d["budget"]),
        tightness=float(a.get("tightness", 0.0)),
        margin=float(a.get("margin", float(d["budget"]) - float(a["max_dev"]))),
        seed=int(a["seed"]),
    )
    return Certificate(
        rows=rows,
        budget=float(d["budget"]),
        radius=float(d["radius"]),
        radius_source=str(d.get("radius_source", "radius")),
        audit=audit,
    )


def _load_certificate_file(path) -> Certificate:
    try:
        return certificate_from_dict(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration (config file overridable by flags)
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    model: str | None = None
    pruned: str | None = None
    certificate: str | None = None
    calibration: str | None = None
    states: str | None = None
    layers: tuple[int, ...] | None = None
    sparsity: float | None = None
    epsilon: float | None = None
    compensate: bool = False
    diagonal: bool = False
    reestimate: bool = False
    damping: float | str = "auto"
    allocation: str = "uniform"
    allocation_weights: tuple[float, ...] | None = None
    radius: float | None = None
    box_lo: tuple[float, ...] | None = None
    box_hi: tuple[float, ...] | None = None
    samples: int = 10_000
    seed: int = 0
    out: str = "."
    dynamics: str | None = None
    system: str | None = None
    x0: tuple[float, ...] | None = None
    horizon: int | None = None
    dt: float | None = None
    gravity: float = 9.81
    length: float = 1.0
    mass: float = 1.0
    action_limit: float | None = None
    state_box_lo: tuple[float, ...] | None = None
    state_box_hi: tuple[float, ...] | None = None
    paths: tuple[str, ...] = field(default_factory=tuple)


def _number(value, kind, what: str):
    """Convert one value as a flag's ``type=kind`` would; ``None`` passes.

    A config file may give the number itself or its text.  Booleans, and
    fractional numbers where an integer is wanted, are rejected.
    """
    if value is None:
        return None
    if isinstance(value, str) or (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and (kind is float or isinstance(value, int))
    ):
        try:
            return kind(value)
        except ValueError:
            pass
    noun = "an integer" if kind is int else "a number"
    raise UsageError(f"{what}: expected {noun}, got {value!r}")


def _numbers(value, kind, what: str) -> tuple | None:
    """A comma-separated string or a JSON list, each item as in ``_number``."""
    if value is None:
        return None
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list):
        raise UsageError(f"{what}: expected a comma-separated list, got {value!r}")
    return tuple(_number(v, kind, what) for v in items)


def _switch(value, what: str) -> bool:
    """A boolean flag; a config file must give a JSON ``true`` or ``false``."""
    if value is None:
        return False
    if not isinstance(value, bool):
        raise UsageError(f"{what}: expected true or false, got {value!r}")
    return value


def _text(value, what: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{what}: expected a string, got {value!r}")
    return value


def _damping(value) -> float | str:
    # ReLU activations routinely leave rank-deficient curvature blocks, so
    # the CLI defaults to relative auto-damping rather than none
    if value is None:
        return "auto"
    if isinstance(value, str) and value.strip() == "auto":
        return "auto"
    try:
        d = _number(value, float, "damping")
    except UsageError as exc:
        raise UsageError("damping: expected a number or 'auto'") from exc
    if d < 0:
        raise UsageError("damping: must be nonnegative")
    return d


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values with flags; flags win, then environment."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")

    def get(key, default=None):
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key, default)
        return v

    out = _text(get("out"), "out")
    if out is None:
        out = os.environ.get(ENV_OUTDIR, ".")
    return RunConfig(
        model=_text(get("model"), "model"),
        pruned=_text(get("pruned"), "pruned"),
        certificate=_text(get("certificate"), "certificate"),
        calibration=_text(get("calibration"), "calibration"),
        states=_text(get("states"), "states"),
        layers=_numbers(get("layers"), int, "layers"),
        sparsity=_number(get("sparsity"), float, "sparsity"),
        epsilon=_number(get("epsilon"), float, "epsilon"),
        compensate=_switch(get("compensate"), "compensate"),
        diagonal=_switch(get("diagonal"), "diagonal"),
        reestimate=_switch(get("reestimate"), "reestimate"),
        damping=_damping(get("damping")),
        allocation=_text(get("allocation", "uniform"), "allocation"),
        allocation_weights=_numbers(get("allocation_weights"), float, "allocation weights"),
        radius=_number(get("radius"), float, "radius"),
        box_lo=_numbers(get("box_lo"), float, "box low"),
        box_hi=_numbers(get("box_hi"), float, "box high"),
        samples=_number(get("samples", 10_000), int, "samples"),
        seed=_number(get("seed", 0), int, "seed"),
        out=out,
        dynamics=_text(get("dynamics"), "dynamics"),
        system=_text(get("system"), "system"),
        x0=_numbers(get("x0"), float, "x0"),
        horizon=_number(get("horizon"), int, "horizon"),
        dt=_number(get("dt"), float, "dt"),
        gravity=_number(get("gravity", 9.81), float, "gravity"),
        length=_number(get("length", 1.0), float, "length"),
        mass=_number(get("mass", 1.0), float, "mass"),
        action_limit=_number(get("action_limit"), float, "action limit"),
        state_box_lo=_numbers(get("state_box_lo"), float, "state box low"),
        state_box_hi=_numbers(get("state_box_hi"), float, "state box high"),
        paths=tuple(getattr(args, "paths", ()) or ()),
    )


def _state_space(cfg: RunConfig, dim: int) -> StateSpaceSpec:
    try:
        if cfg.states is not None:
            return StateSpaceSpec.from_states(_load_states_csv(cfg.states, dim))
        box = None
        radius = cfg.radius
        if (cfg.box_lo is None) != (cfg.box_hi is None):
            raise UsageError("provide both box bounds or neither")
        if cfg.box_lo is not None:
            lo = np.asarray(cfg.box_lo, dtype=float)
            hi = np.asarray(cfg.box_hi, dtype=float)
            box = (lo, hi)
            if radius is None:
                # tightest ball containing the box
                radius = float(linalg.vector_norm(np.maximum(np.abs(lo), np.abs(hi))))
        if radius is None:
            raise UsageError("provide --radius, --box-lo/--box-hi, or --states")
        return StateSpaceSpec(dim=dim, radius=float(radius), box=box)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _plan_dict(plan: PrunePlan, selected: dict[int, Ranking], cfg: RunConfig) -> dict:
    layers = []
    for lp in plan.layers:
        layers.append(
            {
                "k": lp.layer,
                "mask": lp.mask.tolist(),
                "saliencies": selected[lp.layer].saliency.tolist(),
                "delta_spectral": lp.delta_spectral_norm,
                "compensated": lp.compensated,
            }
        )
    return {
        "layers": layers,
        "pruned_weights": sum(len(lp.mask) for lp in plan.layers),
        "damping": cfg.damping,
        "seed": cfg.seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }


def cmd_prune(cfg: RunConfig) -> int:
    if (cfg.sparsity is None) == (cfg.epsilon is None):
        raise UsageError("set exactly one of --sparsity or --epsilon")
    if cfg.sparsity is not None and not 0.0 <= cfg.sparsity <= 1.0:
        raise UsageError("sparsity must lie in [0, 1]")
    p = _load_policy_file(cfg.model)
    if cfg.calibration is None:
        raise UsageError("prune needs --calibration (CSV of states, one per row)")
    layers = cfg.layers if cfg.layers is not None else tuple(range(p.num_layers))
    space = _state_space(cfg, p.input_dim) if cfg.epsilon is not None else None
    states = _load_states_csv(cfg.calibration, p.input_dim)
    calib = collect_calibration(p, states)
    try:
        ranking = rank_weights(p, calib, layers, damping=cfg.damping, diagonal=cfg.diagonal)
        if cfg.sparsity is not None:
            count = int(round(cfg.sparsity * len(ranking)))
            pruned, plan = apply_plan(
                p,
                ranking,
                count,
                compensate=cfg.compensate,
                damping=cfg.damping,
                calib=calib,
                reestimate=cfg.reestimate,
            )
            selected = ranking[:count].by_layer()
        else:
            caps = admissible_magnitude(
                p,
                layers,
                cfg.epsilon,
                space,
                allocation=cfg.allocation,
                weights=cfg.allocation_weights,
            )
            pruned, plan, selected = prune_to_budget(
                p,
                ranking,
                caps,
                compensate=cfg.compensate,
                damping=cfg.damping,
                calib=calib,
                reestimate=cfg.reestimate,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _outdir(cfg)
    save_policy(pruned, out / "pruned_model.json")
    _write_json(out / "prune_plan.json", _plan_dict(plan, selected, cfg))
    total = sum(len(lp.mask) for lp in plan.layers)
    print(f"pruned {total} weights across layers {[lp.layer for lp in plan.layers]}")
    print(f"wrote {out / 'pruned_model.json'} and {out / 'prune_plan.json'}")
    return EXIT_OK


def _print_certificate(cert: Certificate) -> None:
    for r in cert.rows:
        print(
            f"layer {r.layer}: c_max={r.c_max:.6g} "
            f"|delta|={r.delta_spectral:.6g} contribution={r.contribution:.6g}"
        )
    a = cert.audit
    print(f"budget={cert.budget:.6g} radius={cert.radius:.6g} ({cert.radius_source})")
    print(
        f"audit: samples={a.samples} max_dev={a.max_dev:.6g} "
        f"violations={a.violations} tightness={a.tightness:.6g}"
    )
    print(f"holds: {cert.holds}")


def _verify_report(cert: Certificate) -> dict:
    a = cert.audit
    return {
        "samples": a.samples,
        "max_dev": a.max_dev,
        "mean_dev": a.mean_dev,
        "violations": a.violations,
        "budget": cert.budget,
        "tightness": a.tightness,
        "seed": a.seed,
        "holds": cert.holds,
        "timestamp": _timestamp(),
    }


def _certify_and_write(cfg: RunConfig, artifact: str, to_dict) -> int:
    """Body shared by certify and verify: budget the (original, pruned) pair,
    audit it, write ``to_dict(cert)`` to ``artifact`` and exit by ``holds``."""
    original = _load_policy_file(cfg.model)
    if cfg.pruned is None:
        raise UsageError("certification needs --pruned (the pruned model file)")
    pruned = _load_policy_file(cfg.pruned)
    try:
        plan = PrunePlan.from_policies(original, pruned)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    space = _state_space(cfg, original.input_dim)
    cert = multi_layer_budget(original, plan, space)
    summary = audit_bound(
        original,
        pruned,
        plan,
        space,
        n=cfg.samples,
        seed=derive_seed(cfg.seed, STREAM_AUDIT),
    )
    cert = replace(cert, audit=summary)
    out = _outdir(cfg)
    _write_json(out / artifact, to_dict(cert))
    _print_certificate(cert)
    print(f"wrote {out / artifact}")
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def cmd_certify(cfg: RunConfig) -> int:
    return _certify_and_write(cfg, "certificate.json", certificate_to_dict)


def cmd_verify(cfg: RunConfig) -> int:
    return _certify_and_write(cfg, "verify_report.json", _verify_report)


def _dynamics(cfg: RunConfig):
    if cfg.dynamics is None:
        raise UsageError("simulate needs --dynamics")
    state_box = None
    if (cfg.state_box_lo is None) != (cfg.state_box_hi is None):
        raise UsageError("provide both state box bounds or neither")
    if cfg.state_box_lo is not None:
        state_box = (
            np.asarray(cfg.state_box_lo, dtype=float),
            np.asarray(cfg.state_box_hi, dtype=float),
        )
    try:
        if cfg.dynamics == "double_integrator":
            return DoubleIntegrator(
                dt=cfg.dt if cfg.dt is not None else 0.1,
                accel_limit=cfg.action_limit,
                state_box=state_box,
            )
        if cfg.dynamics == "pendulum":
            return Pendulum(
                dt=cfg.dt if cfg.dt is not None else 0.01,
                gravity=cfg.gravity,
                length=cfg.length,
                mass=cfg.mass,
                torque_limit=cfg.action_limit,
                state_box=state_box,
            )
        if cfg.dynamics == "linear":
            if cfg.system is None:
                raise UsageError("linear dynamics need --system (JSON with A and B)")
            sys_spec = _load_json(cfg.system)
            if not isinstance(sys_spec, dict) or "A" not in sys_spec or "B" not in sys_spec:
                raise UsageError(f"{cfg.system}: expected an object with 'A' and 'B'")
            return LinearSystem(
                a=np.asarray(sys_spec["A"], dtype=float),
                b=np.asarray(sys_spec["B"], dtype=float),
                action_limit=cfg.action_limit,
                state_box=state_box,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown dynamics {cfg.dynamics!r}; choose double_integrator, pendulum, or linear"
    )


def _write_trajectory_csv(path, loop: LoopAudit, blowup: bool) -> None:
    """One row per visited state; a blow-up adds a ``blowup`` sentinel row."""
    state_dim, action_dim = loop.states.shape[1], loop.actions.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(state_dim)]
        + [f"u{i}" for i in range(action_dim)]
        + ["deviation", "bound", "in_ball"]
    )
    columns = zip(
        loop.states.tolist(),
        loop.actions.tolist(),
        loop.deviation.tolist(),
        loop.bound.tolist(),
        loop.in_ball.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [t, *map(repr, x), *map(repr, u), repr(dev), repr(bound), int(inside)]
            for t, (x, u, dev, bound, inside) in enumerate(columns)
        )
        if blowup:
            writer.writerow(
                [len(loop.deviation)]
                + ["nan"] * (state_dim + action_dim + 2)
                + ["blowup"]
            )


def cmd_simulate(cfg: RunConfig) -> int:
    original = _load_policy_file(cfg.model)
    if cfg.pruned is None:
        raise UsageError("simulate needs --pruned")
    pruned = _load_policy_file(cfg.pruned)
    if cfg.certificate is None:
        raise UsageError("simulate needs --certificate (from the certify command)")
    cert = _load_certificate_file(cfg.certificate)
    d = _dynamics(cfg)
    if cfg.x0 is None:
        raise UsageError("simulate needs --x0")
    if cfg.horizon is None or cfg.horizon < 1:
        raise UsageError("horizon must be at least 1")
    try:
        # an overflowing loop is a blow-up, and the report records it
        with np.errstate(over="ignore"):
            report = deviation_audit(d, original, pruned, cert, np.asarray(cfg.x0), cfg.horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _outdir(cfg)
    for loop in report.loops:
        _write_trajectory_csv(
            out / f"trajectory_{loop.label}.csv",
            loop,
            blowup=report.blowup is not None and report.blowup[0] == loop.label,
        )
    _write_json(
        out / "deviation_report.json",
        {
            "dynamics": cfg.dynamics,
            "horizon": cfg.horizon,
            "budget": report.budget,
            "radius": report.radius,
            "in_ball_count": report.in_ball_count,
            "out_of_ball_count": report.out_of_ball_count,
            "in_ball_violations": report.in_ball_violations,
            "max_in_ball_deviation": report.max_in_ball_deviation,
            "max_divergence_observed_uncertified": report.max_divergence,
            "blowup": None
            if report.blowup is None
            else {"trajectory": report.blowup[0], "t": report.blowup[1]},
            "holds_along_visited_states": report.in_ball_violations == 0,
            "timestamp": _timestamp(),
        },
    )
    print(
        f"max certified deviation {report.max_in_ball_deviation:.6g} "
        f"vs budget {report.budget:.6g}; "
        f"violations={report.in_ball_violations} "
        f"out_of_ball={report.out_of_ball_count}"
    )
    print(f"wrote trajectory CSVs and {out / 'deviation_report.json'}")
    if report.blowup is not None:
        print(
            f"error: {report.blowup[0]} trajectory blew up at t={report.blowup[1]}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    return EXIT_OK if report.in_ball_violations == 0 else EXIT_VIOLATION


def cmd_report(cfg: RunConfig) -> int:
    if not cfg.paths:
        raise UsageError("report needs at least one certificate file")
    entries = []
    for path in cfg.paths:
        cert = _load_certificate_file(path)
        a = cert.audit
        entries.append(
            {
                "path": str(path),
                "budget": cert.budget,
                "radius": cert.radius,
                "holds": cert.holds,
                "samples": a.samples,
                "max_dev": a.max_dev,
                "violations": a.violations,
            }
        )
    summary = {
        "certificates": entries,
        "count": len(entries),
        "all_hold": all(e["holds"] for e in entries),
        "max_budget": max(e["budget"] for e in entries),
        "total_violations": sum(e["violations"] for e in entries),
        "timestamp": _timestamp(),
    }
    out = _outdir(cfg)
    _write_json(out / "summary.json", summary)
    print(
        f"{summary['count']} certificates, all_hold={summary['all_hold']}, "
        f"max_budget={summary['max_budget']:.6g}"
    )
    print(f"wrote {out / 'summary.json'}")
    return EXIT_OK if summary["all_hold"] else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any "-<digit>" or "-.<digit>" token is a value, as in Python 3.13,
        # so comma lists such as "--x0 -0.5,0" parse like the lone "-0.5"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # map argparse's default exit(2) onto exit 1
        raise UsageError(message)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--seed", type=int, help="run seed (default 0)")
    sp.add_argument("--out", help=f"output directory (default ${ENV_OUTDIR} or '.')")


def _add_space(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--radius", type=float, help="certified state-ball radius")
    sp.add_argument("--box-lo", dest="box_lo", help="box low bounds, comma separated")
    sp.add_argument("--box-hi", dest="box_hi", help="box high bounds, comma separated")
    sp.add_argument(
        "--states", help="CSV of validation states; radius taken as their max norm"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prunecert",
        description="Prune MLP control policies and certify the control-signal deviation.",
    )
    parser.add_argument("--version", action="version", version=f"prunecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="rank weights and write a pruned model + plan")
    p.add_argument("--model", help="original model JSON")
    p.add_argument("--calibration", help="CSV of calibration states, one per row")
    p.add_argument("--layers", help="layer indices to prune, comma separated (default all)")
    p.add_argument("--sparsity", type=float, help="fraction of selected weights to prune")
    p.add_argument("--epsilon", type=float, help="control-error budget (inverse mode)")
    p.add_argument("--compensate", action="store_true", default=None,
                   help="adjust surviving row entries after each removal")
    p.add_argument("--diagonal", action="store_true", default=None,
                   help="use the diagonal curvature approximation")
    p.add_argument("--reestimate", action="store_true", default=None,
                   help="refresh the row inverse after each compensated removal")
    p.add_argument("--damping", help="Hessian damping: a number or 'auto' (default auto)")
    p.add_argument("--allocation", choices=["uniform", "proportional"],
                   help="how an epsilon budget is split across layers")
    p.add_argument("--allocation-weights", dest="allocation_weights",
                   help="weights for proportional allocation, comma separated")
    _add_space(p)
    _add_common(p)
    p.set_defaults(func=cmd_prune)

    for name, func, extra_help in (
        ("certify", cmd_certify, "compute the budget and audit it"),
        ("verify", cmd_verify, "audit an existing (original, pruned) pair only"),
    ):
        c = sub.add_parser(name, help=extra_help)
        c.add_argument("--model", help="original model JSON")
        c.add_argument("--pruned", help="pruned model JSON")
        c.add_argument("--samples", type=int, help="audit sample count (default 10000)")
        _add_space(c)
        _add_common(c)
        c.set_defaults(func=func)

    s = sub.add_parser("simulate", help="closed-loop run with per-state bound checks")
    s.add_argument("--model", help="original model JSON")
    s.add_argument("--pruned", help="pruned model JSON")
    s.add_argument("--certificate", help="certificate JSON from the certify command")
    s.add_argument("--dynamics", help="double_integrator, pendulum, or linear")
    s.add_argument("--system", help="JSON file with A and B for linear dynamics")
    s.add_argument("--x0", help="initial state, comma separated")
    s.add_argument("--horizon", type=int, help="number of steps (>= 1)")
    s.add_argument("--dt", type=float, help="integrator step size")
    s.add_argument("--gravity", type=float, help="pendulum gravity")
    s.add_argument("--length", type=float, help="pendulum length")
    s.add_argument("--mass", type=float, help="pendulum mass")
    s.add_argument("--action-limit", dest="action_limit", type=float,
                   help="symmetric action clip applied before integration")
    s.add_argument("--state-box-lo", dest="state_box_lo",
                   help="state clip box low bounds, comma separated")
    s.add_argument("--state-box-hi", dest="state_box_hi",
                   help="state clip box high bounds, comma separated")
    _add_common(s)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="merge certificates into one summary")
    r.add_argument("paths", nargs="*", help="certificate JSON files")
    _add_common(r)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
