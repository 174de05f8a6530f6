"""Command-line front end: prune, certify, simulate, report.

Every run option is one row of ``OPTIONS``: its parser, default, commands
and help.  Each command's flags are generated from that table, and a flag's
text and a config file's value go through the same parser, so both accept
the same values in the same ranges.  One config seed feeds every random
draw through named substreams, so a single number reproduces a full run.
All emitted JSON is canonical (sorted keys, two-space indent) and floats
round-trip exactly; reports are byte-identical across reruns except for
their timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
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
    certify,
)
from prunecert.controlsim import (
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
    collect_calibration,
    prune_to_budget,
    rank_weights,
    uncapped_head,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# substream tag hanging off the config seed
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
    """Serialize a certificate with its audit evidence."""
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
# run options: one table row per option, read by flags and config files alike
# ---------------------------------------------------------------------------

def _text(value, key: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise UsageError(f"{key}: expected a string, got {value!r}")
    return value


def _number(kind, low=None, high=None):
    """Parser of one ``kind`` number in ``[low, high]``; ``None`` passes.

    A flag gives the number's text; a config file may give the number itself
    or its text.  Booleans, and fractional numbers where an integer is
    wanted, are rejected.
    """

    def parse(value, key: str):
        if value is None:
            return None
        try:
            # type(), not isinstance(): a JSON true is no number
            v = kind(value) if isinstance(value, str) or type(value) in (int, kind) else None
        except (ValueError, OverflowError):
            v = None
        if v is None:
            raise UsageError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}")
        if (low is not None and not v >= low) or (high is not None and not v <= high):
            span = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise UsageError(f"{key}: must be {span}, got {v}")
        return v

    return parse


def _numbers(kind):
    """Parser of a comma-separated string or a JSON list of ``kind`` numbers."""
    item = _number(kind)

    def parse(value, key: str) -> tuple | None:
        items = value.split(",") if isinstance(value, str) else value
        if items is not None and (not isinstance(items, list) or None in items):
            raise UsageError(f"{key}: expected a comma-separated list, got {value!r}")
        return None if items is None else tuple(item(v, key) for v in items)

    return parse


def _choice(*names: str):
    def parse(value, key: str):
        if value is not None and value not in names:
            raise UsageError(f"{key}: expected one of {', '.join(names)}, got {value!r}")
        return value

    return parse


def _switch(value, key: str) -> bool:
    """A store-true flag; a config file must give a JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise UsageError(f"{key}: expected true or false, got {value!r}")
    return value


def _damping(value, key: str) -> float | str:
    if isinstance(value, str) and value.strip() == "auto":
        return "auto"
    try:
        return _number(float, 0.0)(value, key)
    except UsageError as exc:
        raise UsageError(f"{key}: expected a number >= 0 or 'auto', got {value!r}") from exc


def _paths(value, key: str) -> tuple[str, ...]:
    """Report's positional file names; a config file gives a JSON list."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise UsageError(f"{key}: expected a list of file names, got {value!r}")
    return tuple(value)


_ALL = ("prune", "certify", "simulate", "report")
_PRUNE, _AUDIT, _SIM = ("prune",), ("certify",), ("simulate",)
_SPACE = _PRUNE + _AUDIT

# key -> (parse, default, commands, help): the one list of run options.  The
# flag is --key with "-" for "_" and a config file uses the key; parse turns
# the flag's text, else the config value, else the default into the value.
OPTIONS = {
    "model": (_text, None, _SPACE + _SIM, "original model JSON"),
    "pruned": (_text, None, _AUDIT + _SIM, "pruned model JSON"),
    "certificate": (_text, None, _SIM, "certificate JSON from the certify command"),
    "calibration": (_text, None, _PRUNE, "CSV of calibration states, one per row"),
    "layers": (_numbers(int), None, _PRUNE,
               "layer indices to prune, comma separated (default all)"),
    "sparsity": (_number(float, 0.0, 1.0), None, _PRUNE,
                 "fraction of selected weights to prune"),
    "epsilon": (_number(float, 0.0), None, _PRUNE,
                "control-error budget (inverse mode); inf caps nothing"),
    "compensate": (_switch, False, _PRUNE, "adjust surviving row entries after each removal"),
    "diagonal": (_switch, False, _PRUNE, "use the diagonal curvature approximation"),
    "reestimate": (_switch, False, _PRUNE,
                   "refresh the row inverse after each removal (needs --compensate)"),
    # ReLU activations routinely leave rank-deficient curvature blocks, so
    # the CLI defaults to relative auto-damping rather than none
    "damping": (_damping, "auto", _PRUNE, "Hessian damping: a number or 'auto' (default auto)"),
    "allocation_weights": (_numbers(float), None, _PRUNE,
                           "split the epsilon budget in proportion to these per-layer "
                           "weights, comma separated (default an even split)"),
    "samples": (_number(int, 1), 10_000, _AUDIT, "audit sample count (default 10000)"),
    "radius": (_number(float), None, _SPACE, "certified state-ball radius"),
    "box_lo": (_numbers(float), None, _SPACE, "box low bounds, comma separated"),
    "box_hi": (_numbers(float), None, _SPACE, "box high bounds, comma separated"),
    "states": (_text, None, _SPACE, "CSV of validation states; radius taken as their max norm"),
    "dynamics": (_choice("double_integrator", "pendulum", "linear"), None, _SIM,
                 "double_integrator, pendulum, or linear"),
    "system": (_text, None, _SIM, "JSON file with A and B for linear dynamics"),
    "x0": (_numbers(float), None, _SIM, "initial state, comma separated"),
    "horizon": (_number(int, 1), None, _SIM, "number of steps (>= 1)"),
    "dt": (_number(float), None, _SIM, "integrator step size"),
    "gravity": (_number(float), 9.81, _SIM, "pendulum gravity"),
    "length": (_number(float), 1.0, _SIM, "pendulum length"),
    "mass": (_number(float), 1.0, _SIM, "pendulum mass"),
    "action_limit": (_number(float), None, _SIM,
                     "symmetric action clip applied before integration"),
    "state_box_lo": (_numbers(float), None, _SIM, "state clip box low bounds, comma separated"),
    "state_box_hi": (_numbers(float), None, _SIM, "state clip box high bounds, comma separated"),
    "paths": (_paths, (), ("report",), "certificate JSON files"),
    "seed": (_number(int, 0), 0, _ALL, "run seed (default 0)"),
    "out": (_text, None, _ALL, f"output directory (default ${ENV_OUTDIR} or '.')"),
}


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options, each from its row's ``parse`` of the flag's
    text, else of the config file's value, else of the default.

    A config key that names no option is an error.  Keys of other commands
    are accepted and left unparsed, so one file can serve a whole pipeline.
    """
    file_cfg = {}
    if args.config is not None:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(OPTIONS))
        if unknown:
            raise UsageError(
                f"{args.config}: unknown config key {', '.join(map(repr, unknown))}"
            )
    cfg = argparse.Namespace()
    for key, (parse, default, commands, _) in OPTIONS.items():
        if args.command in commands:
            value = getattr(args, key)
            if value is None or value == []:  # an unset flag, or no report paths
                value = file_cfg.get(key)
            if value is None:
                value = default
            setattr(cfg, key, parse(value, key))
    return cfg


def _state_space(cfg: argparse.Namespace, dim: int) -> StateSpaceSpec:
    try:
        if cfg.states is not None:
            given = [k for k in ("radius", "box_lo", "box_hi") if getattr(cfg, k) is not None]
            if given:
                flags = ", ".join(f"--{k.replace('_', '-')}" for k in given)
                raise UsageError(f"--states takes the radius from its states; drop {flags}")
            return StateSpaceSpec.from_states(_load_states_csv(cfg.states, dim))
        radius, box = cfg.radius, linalg.as_box((cfg.box_lo, cfg.box_hi), dim)
        if box is not None and radius is None:
            # tightest ball containing the box
            radius = float(linalg.vector_norm(np.maximum(np.abs(box[0]), np.abs(box[1]))))
        if radius is None:
            raise UsageError("provide --radius, --box-lo/--box-hi, or --states")
        return StateSpaceSpec(dim=dim, radius=float(radius), box=box)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _outdir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out if cfg.out is not None else os.environ.get(ENV_OUTDIR, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _plan_dict(plan: PrunePlan, taken: dict[int, Ranking], cfg: argparse.Namespace) -> dict:
    layers = []
    for lp in plan.layers:
        layers.append(
            {
                "k": lp.layer,
                "mask": lp.mask.tolist(),
                "saliencies": taken[lp.layer].saliency.tolist(),
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


def cmd_prune(cfg: argparse.Namespace) -> int:
    if (cfg.sparsity is None) == (cfg.epsilon is None):
        raise UsageError("set exactly one of --sparsity or --epsilon")
    if cfg.allocation_weights is not None and cfg.epsilon is None:
        raise UsageError("--allocation-weights splits an --epsilon budget")
    if cfg.reestimate and not cfg.compensate:
        raise UsageError("--reestimate refreshes --compensate's inverse; it needs --compensate")
    p = _load_policy_file(cfg.model)
    if cfg.calibration is None:
        raise UsageError("prune needs --calibration (CSV of states, one per row)")
    layers = cfg.layers if cfg.layers is not None else tuple(range(p.num_layers))
    try:
        if cfg.epsilon is not None:
            caps = admissible_magnitude(
                p, layers, cfg.epsilon, _state_space(cfg, p.input_dim), cfg.allocation_weights
            )
        calib = collect_calibration(p, _load_states_csv(cfg.calibration, p.input_dim))
        ranking = rank_weights(p, calib, layers, damping=cfg.damping, diagonal=cfg.diagonal)
        if cfg.sparsity is not None:
            # sparsity mode is the walk without a cap, over the ranking's head
            ranking, caps = uncapped_head(ranking, int(round(cfg.sparsity * len(ranking))))
        pruned, plan, taken = prune_to_budget(
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
    _write_json(out / "prune_plan.json", _plan_dict(plan, taken, cfg))
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


def cmd_certify(cfg: argparse.Namespace) -> int:
    original = _load_policy_file(cfg.model)
    if cfg.pruned is None:
        raise UsageError("certification needs --pruned (the pruned model file)")
    pruned = _load_policy_file(cfg.pruned)
    space = _state_space(cfg, original.input_dim)
    try:
        cert = certify(original, pruned, space, cfg.samples, derive_seed(cfg.seed, STREAM_AUDIT))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _outdir(cfg)
    _write_json(out / "certificate.json", certificate_to_dict(cert))
    _print_certificate(cert)
    print(f"wrote {out / 'certificate.json'}")
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def _dynamics(cfg: argparse.Namespace):
    if cfg.dynamics is None:
        raise UsageError("simulate needs --dynamics")
    # the dynamics check the box, once they know their state dimension
    state_box = (cfg.state_box_lo, cfg.state_box_hi)
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


def cmd_simulate(cfg: argparse.Namespace) -> int:
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
    if cfg.horizon is None:
        raise UsageError("simulate needs --horizon")
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


def cmd_report(cfg: argparse.Namespace) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, its flags generated from ``OPTIONS``.

    Flags carry no ``type=`` or ``choices=``: argparse hands over the raw
    text, and ``build_config`` parses it as it parses a config value.
    """
    parser = _Parser(
        prog="prunecert",
        description="Prune MLP control policies and certify the control-signal deviation.",
    )
    parser.add_argument("--version", action="version", version=f"prunecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the commands are looked up per call, so a wrapper bound over a
    # cmd_* name (as the benchmark's tracer binds one) is the one that runs
    for command, func, summary in (
        ("prune", cmd_prune, "rank weights and write a pruned model + plan"),
        ("certify", cmd_certify, "compute the budget and audit it"),
        ("simulate", cmd_simulate, "closed-loop run with per-state bound checks"),
        ("report", cmd_report, "merge certificates into one summary"),
    ):
        sp = sub.add_parser(command, help=summary)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        for key, (parse, _, commands, text) in OPTIONS.items():
            if command not in commands:
                continue
            flag = f"--{key.replace('_', '-')}"
            if parse is _paths:
                sp.add_argument(key, nargs="*", help=text)
            elif parse is _switch:
                sp.add_argument(flag, action="store_true", default=None, help=text)
            else:
                sp.add_argument(flag, help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(build_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
