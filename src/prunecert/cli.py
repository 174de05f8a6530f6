"""Command-line front end: prune, certify, simulate, report.

Every run option is one row of ``OPTIONS``: its parser, default, commands
and help.  Each command's flags are generated from that table, and a flag's
text and a config file's value go through the same parser, so both accept
the same values in the same ranges.  One config seed feeds every random
draw through named substreams, so a single number reproduces a full run.
All emitted JSON is canonical (sorted keys, two-space indent) and floats
round-trip exactly; reports are byte-identical across reruns except for
their timestamp field.  ``main`` is the one boundary to the library: any
``ValueError``, and any ``MemoryError`` from a request too big to allocate,
is one ``error:`` line and exit 1, and no command prints a numpy
floating-point warning, since overflow and NaN show in the artifacts and
the exit code instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from prunecert import __version__
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
from prunecert.policy import (
    _choice, _fields, _list, _number, _numbers, _read_json, _rows, _switch, _value, _write_json,
    load_policy, save_policy,
)
from prunecert.pruner import (
    PrunePlan,
    Ranking,
    collect_calibration,
    prune_to_budget,
    rank_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# substream tag hanging off the config seed
STREAM_AUDIT = 2

ENV_OUTDIR = "PRUNECERT_OUTDIR"


class UsageError(ValueError):
    """Bad flags, unreadable files, malformed inputs: exit code 1, as is
    every ``ValueError`` the library raises on the inputs."""


def derive_seed(seed: int, stream: int) -> int:
    """Deterministic child seed for a named substream of the run seed."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _read(path, parse):
    """``parse(path)``; a file that cannot be opened or parsed is one usage
    error, which names the file once."""
    try:
        return parse(path)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _write(path, write, *args) -> None:
    """``write(path, *args)``; an artifact that cannot be written is one
    usage error, which names its path."""
    try:
        write(path, *args)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise UsageError(f"{path}: cannot write ({getattr(exc, 'strerror', None) or exc})") from exc


def _load_states_csv(path, expected_dim: int) -> np.ndarray:
    def parse(path) -> np.ndarray:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is the error below
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
        if data.size == 0:
            raise ValueError("no states found")
        if data.shape[1] != expected_dim:
            raise ValueError(
                f"states have {data.shape[1]} columns but the model expects {expected_dim}"
            )
        if not np.isfinite(data).all():
            raise ValueError("states contain non-finite values")
        return data

    return _read(path, parse)


# ---------------------------------------------------------------------------
# certificate JSON schema
# ---------------------------------------------------------------------------

# key -> (parse, fallback) for ``policy._fields``, one row per certificate
# field for its reader and writer alike.  A fallback fills a field older
# certificates lack; None is no fallback.
_CERT = {
    "layers": (_list(), None),
    "budget": (_number(float, 0.0), None),
    "radius": (_number(float, 0.0), None),
    "radius_source": (_choice("radius", "states"), "radius"),
    "audit": (_value, None),  # read by the _CERT_AUDIT table
    "holds": (_switch, None),  # required, though ``Certificate.holds`` derives it
}
_CERT_ROW = {
    "k": (_number(int, 0), None),
    "c_max": (_number(float), None),
    "delta_spectral": (_number(float), None),
    "contribution": (_number(float), None),
}
_CERT_AUDIT = {
    "samples": (_number(int, 1), None),
    "max_dev": (_number(float), None),
    "mean_dev": (_number(float), lambda got: got["max_dev"]),
    "violations": (_number(int, 0), None),
    "tightness": (_number(float), 0.0),
    "margin": (_number(float), lambda got: got["budget"] - got["max_dev"]),
    "seed": (_number(int, 0), None),
}

# certificate key -> the attribute that holds it, where the two differ
_ATTRS = {"layers": "rows", "k": "layer"}


def _attrs(obj, table: dict) -> dict:
    return {key: getattr(obj, _ATTRS.get(key, key)) for key in table}


def _named(make, got: dict):
    return make(**{_ATTRS.get(key, key): value for key, value in got.items()})


def certificate_to_dict(cert: Certificate) -> dict:
    """Serialize a certificate with its audit evidence."""
    return {
        **_attrs(cert, _CERT),
        "layers": [_attrs(r, _CERT_ROW) for r in cert.rows],
        "audit": _attrs(cert.audit, _CERT_AUDIT),
        "timestamp": _timestamp(),
    }


def certificate_from_dict(d) -> Certificate:
    """Parse the certificate schema back into a Certificate, each field by
    its table row; a field that breaks its row is an error that names it."""
    got = _fields(d, "", _CERT, {})
    del got["holds"]
    got["layers"] = tuple(
        _named(CertificateRow, _fields(r, f"layers[{i}].", _CERT_ROW, got))
        for i, r in enumerate(got["layers"])
    )
    got["audit"] = _named(AuditSummary, _fields(got["audit"], "audit.", _CERT_AUDIT, got))
    return _named(Certificate, got)


def _certificate(path) -> Certificate:
    return certificate_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# run options: one table row per option, read by flags and config files alike
# ---------------------------------------------------------------------------

def _text(value, key: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key}: expected a string, got {value!r}")
    return value


def _damping(value, key: str) -> float | str:
    if isinstance(value, str) and value.strip() == "auto":
        return "auto"
    try:
        return _number(float, 0.0, sys.float_info.max)(value, key)
    except ValueError as exc:
        raise ValueError(f"{key}: expected a finite number >= 0 or 'auto', got {value!r}") from exc


def _paths(value, key: str) -> tuple[str, ...]:
    """Report's positional file names; a config file gives a JSON list."""
    if not value or not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{key}: expected a nonempty list of file names, got {value!r}")
    return tuple(value)


def _flags(keys) -> str:
    return ", ".join(f"--{key.replace('_', '-')}" for key in keys)


# the default of an option its commands cannot run without
REQUIRED = object()

# --dynamics name -> (class, the options it takes besides --action-limit and
# the state box); an option left unset keeps the class's own default
_DYNAMICS = {
    "double_integrator": (DoubleIntegrator, ("dt",)),
    "pendulum": (Pendulum, ("dt", "gravity", "length", "mass")),
    "linear": (LinearSystem, ("system",)),
}

_ALL = ("prune", "certify", "simulate", "report")
_PRUNE, _AUDIT, _SIM = ("prune",), ("certify",), ("simulate",)
_SPACE = _PRUNE + _AUDIT

# key -> (parse, default, commands, help): the one list of run options.  The
# flag is --key with "-" for "_" and a config file uses the key; parse turns
# the flag's text, else the config value, else the default into the value.
OPTIONS = {
    "model": (_text, REQUIRED, _SPACE + _SIM, "original model JSON"),
    "pruned": (_text, REQUIRED, _AUDIT + _SIM, "pruned model JSON"),
    "certificate": (_text, REQUIRED, _SIM, "certificate JSON from the certify command"),
    "calibration": (_text, REQUIRED, _PRUNE, "CSV of calibration states, one per row"),
    "layers": (_numbers(int), None, _PRUNE,
               "layer indices to prune, comma separated (default all)"),
    "sparsity": (_number(float, 0.0, 1.0), None, _PRUNE,
                 "fraction of the selected nonzero weights to prune"),
    "epsilon": (_number(float, 0.0), None, _PRUNE,
                "control-error budget (inverse mode); inf caps nothing"),
    "compensate": (_switch, False, _PRUNE,
                   "re-fit each pruned row's surviving weights over its removed set"),
    "diagonal": (_switch, False, _PRUNE, "use the diagonal curvature approximation"),
    # ReLU activations routinely leave rank-deficient curvature blocks, so
    # the CLI defaults to relative auto-damping rather than none
    "damping": (_damping, "auto", _PRUNE, "Hessian damping: a number or 'auto' (default auto)"),
    "samples": (_number(int, 1), 10_000, _AUDIT, "audit sample count (default 10000)"),
    "radius": (_number(float), None, _SPACE, "certified state-ball radius"),
    "box_lo": (_numbers(float), None, _SPACE, "box low bounds, comma separated"),
    "box_hi": (_numbers(float), None, _SPACE, "box high bounds, comma separated"),
    "states": (_text, None, _SPACE, "CSV of validation states; radius taken as their max norm"),
    "dynamics": (_choice(*_DYNAMICS), REQUIRED, _SIM, ", ".join(_DYNAMICS)),
    "system": (_text, None, _SIM, "JSON file with A and B for linear dynamics"),
    "x0": (_numbers(float), REQUIRED, _SIM, "initial state, comma separated"),
    "horizon": (_number(int, 1), REQUIRED, _SIM, "number of steps (>= 1)"),
    "dt": (_number(float), None, _SIM, "double_integrator or pendulum step size"),
    "gravity": (_number(float), None, _SIM, "pendulum gravity"),
    "length": (_number(float), None, _SIM, "pendulum length"),
    "mass": (_number(float), None, _SIM, "pendulum mass"),
    "action_limit": (_number(float), None, _SIM,
                     "symmetric action clip applied before integration"),
    "state_box_lo": (_numbers(float), None, _SIM, "state clip box low bounds, comma separated"),
    "state_box_hi": (_numbers(float), None, _SIM, "state clip box high bounds, comma separated"),
    "paths": (_paths, REQUIRED, ("report",), "certificate JSON files"),
    "seed": (_number(int, 0), 0, _ALL, "run seed (default 0)"),
    "out": (_text, None, _ALL, f"output directory (default ${ENV_OUTDIR} or '.')"),
}


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options, each from its row's ``parse`` of the flag's
    text, else of the config file's value, else of the default.

    A config key that names no option is an error, and so is a ``REQUIRED``
    option that neither gives.  Keys of other commands are accepted and left
    unparsed, so one file can serve a whole pipeline.
    """
    file_cfg = {}
    if args.config is not None:
        file_cfg = _read(args.config, _read_json)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(OPTIONS))
        if unknown:
            raise UsageError(
                f"{args.config}: unknown config key {', '.join(map(repr, unknown))}"
            )
    # flagged: the options given as flags rather than by the config file
    cfg = argparse.Namespace(flagged=set())
    for key, (parse, default, commands, _) in OPTIONS.items():
        if args.command in commands:
            value = getattr(args, key)
            if value is None or value == []:  # an unset flag, or no report paths
                value = file_cfg.get(key)
            else:
                cfg.flagged.add(key)
            if value is None:
                value = default
            if value is REQUIRED:
                what = "at least one certificate file" if parse is _paths else _flags([key])
                raise UsageError(f"{args.command} needs {what}")
            setattr(cfg, key, parse(value, key))
    return cfg


def _state_space(cfg: argparse.Namespace, dim: int) -> StateSpaceSpec:
    if cfg.states is None:
        return StateSpaceSpec(dim=dim, radius=cfg.radius, box=(cfg.box_lo, cfg.box_hi))
    given = [k for k in ("radius", "box_lo", "box_hi") if getattr(cfg, k) is not None]
    if given:
        raise UsageError(f"--states takes the radius from its states; drop {_flags(given)}")
    return StateSpaceSpec.from_states(_load_states_csv(cfg.states, dim))


def _outdir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out if cfg.out is not None else os.environ.get(ENV_OUTDIR, "."))
    _write(out, lambda path: path.mkdir(parents=True, exist_ok=True))
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _plan_dict(plan: PrunePlan, ranking: Ranking, cfg: argparse.Namespace) -> dict:
    """One row per pruned layer, its saliencies read off the ranking's head."""
    layers = []
    for lp in plan.layers:
        saliency = ranking.saliency[ranking.layer == lp.layer][: len(lp.mask)].tolist()
        layers.append(
            {
                "k": lp.layer,
                "removed": len(lp.mask),
                "saliency_sum": math.fsum(saliency),
                "saliency_max": max(saliency, default=0.0),
                "delta_spectral": lp.delta_spectral_norm,
                "compensated": lp.compensated,
            }
        )
    return {
        "layers": layers,
        "pruned_weights": sum(layer["removed"] for layer in layers),
        "damping": cfg.damping,
        "seed": cfg.seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }


def cmd_prune(cfg: argparse.Namespace) -> int:
    if (cfg.sparsity is None) == (cfg.epsilon is None):
        raise UsageError("set exactly one of --sparsity or --epsilon")
    if cfg.sparsity is not None:
        # a config file's state space may be certify's; a flag's is prune's
        dead = [k for k in ("radius", "box_lo", "box_hi", "states") if k in cfg.flagged]
        if dead:
            raise UsageError(f"--sparsity takes no {_flags(dead)}; an --epsilon budget uses them")
    p = _read(cfg.model, load_policy)
    layers = cfg.layers if cfg.layers is not None else tuple(range(p.num_layers))
    caps = None  # sparsity mode: the walk without a cap, over the ranking's head
    if cfg.epsilon is not None:
        caps = admissible_magnitude(p, layers, cfg.epsilon, _state_space(cfg, p.input_dim))
    calib = collect_calibration(p, _load_states_csv(cfg.calibration, p.input_dim))
    ranking = rank_weights(p, calib, layers, damping=cfg.damping, diagonal=cfg.diagonal)
    if cfg.sparsity is not None:
        ranking = ranking[: round(cfg.sparsity * len(ranking))]
    pruned, plan = prune_to_budget(
        p, ranking, caps, compensate=cfg.compensate, damping=cfg.damping, calib=calib
    )
    out = _outdir(cfg)
    _write(out / "pruned_model.json", lambda path: save_policy(pruned, path))
    plan_dict = _plan_dict(plan, ranking, cfg)
    _write(out / "prune_plan.json", _write_json, plan_dict)
    print(f"pruned {plan_dict['pruned_weights']} weights across layers "
          f"{[lp.layer for lp in plan.layers]}")
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
    original = _read(cfg.model, load_policy)
    pruned = _read(cfg.pruned, load_policy)
    space = _state_space(cfg, original.input_dim)
    cert = certify(original, pruned, space, cfg.samples, derive_seed(cfg.seed, STREAM_AUDIT))
    out = _outdir(cfg)
    _write(out / "certificate.json", _write_json, certificate_to_dict(cert))
    _print_certificate(cert)
    print(f"wrote {out / 'certificate.json'}")
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def _linear_system(path) -> dict:
    got = _fields(_read_json(path), "", {"A": (_rows, None), "B": (_rows, None)}, {})
    return {"a": got["A"], "b": got["B"]}


def _dynamics(cfg: argparse.Namespace):
    cls, takes = _DYNAMICS[cfg.dynamics]
    given = {key: getattr(cfg, key) for _, keys in _DYNAMICS.values() for key in keys}
    given = {key: value for key, value in given.items() if value is not None}
    foreign = [key for key in given if key not in takes]
    if foreign:
        raise UsageError(f"--dynamics {cfg.dynamics} takes no {_flags(foreign)}")
    if cls is LinearSystem:
        if cfg.system is None:
            raise UsageError("linear dynamics need --system (JSON with A and B)")
        given = _read(cfg.system, _linear_system)
    # the dynamics check the box, once they know their state dimension
    return cls(**given, action_limit=cfg.action_limit,
               state_box=(cfg.state_box_lo, cfg.state_box_hi))


def _write_trajectory_csv(path, loop: LoopAudit, blowup: bool) -> None:
    """One row per visited state, floats as ``repr`` and ``\\r\\n`` line ends
    (the ``csv`` module's dialect); a blow-up adds a ``blowup`` sentinel row.

    Each distinct state's cells are formatted once: a repeated state's row is
    its own ``t`` and then its source row's text, kept for the cycle's rows
    only.  The cells are read column by column, one ``tolist`` per column,
    and each row is one ``%`` of the row's format over a ``zip`` of them."""
    names = [f"x{i}" for i in range(loop.states.shape[1])]
    names += [f"u{i}" for i in range(loop.actions.shape[1])]
    floats = len(names) + 2  # state, action, deviation and bound cells
    cells = ",%r" * floats + ",%d\r\n"
    distinct = loop.distinct
    # rows before the cycle stream out; the cycle's are formatted and kept
    cycle = distinct if loop.source is None else int(loop.source[distinct])
    columns = [
        iter(column)
        for column in (
            *loop.states[:distinct].T.tolist(),
            *loop.actions[:distinct].T.tolist(),
            loop.deviation[:distinct].tolist(),
            loop.bound[:distinct].tolist(),
            loop.in_ball[:distinct].tolist(),
        )
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t", *names, "deviation", "bound", "in_ball"]) + "\r\n")
        # zip takes from range first, so the cycle's first row stays in columns
        fh.writelines(map(("%d" + cells).__mod__, zip(range(cycle), *columns)))
        if loop.source is not None:
            text = list(map(cells.__mod__, zip(*columns)))
            fh.writelines(
                f"{t}{text[j - cycle]}" for t, j in enumerate(loop.source[cycle:].tolist(), cycle)
            )
        if blowup:
            fh.write(f"{len(loop.deviation)}{',nan' * floats},blowup\r\n")


def cmd_simulate(cfg: argparse.Namespace) -> int:
    original = _read(cfg.model, load_policy)
    pruned = _read(cfg.pruned, load_policy)
    cert = _read(cfg.certificate, _certificate)
    d = _dynamics(cfg)
    report = deviation_audit(d, original, pruned, cert, np.asarray(cfg.x0), cfg.horizon)
    out = _outdir(cfg)
    for loop in report.loops:
        _write(
            out / f"trajectory_{loop.label}.csv",
            _write_trajectory_csv,
            loop,
            report.blowup is not None and report.blowup[0] == loop.label,
        )
    _write(
        out / "deviation_report.json",
        _write_json,
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
    entries = []
    for path in cfg.paths:
        cert = _read(path, _certificate)
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
    _write(out / "summary.json", _write_json, summary)
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
            if parse is _paths:
                sp.add_argument(key, nargs="*", help=text)
            elif parse is _switch:
                sp.add_argument(_flags([key]), action="store_true", default=None, help=text)
            else:
                sp.add_argument(_flags([key]), help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(build_config(args))
    except (ValueError, MemoryError) as exc:
        # one line, whatever a path in the message holds: "\n" prints as \n
        text = str(exc) or "out of memory"
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
