"""Every artifact's schema: the fields of each JSON file prunecert reads or
writes, one parser per value type, the one reader and the one writer.

Each field is one table row.  A file that is read back (a model, a
certificate, a ``--system`` file) has tables of ``key -> (parse, fallback,
attribute)`` rows: ``_fields`` reads an object through one, and ``_dump``
writes one from the attributes of the object it describes.  The plan, the
deviation report and the summary are written only, each as one dict whose
entries are its rows.  ``schema`` imports no other module of the package:
it returns parsed fields, and ``policy`` and ``certifier`` build their
objects from them.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path


def _number(kind, low=None, high=None):
    """Parser of one ``kind`` number in ``[low, high]``; ``None`` passes.

    The value may be the number itself or its text, so "NaN" and "Infinity"
    read as floats.  Booleans, and fractional numbers where an integer is
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
            raise ValueError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}")
        if (low is not None and not v >= low) or (high is not None and not v <= high):
            span = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{key}: must be {span}, got {v}")
        return v

    return parse


def _numbers(kind):
    """Parser of a comma-separated string or a JSON list of ``kind`` numbers."""
    item = _number(kind)

    def parse(value, key: str) -> tuple | None:
        items = value.split(",") if isinstance(value, str) else value
        if items is not None and (not isinstance(items, list) or None in items):
            raise ValueError(f"{key}: expected a comma-separated list, got {value!r}")
        return None if items is None else tuple(item(v, key) for v in items)

    return parse


def _choice(*names: str):
    def parse(value, key: str):
        if value is not None and value not in names:
            raise ValueError(f"{key}: expected one of {', '.join(names)}, got {value!r}")
        return value

    return parse


def _switch(value, key: str) -> bool:
    """A JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise ValueError(f"{key}: expected true or false, got {value!r}")
    return value


def _list(nonempty: bool = False):
    def parse(value, key: str) -> list:
        if not isinstance(value, list) or (nonempty and not value):
            raise ValueError(f"{key}: expected a {'nonempty ' if nonempty else ''}list")
        return value

    return parse


def _value(value, key: str):
    """Any value: an object read by its own table, or checked by its class."""
    return value


def _rows(value, key: str) -> list:
    """A matrix: a nonempty list of rows of one length, each entry a JSON
    number that ``float`` reads.  A boolean, a numeric string or a null,
    which ``float`` would read, is refused, and so is an integer past the
    float range, which it would refuse with an ``OverflowError``; one scan
    of the entries' types passes a matrix of floats."""
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ValueError(f"{key}: expected a nonempty list of rows")
    if len({*map(len, value)}) > 1:
        raise ValueError(f"{key}: rows must all have equal length")
    # type(), not isinstance(): a JSON true is no number
    types = {*map(type, chain.from_iterable(value))}
    if not types <= {int, float}:
        bad = next(v for v in chain.from_iterable(value) if type(v) not in (int, float))
        raise ValueError(f"{key}: expected a number, got {bad!r}")
    if int in types:
        try:
            sum(map(float, chain.from_iterable(value)))
        except OverflowError:
            raise ValueError(f"{key}: an integer lies past the float range") from None
    return value


def _row(value, key: str) -> list:
    """A vector: a nonempty list of JSON numbers, checked as ``_rows`` checks."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key}: expected a nonempty list of numbers")
    return _rows([value], key)[0]


def _fields(obj, where: str, table: dict, got: dict) -> dict:
    """The fields of the JSON object ``obj`` that ``table`` lists, by attribute.

    ``table`` maps each key to ``(parse, fallback, attribute)``.  A key
    ``obj`` lacks takes the fallback, called, when callable, with the fields
    read so far: ``got`` (the enclosing object's) and this table's rows
    above it.  A field still absent, or null, is missing; any other value
    goes through ``parse(value, where + key)``, whose error names the field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where[:-1] or 'top level'}: expected an object")
    out = {}
    for key, (parse, fallback, attr) in table.items():
        value = obj.get(key, fallback)
        if key not in obj and callable(fallback):
            value = fallback(got | out)
        if value is None:
            raise ValueError(f"missing field '{where}{key}'")
        out[attr] = parse(value, where + key)
    return out


def _dump(obj, table: dict) -> dict:
    """The writer's side of ``_fields``: each key of ``table`` with the value
    of its row's attribute of ``obj``."""
    return {key: getattr(obj, attr) for key, (_, _, attr) in table.items()}


# ---------------------------------------------------------------------------
# the one reader and the one writer
# ---------------------------------------------------------------------------

def _read(path, parse):
    """``parse(path)``; a file that cannot be opened or parsed is one usage
    error, which names the file once."""
    try:
        return parse(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_json_bytes(path) -> tuple:
    """The JSON value at ``path`` and the bytes it was parsed from."""
    data = Path(path).read_bytes()
    return json.loads(data.decode("utf-8")), data


# elements per write of a long list: bounds the memory of one write while
# keeping the number of writes small
_CHUNK = 4096


def _finite_json(value):
    """``value`` with each non-finite float, which RFC 8259 JSON cannot
    hold, replaced by the string ``float`` reads back: "NaN", "Infinity"
    or "-Infinity"."""
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [*map(_finite_json, value)]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


def _write_value(write, value, pad: str) -> None:
    """Write ``_finite_json(value)`` exactly as ``json.dump(indent=2,
    sort_keys=True)`` writes it when its closing bracket sits after ``pad``.

    A list of finite floats, as are the weight rows and biases that make up
    almost all of an artifact, is formatted a chunk at a time with
    ``float.__repr__``, the formatting ``json`` itself applies to ``float``;
    everything else goes through ``json.dumps``, re-indented (a JSON string
    holds no raw newline).
    """
    inner = pad + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        sep = "\n" + inner
        write("{")
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_value(write, value[key], inner)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = ",\n" + inner
        write("[\n" + inner)
        if {*map(type, value)} == {float} and all(map(math.isfinite, value)):
            for start in range(0, len(value), _CHUNK):
                if start:
                    write(sep)
                write(sep.join(map(float.__repr__, value[start : start + _CHUNK])))
        else:
            for i, item in enumerate(value):
                if i:
                    write(sep)
                _write_value(write, item, inner)
        write("\n" + pad + "]")
    else:
        write(json.dumps(_finite_json(value), indent=2, sort_keys=True).replace("\n", "\n" + pad))


def _write_json(path, obj) -> None:
    """The one canonical JSON writer: the bytes of ``json.dump(obj, fh,
    indent=2, sort_keys=True)`` plus a newline, streamed in bounded chunks,
    with non-finite floats written as strings (see ``_finite_json``)."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh.write, obj, "")
        fh.write("\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# every artifact's fields: model, certificate, --system file, plan,
# deviation report and summary
# ---------------------------------------------------------------------------

# key -> (parse, fallback, attribute) for ``_fields``, one row per model
# field; None is no fallback.  Layer and ActivationKind check the values
# they are built from.
_MODEL = {"layers": (_list(nonempty=True), None, "layers")}
_LAYER = {"weights": (_rows, None, "weight"), "bias": (_row, None, "bias"),
          "activation": (_value, None, "activation")}
_ACTIVATION = {"kind": (_value, None, "kind"), "alpha": (_number(float), 1.0, "alpha")}


def _model_layers(d):
    """Each layer's fields of the model ``d`` with the path that names it,
    one layer at a time, so that an error names the first broken field."""
    for i, raw in enumerate(_fields(d, "model.", _MODEL, {})["layers"]):
        where = f"model.layers[{i}]"
        got = _fields(raw, where + ".", _LAYER, {})
        got["activation"] = _fields(got["activation"], where + ".activation.", _ACTIVATION, {})
        yield where, got


def policy_to_dict(p) -> dict:
    """Canonical dict form of a policy (weights row-major, outer index =
    output neuron)."""
    return {"layers": [
        {"weights": layer.weight.tolist(), "bias": layer.bias.tolist(),
         "activation": _dump(layer.activation, _ACTIVATION)}
        for layer in p.layers
    ]}


# key -> (parse, fallback, attribute) for ``_fields``, one row per
# certificate field for its reader and writer alike.  A fallback fills a
# field older certificates lack; None is no fallback.
_CERT = {
    "layers": (_list(), None, "rows"),
    "budget": (_number(float, 0.0), None, "budget"),
    "radius": (_number(float, 0.0), None, "radius"),
    "radius_source": (_choice("radius", "states"), "radius", "radius_source"),
    "audit": (_value, None, "audit"),  # read by the _CERT_AUDIT table
    "holds": (_switch, None, "holds"),  # required, though ``Certificate.holds`` derives it
}
_CERT_ROW = {
    "k": (_number(int, 0), None, "layer"),
    "c_max": (_number(float), None, "c_max"),
    "delta_spectral": (_number(float), None, "delta_spectral"),
    "contribution": (_number(float), None, "contribution"),
}
_CERT_AUDIT = {
    "samples": (_number(int, 1), None, "samples"),
    "max_dev": (_number(float), None, "max_dev"),
    "mean_dev": (_number(float), lambda got: got["max_dev"], "mean_dev"),
    "violations": (_number(int, 0), None, "violations"),
    "tightness": (_number(float), 0.0, "tightness"),
    "margin": (_number(float), lambda got: got["budget"] - got["max_dev"], "margin"),
    "seed": (_number(int, 0), None, "seed"),
}


def certificate_to_dict(cert) -> dict:
    """Serialize a certificate with its audit evidence."""
    return {
        **_dump(cert, _CERT),
        "layers": [_dump(r, _CERT_ROW) for r in cert.rows],
        "audit": _dump(cert.audit, _CERT_AUDIT),
        "timestamp": _timestamp(),
    }


def _certificate_fields(d) -> dict:
    """The certificate ``d``'s fields by attribute, its rows' and audit's as
    dicts; ``holds`` is checked and dropped, since the certificate derives it."""
    got = _fields(d, "", _CERT, {})
    del got["holds"]
    got["rows"] = [_fields(r, f"layers[{i}].", _CERT_ROW, got) for i, r in enumerate(got["rows"])]
    got["audit"] = _fields(got["audit"], "audit.", _CERT_AUDIT, got)
    return got


_SYSTEM = {"A": (_rows, None, "a"), "B": (_rows, None, "b")}


def _read_system(path) -> dict:
    """A ``--system`` file's matrices, by ``LinearSystem``'s argument names."""
    return _fields(_read_json(path), "", _SYSTEM, {})


def _plan_dict(plan, ranking, damping, seed: int, version: str) -> dict:
    """One row per pruned layer, its saliencies read off the ranking's head
    through a ``memoryview``: one Python float at a time, so the sum and max
    have the bits of a ``tolist``'s without a list of every saliency."""
    layers = []
    for lp in plan.layers:
        saliency = memoryview(ranking.saliency[ranking.layer == lp.layer][: len(lp.mask)])
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
        "damping": damping,
        "seed": seed,
        "tool_version": version,
        "timestamp": _timestamp(),
    }


def _report_dict(report, dynamics: str, horizon: int) -> dict:
    """``simulate``'s deviation report on its ``DeviationReport``."""
    return {
        "dynamics": dynamics,
        "horizon": horizon,
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
    }


def _summary_dict(read) -> dict:
    """``report``'s summary of ``(path, certificate, bytes)`` triples, each
    bytes the file its certificate was parsed from, taken one at a time."""
    # imported here, not at the top: hashlib loads OpenSSL, which adds about
    # 3 MB to the peak memory of every command, and only report hashes
    import hashlib

    entries = [
        {
            "path": str(path),
            "sha256": hashlib.sha256(data).hexdigest(),
            "budget": cert.budget,
            "radius": cert.radius,
            "holds": cert.holds,
            "samples": cert.audit.samples,
            "max_dev": cert.audit.max_dev,
            "violations": cert.audit.violations,
        }
        for path, cert, data in read
    ]
    return {
        "certificates": entries,
        "count": len(entries),
        "all_hold": all(e["holds"] for e in entries),
        "max_budget": max(e["budget"] for e in entries),
        "total_violations": sum(e["violations"] for e in entries),
        "timestamp": _timestamp(),
    }
