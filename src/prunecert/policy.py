"""MLP control policies built from certified non-expansive activations.

Every activation in the registry anchors at zero and never amplifies
distances, which keeps each layer's output norm below its input norm; the
deviation certificates lean on exactly that property.  The canonical JSON
lives here too: one writer, one parser per value type, and ``_fields``,
which reads an object from a table of one row per field, for the model
schema here and the certificate schema in ``cli`` alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen

__all__ = [
    "CERTIFIED_KINDS",
    "ActivationKind",
    "Layer",
    "MlpPolicy",
    "apply_activation",
    "forward",
    "forward_batch",
    "policy_to_dict",
    "policy_from_dict",
    "save_policy",
    "load_policy",
]

# Each kind satisfies phi(0) = 0 and |phi(a) - phi(b)| <= |a - b| for
# alpha in (0, 1]; only these may feed the certifier.
CERTIFIED_KINDS = ("relu", "leaky_relu", "prelu", "elu", "identity")


@dataclass(frozen=True)
class ActivationKind:
    """Tagged componentwise activation; ``alpha`` is the negative-side slope
    or scale, restricted to (0, 1] to keep the unit-Lipschitz guarantee."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in CERTIFIED_KINDS:
            raise ValueError(
                f"unknown or uncertified activation kind {self.kind!r}; "
                f"certified kinds: {', '.join(CERTIFIED_KINDS)}"
            )
        alpha = float(self.alpha)
        if not (0.0 < alpha <= 1.0) or math.isnan(alpha):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        object.__setattr__(self, "alpha", alpha)


def _activate(kind: ActivationKind, y: np.ndarray) -> np.ndarray:
    """Apply the activation to ``y`` in place and return ``y``."""
    if kind.kind == "relu":
        np.maximum(y, 0.0, out=y)
    elif kind.kind != "identity":
        # not y >= 0, so a NaN takes the negative branch and stays NaN
        negative = ~(y >= 0.0)
        if kind.kind == "elu":
            # negative branch only: alpha*(e^x - 1) overtakes x for x > 0,
            # which would break the unit-slope guarantee
            branch = np.minimum(y, 0.0)
            np.expm1(branch, out=branch)
            np.multiply(branch, kind.alpha, out=y, where=negative)
        else:
            # prelu's alpha is learnable during training; at inference the two agree
            np.multiply(y, kind.alpha, out=y, where=negative)
    return y


def apply_activation(kind: ActivationKind, v) -> np.ndarray:
    """Apply the activation componentwise; accepts vectors and batches."""
    return _activate(kind, np.array(v, dtype=float))


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine layer ``x -> activation(weight @ x + bias)``."""

    weight: np.ndarray
    bias: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        w = linalg.as_matrix(self.weight, "weight")
        b = linalg.as_vector(self.bias, "bias")
        if w.shape[0] != b.shape[0]:
            raise ValueError(
                f"weight has {w.shape[0]} rows but bias has dim {b.shape[0]}"
            )
        object.__setattr__(self, "weight", _frozen(w))
        object.__setattr__(self, "bias", _frozen(b))

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True, eq=False)
class MlpPolicy:
    """Stack of affine layers; the activation is applied after every layer,
    the output one included."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("policy needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise ValueError(
                    f"layer {i} expects input dim {layers[i].in_dim} but "
                    f"layer {i - 1} outputs dim {layers[i - 1].out_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @cached_property
    def weight_spectral_norms(self) -> tuple[float, ...]:
        # computed once per policy; certificates reuse these heavily
        return tuple(linalg.spectral_norm(layer.weight) for layer in self.layers)

    @cached_property
    def bias_norms(self) -> tuple[float, ...]:
        # upper bounds (pruner._change_norm's argument): times 1 + (n + 4) eps, one ulp up
        return tuple(
            linalg._up(float(linalg.vector_norm(b)) * (1.0 + (b.size + 4) * linalg._EPS))
            if b.any() else 0.0 for b in (layer.bias for layer in self.layers)
        )


def _propagate(p: MlpPolicy, x: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """The one layer loop: push a state (vector) or a batch (columns) through
    every layer, appending each layer's input to ``inputs`` when given.

    Each layer's output is a fresh matmul result that the bias and the
    activation then overwrite in place, with no temporary of its size but
    ELU's one, and neither ``x`` nor any array appended to ``inputs`` is
    ever written.
    """
    for layer in p.layers:
        if inputs is not None:
            inputs.append(x)
        y = layer.weight @ x
        y += layer.bias[:, None] if x.ndim == 2 else layer.bias
        x = _activate(layer.activation, y)
    return x


def forward(p: MlpPolicy, s) -> np.ndarray:
    """Evaluate the policy at one state."""
    x = linalg.as_vector(s, "state")
    if x.shape[0] != p.input_dim:
        raise ValueError(
            f"state has dim {x.shape[0]} but policy expects {p.input_dim}"
        )
    return _propagate(p, x)


def _columns(p: MlpPolicy, states) -> np.ndarray:
    """A batch of states stored as columns, (input_dim, n), checked and
    C-contiguous: BLAS rounds by operand layout, so every batch runs in this
    one layout and its outputs depend only on its values."""
    x = linalg.as_matrix(states, "states")
    if x.shape[0] != p.input_dim:
        raise ValueError(f"states have dim {x.shape[0]} but policy expects {p.input_dim}")
    return np.ascontiguousarray(x)


def forward_batch(p: MlpPolicy, states) -> np.ndarray:
    """Evaluate the policy on a batch of states stored as columns.

    ``states`` is (input_dim, n); the result is (output_dim, n), with the
    same bits for any memory layout of ``states`` (see ``_columns``).  The
    columns go through in the fewest blocks that keep every layer's output
    within ``_BLOCK`` floats, so memory stays bounded however many states
    there are; a batch that fits in one block is a single call.  Block
    boundaries fall on whole ``_TILE``-column tiles, spread evenly.
    """
    x = _columns(p, states)
    n = x.shape[1]
    most = max(1, _BLOCK // max(layer.out_dim for layer in p.layers))
    tile = min(_TILE, most)
    tiles = -(-n // tile)
    blocks = -(-tiles // (most // tile))
    bounds = [min(n, tile * (i * tiles // blocks)) for i in range(blocks + 1)]
    out = np.empty((p.output_dim, n))
    for lo, hi in zip(bounds, bounds[1:]):
        out[:, lo:hi] = _propagate(p, x[:, lo:hi])
    return out


# ---------------------------------------------------------------------------
# canonical JSON: one parser per value type, one field walker, one writer,
# and the model schema
# ---------------------------------------------------------------------------

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


def _fields(obj, where: str, table: dict, got: dict) -> dict:
    """The fields of the JSON object ``obj`` that ``table`` lists, by key.

    ``table`` maps each key to ``(parse, fallback)``.  A key ``obj`` lacks
    takes the fallback, called, when callable, with the fields read so far:
    ``got`` (the enclosing object's) and this table's rows above it.  A field
    still absent, or null, is missing; any other value goes through
    ``parse(value, where + key)``, whose error names the field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where[:-1] or 'top level'}: expected an object")
    out = {}
    for key, (parse, fallback) in table.items():
        value = obj.get(key, fallback)
        if key not in obj and callable(fallback):
            value = fallback(got | out)
        if value is None:
            raise ValueError(f"missing field '{where}{key}'")
        out[key] = parse(value, where + key)
    return out


# elements per write of a long list: bounds the memory of one write while
# keeping the number of writes small
_CHUNK = 4096

# floats per layer output in one block of ``forward_batch``: 8 MB.  The
# blocks are nearly equal, so none is a thin remainder that falls under the
# size where OpenBLAS switches to a small-matrix kernel that rounds
# differently.  This is the smallest power of two that keeps the bits: at
# 2**19 the blocks of width-512 and width-1024 batches no longer match the
# single call (`test_blocks_keep_the_whole_batch_bits`).  At 2**20
# `certify`'s audit stays under `prune`'s peak memory on the wide-sparsity
# benchmark; on budget-inverse it still sets the peak, about 10 MB above
# `prune`'s.
_BLOCK = 2**20

# columns per tile of ``forward_batch``'s block boundaries.  BLAS runs a
# matmul in tiles of a few columns and rounds the last, partial tile with
# another kernel; boundaries on multiples of 64 give every block the whole
# batch's tiles, so blocking keeps the single call's bits.
_TILE = 64


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


def policy_to_dict(p: MlpPolicy) -> dict:
    """Canonical dict form of a policy (weights row-major, outer index =
    output neuron)."""
    return {"layers": [
        {"weights": layer.weight.tolist(), "bias": layer.bias.tolist(),
         "activation": {"kind": layer.activation.kind, "alpha": layer.activation.alpha}}
        for layer in p.layers
    ]}


def _rows(value, key: str) -> list:
    """A matrix: a nonempty list of rows of one length, each entry a JSON
    number.  A boolean, a numeric string or a null, which ``float`` would
    read, is refused; one scan of the entries' types checks them all."""
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ValueError(f"{key}: expected a nonempty list of rows")
    if len({*map(len, value)}) > 1:
        raise ValueError(f"{key}: rows must all have equal length")
    # type(), not isinstance(): a JSON true is no number
    if not {*map(type, chain.from_iterable(value))} <= {int, float}:
        bad = next(v for v in chain.from_iterable(value) if type(v) not in (int, float))
        raise ValueError(f"{key}: expected a number, got {bad!r}")
    return value


def _row(value, key: str) -> list:
    """A vector: a nonempty list of JSON numbers, checked as ``_rows`` checks."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key}: expected a nonempty list of numbers")
    return _rows([value], key)[0]


# key -> (parse, fallback) for ``_fields``, one row per model field; None is
# no fallback.  Layer and ActivationKind check the values they are built from.
_MODEL = {"layers": (_list(nonempty=True), None)}
_LAYER = {"weights": (_rows, None), "bias": (_row, None), "activation": (_value, None)}
_ACTIVATION = {"kind": (_value, None), "alpha": (_number(float), 1.0)}


def _build(where: str, make, *args):
    """``make(*args)``, an error of its own checks prefixed with ``where``."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def policy_from_dict(d) -> MlpPolicy:
    """Parse the model schema; an error names the offending field's path."""
    layers = []
    for i, raw in enumerate(_fields(d, "model.", _MODEL, {})["layers"]):
        where = f"model.layers[{i}]"
        got = _fields(raw, where + ".", _LAYER, {})
        act = _fields(got["activation"], where + ".activation.", _ACTIVATION, {})
        activation = _build(where + ".activation", ActivationKind, act["kind"], act["alpha"])
        layers.append(_build(where, Layer, got["weights"], got["bias"], activation))
    return _build("model", MlpPolicy, tuple(layers))


def save_policy(p: MlpPolicy, path) -> None:
    """Write the canonical JSON form (stable bytes for identical values)."""
    _write_json(path, policy_to_dict(p))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_policy(path) -> MlpPolicy:
    return policy_from_dict(_read_json(path))
