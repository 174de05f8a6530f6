"""MLP control policies built from certified non-expansive activations.

Every activation in the registry anchors at zero and never amplifies
distances, which keeps each layer's output norm below its input norm; the
deviation certificates lean on exactly that property.  The canonical model
JSON schema lives here so files round-trip through one serializer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

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


def apply_activation(kind: ActivationKind, v) -> np.ndarray:
    """Apply the activation componentwise; accepts vectors and batches."""
    x = np.asarray(v, dtype=float)
    if kind.kind == "relu":
        return np.maximum(x, 0.0)
    if kind.kind in ("leaky_relu", "prelu"):
        # prelu's alpha is learnable during training; at inference the two agree
        return np.where(x >= 0.0, x, kind.alpha * x)
    if kind.kind == "elu":
        # negative branch only: alpha*(e^x - 1) overtakes x for x > 0,
        # which would break the unit-slope guarantee
        return np.where(x >= 0.0, x, kind.alpha * np.expm1(np.minimum(x, 0.0)))
    return x.copy()  # identity


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
        return tuple(float(np.linalg.norm(layer.bias)) for layer in self.layers)


def _propagate(p: MlpPolicy, x: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """The one layer loop: push a state (vector) or a batch (columns) through
    every layer, appending each layer's input to ``inputs`` when given."""
    for layer in p.layers:
        if inputs is not None:
            inputs.append(x)
        bias = layer.bias[:, None] if x.ndim == 2 else layer.bias
        x = apply_activation(layer.activation, layer.weight @ x + bias)
    return x


def forward(p: MlpPolicy, s) -> np.ndarray:
    """Evaluate the policy at one state."""
    x = linalg.as_vector(s, "state")
    if x.shape[0] != p.input_dim:
        raise ValueError(
            f"state has dim {x.shape[0]} but policy expects {p.input_dim}"
        )
    return _propagate(p, x)


def forward_batch(p: MlpPolicy, states) -> np.ndarray:
    """Evaluate the policy on a batch of states stored as columns.

    ``states`` is (input_dim, n); the result is (output_dim, n).
    """
    x = linalg.as_matrix(states, "states")
    if x.shape[0] != p.input_dim:
        raise ValueError(
            f"states have dim {x.shape[0]} but policy expects {p.input_dim}"
        )
    return _propagate(p, x)


# ---------------------------------------------------------------------------
# model JSON schema
# ---------------------------------------------------------------------------

def policy_to_dict(p: MlpPolicy) -> dict:
    """Canonical dict form of a policy (weights row-major, outer index =
    output neuron)."""
    return {
        "layers": [
            {
                "weights": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
                "activation": {
                    "kind": layer.activation.kind,
                    "alpha": layer.activation.alpha,
                },
            }
            for layer in p.layers
        ]
    }


def _parse_activation(obj, where: str) -> ActivationKind:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{where}: activation must be an object with a 'kind' field")
    kind = obj["kind"]
    alpha = obj.get("alpha", 1.0)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ValueError(f"{where}.alpha: expected a number, got {alpha!r}")
    try:
        return ActivationKind(kind=kind, alpha=float(alpha))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def policy_from_dict(d) -> MlpPolicy:
    """Parse the model schema, reporting the offending field on failure."""
    if not isinstance(d, dict) or "layers" not in d:
        raise ValueError("model: expected an object with a 'layers' field")
    raw_layers = d["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("model.layers: expected a nonempty list")
    layers = []
    for i, raw in enumerate(raw_layers):
        where = f"model.layers[{i}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: expected an object")
        for field in ("weights", "bias", "activation"):
            if field not in raw:
                raise ValueError(f"{where}: missing field '{field}'")
        weights = raw["weights"]
        if (
            not isinstance(weights, list)
            or not weights
            or not all(isinstance(row, list) for row in weights)
        ):
            raise ValueError(f"{where}.weights: expected a nonempty list of rows")
        width = len(weights[0])
        if any(len(row) != width for row in weights):
            raise ValueError(f"{where}.weights: rows must all have equal length")
        activation = _parse_activation(raw["activation"], f"{where}.activation")
        try:
            layers.append(
                Layer(
                    weight=np.asarray(weights, dtype=float),
                    bias=np.asarray(raw["bias"], dtype=float),
                    activation=activation,
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    try:
        return MlpPolicy(layers=tuple(layers))
    except ValueError as exc:
        raise ValueError(f"model: {exc}") from exc


def _write_json(path, obj) -> None:
    """The one canonical JSON writer: sorted keys, two-space indent."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_policy(p: MlpPolicy, path) -> None:
    """Write the canonical JSON form (stable bytes for identical values)."""
    _write_json(path, policy_to_dict(p))


def load_policy(path) -> MlpPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
            ) from exc
    return policy_from_dict(data)
