"""MLP control policies built from certified non-expansive activations.

Every activation in the registry anchors at zero and never amplifies
distances, which keeps each layer's output norm below its input norm; the
deviation certificates lean on exactly that property.  A policy's JSON
form is read and written through ``schema``, which holds the model's
fields; ``policy_from_dict`` builds the layers from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.schema import _model_layers, _read_json, _write_json, policy_to_dict

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
    """One affine layer ``x -> activation(weight @ x + bias)``.

    ``weight`` and ``bias`` are stored read-only by ``linalg._frozen``: a
    read-only array whose data's owner is read-only too is shared, anything
    else is copied.  A caller who shares its array and then re-enables
    writes on it changes the layer.
    """

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
        with np.errstate(over="ignore"):  # a square past the float range is taken scaled
            return tuple(linalg._norm_bound(layer.bias) for layer in self.layers)


def _propagate(p: MlpPolicy, x: np.ndarray, visit=None) -> np.ndarray:
    """The one layer loop: push a state (vector) or a batch (``_columns``) through
    every layer, passing each layer's input to ``visit`` when given, before
    the layer reads it (``visit=inputs.append`` records them all).

    Each layer's output is a fresh matmul result that the bias and the
    activation then overwrite in place, with no temporary of its size but
    ELU's one, and neither ``x`` nor any array passed to ``visit`` is ever
    written.  An array ``visit`` does not keep is freed once the next layer
    has read it.
    """
    for layer in p.layers:
        if visit is not None:
            visit(x)
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
    """A batch of states, one per row, checked and turned into the C-contiguous
    columns (input_dim, n) that ``_propagate`` runs on: BLAS rounds by operand
    layout, so every batch runs in this one layout and its outputs depend
    only on its values."""
    x = linalg.as_matrix(states, "states")
    if x.shape[1] != p.input_dim:
        raise ValueError(f"states have dim {x.shape[1]} but policy expects {p.input_dim}")
    return np.ascontiguousarray(x.T)


def forward_batch(p: MlpPolicy, states) -> np.ndarray:
    """Evaluate the policy on a batch of states, one per row.

    ``states`` is (n, input_dim); the result is (n, output_dim), with the
    same bits for any memory layout of ``states`` (see ``_columns``).  The
    states go through in the fewest blocks that keep every layer's output
    within ``_BLOCK`` floats, so memory stays bounded however many states
    there are; a batch that fits in one block is a single call.  Block
    boundaries fall on whole ``_TILE``-column tiles, spread evenly.
    """
    x = _columns(p, states)
    n = x.shape[1]
    most = max(1, _BLOCK // max(512, *(layer.out_dim for layer in p.layers)))
    tile = min(_TILE, most)
    tiles = -(-n // tile)
    blocks = -(-tiles // (most // tile))
    bounds = [min(n, tile * (i * tiles // blocks)) for i in range(blocks + 1)]
    out = np.empty((p.output_dim, n))
    for lo, hi in zip(bounds, bounds[1:]):
        out[:, lo:hi] = _propagate(p, x[:, lo:hi])
    return out.T


# floats per layer output in one block of ``forward_batch``: 8 MB, and
# columns per block at most ``_BLOCK // 512``, so that a narrow policy's
# audit holds 2 MB per layer output at width 128.  The blocks are nearly
# equal, so none is a thin remainder that falls under the size where
# OpenBLAS switches to a small-matrix kernel that rounds differently.  This
# is the smallest power of two that keeps the bits: at 2**19 the blocks of
# width-512 and width-1024 batches no longer match the single call
# (`test_blocks_keep_the_whole_batch_bits`), which a lower column cap would
# also break for width-512 batches at 10^4 states.  At 2**20 `certify`'s
# audit stays under `prune`'s peak memory on the wide-sparsity benchmark; on
# budget-inverse it still sets the peak, about 6 MB above `prune`'s in a
# fresh process.
_BLOCK = 2**20

# columns per tile of ``forward_batch``'s block boundaries.  BLAS runs a
# matmul in tiles of a few columns and rounds the last, partial tile with
# another kernel, so boundaries fall on multiples of 64.  That keeps the
# single call's bits for the shapes and batch sizes that
# `test_blocks_keep_the_whole_batch_bits` checks, the benchmark's audits
# among them, but not for every batch: where a block's small output-layer
# product takes another OpenBLAS kernel, its last bits can move.
_TILE = 64


def _build(where: str, make, fields: dict):
    """``make(**fields)``, an error of its own checks prefixed with ``where``."""
    try:
        return make(**fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def policy_from_dict(d) -> MlpPolicy:
    """Parse the model schema; an error names the offending field's path."""
    layers = []
    for where, got in _model_layers(d):
        got["activation"] = _build(where + ".activation", ActivationKind, got["activation"])
        layers.append(_build(where, Layer, got))
    return _build("model", MlpPolicy, {"layers": tuple(layers)})


def save_policy(p: MlpPolicy, path) -> None:
    """Write the canonical JSON form (stable bytes for identical values)."""
    _write_json(path, policy_to_dict(p))


def load_policy(path) -> MlpPolicy:
    return policy_from_dict(_read_json(path))
