"""Second-order weight pruning: saliency scoring, masking, compensation.

Each layer's curvature is the shared block ``2 X X^T`` built from the
calibration activations of the unpruned policy, so scoring never needs
gradients or labels.  Plans record exactly which positions were zeroed and
the spectral norm of the per-layer weight change, which is what the
certifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.policy import Layer, MlpPolicy, _propagate

__all__ = [
    "CalibrationBatch",
    "SaliencyEntry",
    "LayerPrune",
    "PrunePlan",
    "collect_calibration",
    "activation_loss",
    "obd_saliency",
    "rank_weights",
    "obs_compensate",
    "apply_plan",
    "prune_to_budget",
]


@dataclass(frozen=True, eq=False)
class CalibrationBatch:
    """Per-layer input activations; column j belongs to calibration state j.

    ``inputs[k]`` is the (in_dim_k x n) matrix feeding layer k, collected
    from the unpruned policy.
    """

    inputs: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(linalg.as_matrix(x, f"inputs[{i}]") for i, x in enumerate(self.inputs))
        if not mats:
            raise ValueError("calibration batch needs at least one layer")
        n = mats[0].shape[1]
        if any(m.shape[1] != n for m in mats):
            raise ValueError("calibration matrices must share one column per state")
        object.__setattr__(self, "inputs", tuple(_frozen(m) for m in mats))

    @property
    def num_states(self) -> int:
        return self.inputs[0].shape[1]


@dataclass(frozen=True)
class SaliencyEntry:
    """Score for one weight; lower saliency means safer to remove."""

    layer: int
    row: int
    col: int
    weight: float
    saliency: float


@dataclass(frozen=True, eq=False)
class LayerPrune:
    """Weight change applied to one layer: masked positions plus the dense
    delta ``W_pruned - W_original`` and its spectral norm."""

    layer: int
    mask: tuple[tuple[int, int], ...]
    delta: np.ndarray
    delta_spectral_norm: float
    compensated: bool

    def __post_init__(self):
        object.__setattr__(self, "delta", _frozen(linalg.as_matrix(self.delta, "delta")))


@dataclass(frozen=True, eq=False)
class PrunePlan:
    """Per-layer perturbations, ascending by layer index."""

    layers: tuple[LayerPrune, ...]

    def __post_init__(self):
        ks = [lp.layer for lp in self.layers]
        if ks != sorted(set(ks)):
            raise ValueError("plan layers must be unique and ascending")

    @property
    def pruned_layers(self) -> tuple[int, ...]:
        return tuple(lp.layer for lp in self.layers)

    def delta_norms(self) -> tuple[tuple[int, float], ...]:
        """(layer, ||delta||_2) pairs in ascending layer order."""
        return tuple((lp.layer, lp.delta_spectral_norm) for lp in self.layers)

    def scaled(self, factor: float) -> "PrunePlan":
        """Plan with every delta multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PrunePlan(
            layers=tuple(
                LayerPrune(
                    layer=lp.layer,
                    mask=lp.mask,
                    delta=lp.delta * factor,
                    delta_spectral_norm=lp.delta_spectral_norm * factor,
                    compensated=lp.compensated,
                )
                for lp in self.layers
            )
        )

    @classmethod
    def from_deltas(
        cls, deltas: Mapping[int, np.ndarray], compensated: bool = False
    ) -> "PrunePlan":
        """Build a plan from raw per-layer weight changes."""
        layers = []
        for k in sorted(deltas):
            d = linalg.as_matrix(deltas[k], f"delta[{k}]")
            rows, cols = np.nonzero(d)
            layers.append(
                LayerPrune(
                    layer=int(k),
                    mask=tuple(zip(rows.tolist(), cols.tolist())),
                    delta=d,
                    delta_spectral_norm=linalg.spectral_norm(d),
                    compensated=compensated,
                )
            )
        return cls(layers=tuple(layers))

    @classmethod
    def from_policies(cls, original: MlpPolicy, pruned: MlpPolicy) -> "PrunePlan":
        """Recover the plan implied by an (original, pruned) model pair.

        The two policies must agree on everything except weight values;
        the certified bounds do not cover bias or activation changes.
        """
        if original.num_layers != pruned.num_layers:
            raise ValueError(
                f"policies have {original.num_layers} vs {pruned.num_layers} layers"
            )
        layers = []
        for k, (lo, lp) in enumerate(zip(original.layers, pruned.layers)):
            if lo.weight.shape != lp.weight.shape:
                raise ValueError(
                    f"layer {k}: weight shape {lo.weight.shape} != {lp.weight.shape}"
                )
            if lo.bias.shape != lp.bias.shape or not np.array_equal(lo.bias, lp.bias):
                raise ValueError(
                    f"layer {k}: biases differ; only weight perturbations are certified"
                )
            if lo.activation != lp.activation:
                raise ValueError(f"layer {k}: activations differ")
            delta = lp.weight - lo.weight
            if not delta.any():
                continue
            zeroed = (lo.weight != 0.0) & (lp.weight == 0.0)
            rows, cols = np.nonzero(zeroed)
            mask = tuple(zip(rows.tolist(), cols.tolist()))
            off_mask = delta.copy()
            off_mask[zeroed] = 0.0
            layers.append(
                LayerPrune(
                    layer=k,
                    mask=mask,
                    delta=delta,
                    delta_spectral_norm=linalg.spectral_norm(delta),
                    compensated=bool(off_mask.any()),
                )
            )
        return cls(layers=tuple(layers))


def collect_calibration(p: MlpPolicy, states: Iterable) -> CalibrationBatch:
    """Forward a set of states and gather each layer's input activations.

    Column j of ``inputs[k]`` is what state j presents to layer k; layer 0
    sees the raw states.
    """
    vecs = [linalg.as_vector(s, "state") for s in states]
    if not vecs:
        raise ValueError("need at least one calibration state")
    for v in vecs:
        if v.shape[0] != p.input_dim:
            raise ValueError(
                f"state has dim {v.shape[0]} but policy expects {p.input_dim}"
            )
    mats: list[np.ndarray] = []
    _propagate(p, np.stack(vecs, axis=1), mats)
    return CalibrationBatch(inputs=tuple(mats))


def activation_loss(w, w_hat, x) -> float:
    """Exact squared Frobenius deviation of one layer's outputs on a batch.

    This is the brute-force reference every saliency estimate is judged
    against.
    """
    wm = linalg.as_matrix(w, "w")
    wh = linalg.as_matrix(w_hat, "w_hat")
    xm = linalg.as_matrix(x, "x")
    if wm.shape != wh.shape:
        raise ValueError(f"weight shapes differ: {wm.shape} vs {wh.shape}")
    if wm.shape[1] != xm.shape[0]:
        raise ValueError(
            f"weights have {wm.shape[1]} columns but batch has {xm.shape[0]} rows"
        )
    d = (wm - wh) @ xm
    return float((d * d).sum())


def obd_saliency(w_q: float, h_inv_qq: float) -> float:
    """Quadratic estimate of the loss from zeroing one weight:
    ``0.5 * w_q**2 / (H^-1)_qq``."""
    if not h_inv_qq > 0:
        raise ValueError(
            f"(H^-1)_qq must be positive, got {h_inv_qq} (broken Hessian inversion?)"
        )
    return 0.5 * w_q * w_q / h_inv_qq


def _layer_h_inv(x: np.ndarray, damping) -> np.ndarray:
    h = linalg.gram(x)
    lam = linalg.auto_damping(h) if damping == "auto" else float(damping)
    return linalg.damped_inverse(h, lam)


def rank_weights(
    p: MlpPolicy,
    calib: CalibrationBatch,
    layers: Iterable[int],
    damping=0.0,
    diagonal: bool = False,
) -> list[SaliencyEntry]:
    """Score every weight in the selected layers, sorted ascending by saliency.

    The score divides each squared weight by the corresponding diagonal of
    the damped inverse curvature block; ``diagonal=True`` swaps in the
    classic 1/H_qq approximation instead of the full inverse.  ``damping``
    may be a number or ``"auto"``.  Ties break on (layer, row, col) so
    rankings are reproducible.
    """
    ks = sorted({int(k) for k in layers})
    if not ks:
        raise ValueError("need at least one layer to rank")
    if len(calib.inputs) != p.num_layers:
        raise ValueError(
            f"calibration has {len(calib.inputs)} layers but policy has {p.num_layers}"
        )
    entries: list[SaliencyEntry] = []
    for k in ks:
        if not 0 <= k < p.num_layers:
            raise ValueError(f"layer index {k} out of range 0..{p.num_layers - 1}")
        x = calib.inputs[k]
        w = p.layers[k].weight
        if x.shape[0] != w.shape[1]:
            raise ValueError(
                f"layer {k}: calibration rows {x.shape[0]} != weight columns {w.shape[1]}"
            )
        if diagonal:
            h = linalg.gram(x)
            lam = linalg.auto_damping(h) if damping == "auto" else float(damping)
            hqq = np.diag(h) + lam
            # 1/(H_qq) as the inverse diagonal; a zero H_qq means the input
            # coordinate never fires, so removal is free
            sal = np.where(hqq > 0.0, 0.5 * w * w * hqq[None, :], 0.0)
        else:
            h_inv = _layer_h_inv(x, damping)
            dinv = np.diag(h_inv)
            if (dinv <= 0.0).any():
                raise ValueError(
                    f"layer {k}: Hessian inversion produced a nonpositive diagonal"
                )
            sal = 0.5 * w * w / dinv[None, :]
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                entries.append(
                    SaliencyEntry(
                        layer=k,
                        row=r,
                        col=c,
                        weight=float(w[r, c]),
                        saliency=float(sal[r, c]),
                    )
                )
    entries.sort(key=lambda e: (e.saliency, e.layer, e.row, e.col))
    return entries


def obs_compensate(row, q: int, h_inv) -> np.ndarray:
    """Zero entry ``q`` of a weight row, spreading the correction over the rest.

    Applies the update ``-(w_q / (H^-1)_qq) * (H^-1) e_q``, the minimizer of
    the layer's quadratic calibration loss subject to the zeroing
    constraint; entry ``q`` is forced to exactly 0 so masks stay bit-exact.
    """
    r = linalg.as_vector(row, "row")
    hi = linalg.as_matrix(h_inv, "h_inv")
    d = r.shape[0]
    if hi.shape != (d, d):
        raise ValueError(f"h_inv shape {hi.shape} does not match row dim {d}")
    if not 0 <= q < d:
        raise ValueError(f"column index {q} out of range 0..{d - 1}")
    if not hi[q, q] > 0:
        raise ValueError(f"(H^-1)_qq must be positive, got {hi[q, q]}")
    out = r - (r[q] / hi[q, q]) * hi[:, q]
    out[q] = 0.0
    return out


class _LayerWork:
    """Mutable scratch for pruning one layer."""

    def __init__(self, layer: int, weight: np.ndarray, h_inv: np.ndarray | None):
        self.layer = layer
        self.original = weight
        self.work = weight.copy()
        self.mask: list[tuple[int, int]] = []
        self.h_inv = h_inv
        self.row_h_inv: dict[int, np.ndarray] = {}
        self.compensated = False

    def snapshot(self, row: int):
        hinv = self.row_h_inv.get(row)
        return (
            len(self.mask),
            self.work[row].copy(),
            None if hinv is None else hinv.copy(),
        )

    def restore(self, row: int, snap) -> None:
        n_mask, row_vals, hinv = snap
        del self.mask[n_mask:]
        self.work[row] = row_vals
        if hinv is None:
            self.row_h_inv.pop(row, None)
        else:
            self.row_h_inv[row] = hinv

    def remove(self, row: int, col: int, compensate: bool, reestimate: bool) -> None:
        if compensate:
            hinv = self.row_h_inv.get(row, self.h_inv) if reestimate else self.h_inv
            self.work[row] = obs_compensate(self.work[row], col, hinv)
            self.compensated = True
            if reestimate:
                # fold the removed coordinate out of this row's inverse block;
                # its row/column go to zero so later updates cannot touch it
                updated = hinv - np.outer(hinv[:, col], hinv[col, :]) / hinv[col, col]
                updated[col, :] = 0.0
                updated[:, col] = 0.0
                self.row_h_inv[row] = updated
        else:
            self.work[row, col] = 0.0
        self.mask.append((row, col))

    def to_plan(self) -> LayerPrune:
        delta = self.work - self.original
        return LayerPrune(
            layer=self.layer,
            mask=tuple(self.mask),
            delta=delta,
            delta_spectral_norm=linalg.spectral_norm(delta) if delta.any() else 0.0,
            compensated=self.compensated,
        )


def _rebuild(p: MlpPolicy, works: dict[int, _LayerWork]) -> MlpPolicy:
    layers = []
    for k, layer in enumerate(p.layers):
        if k in works:
            layers.append(
                Layer(
                    weight=works[k].work,
                    bias=layer.bias,
                    activation=layer.activation,
                )
            )
        else:
            layers.append(layer)
    return MlpPolicy(layers=tuple(layers))


def _prepare_works(
    p: MlpPolicy,
    ks: Iterable[int],
    compensate: bool,
    damping,
    calib: CalibrationBatch | None,
) -> dict[int, _LayerWork]:
    if compensate and calib is None:
        raise ValueError("compensation needs the calibration batch to build H^-1")
    works = {}
    for k in sorted(set(ks)):
        h_inv = _layer_h_inv(calib.inputs[k], damping) if compensate else None
        works[k] = _LayerWork(k, p.layers[k].weight, h_inv)
    return works


def apply_plan(
    p: MlpPolicy,
    entries: list[SaliencyEntry],
    count: int,
    compensate: bool = False,
    damping=0.0,
    calib: CalibrationBatch | None = None,
    reestimate: bool = False,
) -> tuple[MlpPolicy, PrunePlan]:
    """Prune the first ``count`` entries, returning the new policy and plan.

    Zero-only pruning just masks weights.  With ``compensate`` the remaining
    entries of each touched row absorb the removal, processed in entry order
    with the curvature held fixed; ``reestimate`` refreshes the row's
    inverse block after every removal instead.  Biases are never modified.
    """
    if count < 0 or count > len(entries):
        raise ValueError(f"count must lie in 0..{len(entries)}, got {count}")
    selected = entries[:count]
    works = _prepare_works(p, (e.layer for e in selected), compensate, damping, calib)
    for e in selected:
        works[e.layer].remove(e.row, e.col, compensate, reestimate)
    plan = PrunePlan(layers=tuple(works[k].to_plan() for k in sorted(works)))
    return _rebuild(p, works), plan


def prune_to_budget(
    p: MlpPolicy,
    entries: list[SaliencyEntry],
    caps: Mapping[int, float],
    compensate: bool = False,
    damping=0.0,
    calib: CalibrationBatch | None = None,
    reestimate: bool = False,
) -> tuple[MlpPolicy, PrunePlan, dict[int, list[SaliencyEntry]]]:
    """Prune each capped layer as far as its delta-norm allowance permits.

    Walks the saliency order per layer and stops at the first removal that
    would push ``||delta||_2`` past the layer's cap.  Returns the pruned
    policy, the plan, and the entries actually removed per layer.
    """
    works = _prepare_works(p, caps.keys(), compensate, damping, calib)
    taken: dict[int, list[SaliencyEntry]] = {k: [] for k in works}
    open_caps = {k: float(caps[k]) for k in works}
    for e in entries:
        cap = open_caps.get(e.layer)
        if cap is None or (cap <= 0.0 and not np.isinf(cap)):
            continue
        work = works[e.layer]
        snap = work.snapshot(e.row)
        work.remove(e.row, e.col, compensate, reestimate)
        delta = work.work - work.original
        norm = linalg.spectral_norm(delta) if delta.any() else 0.0
        if norm > cap:
            work.restore(e.row, snap)
            # close the layer: taking later (higher-saliency) entries instead
            # of this one would reorder the plan nondeterministically
            open_caps[e.layer] = 0.0
            continue
        taken[e.layer].append(e)
    plan = PrunePlan(layers=tuple(works[k].to_plan() for k in sorted(works)))
    return _rebuild(p, works), plan, taken
