"""Second-order weight pruning: saliency scoring, masking, compensation.

Each layer's curvature is the shared block ``2 X X^T`` built from the
calibration activations of the unpruned policy, so scoring never needs
gradients or labels.  ``rank_weights`` scores every selected weight at
once and returns a ``Ranking`` of parallel arrays in removal order; no
per-weight Python object is built between scoring and the plan.  Plans
record exactly which positions were zeroed and the spectral norm of the
per-layer weight change, which is what the certifier consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from prunecert import linalg
from prunecert.linalg import _EPS, _frozen
from prunecert.policy import Layer, MlpPolicy, _propagate

__all__ = [
    "CalibrationBatch",
    "Ranking",
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


@dataclass(frozen=True, eq=False)
class Ranking:
    """Scored weights in removal order, as parallel 1-D arrays.

    Entry ``i`` is weight ``(row[i], col[i])`` of layer ``layer[i]``, scored
    ``saliency[i]``; lower saliency means safer to remove.  Indexing with a
    slice or a boolean mask gives another ``Ranking`` in the same order.
    """

    layer: np.ndarray
    row: np.ndarray
    col: np.ndarray
    saliency: np.ndarray

    def __post_init__(self):
        arrays = {
            "layer": np.asarray(self.layer, dtype=np.intp),
            "row": np.asarray(self.row, dtype=np.intp),
            "col": np.asarray(self.col, dtype=np.intp),
            "saliency": np.asarray(self.saliency, dtype=np.float64),
        }
        if any(a.ndim != 1 or a.shape != arrays["layer"].shape for a in arrays.values()):
            raise ValueError("ranking arrays must be 1-D and of one length")
        for name, a in arrays.items():
            object.__setattr__(self, name, _frozen(a))

    def __len__(self) -> int:
        return self.layer.shape[0]

    def __getitem__(self, index) -> "Ranking":
        return Ranking(self.layer[index], self.row[index], self.col[index], self.saliency[index])

    def by_layer(self) -> dict[int, "Ranking"]:
        """One sub-ranking per layer present, ascending by layer, order kept."""
        # bincount rather than np.unique, whose first call imports numpy.ma
        present = np.flatnonzero(np.bincount(self.layer))
        return {int(k): self[self.layer == k] for k in present}


@dataclass(frozen=True, eq=False)
class LayerPrune:
    """Weight change applied to one layer: masked positions plus the dense
    delta ``W_pruned - W_original`` and its spectral norm.

    ``mask`` is an ``(n, 2)`` integer array of zeroed ``(row, col)``
    positions, in removal order when the plan came from a ranking.
    """

    layer: int
    mask: np.ndarray
    delta: np.ndarray
    delta_spectral_norm: float
    compensated: bool

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=np.intp)
        if mask.ndim != 2 or mask.shape[1] != 2:
            raise ValueError(f"mask must have shape (n, 2), got {mask.shape}")
        object.__setattr__(self, "mask", _frozen(mask))
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
            layers.append(
                LayerPrune(
                    layer=int(k),
                    mask=np.argwhere(d),
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
            off_mask = delta.copy()
            off_mask[zeroed] = 0.0
            layers.append(
                LayerPrune(
                    layer=k,
                    mask=np.argwhere(zeroed),
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
) -> Ranking:
    """Score every weight in the selected layers, ascending by saliency.

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
    parts = []
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
        rows, cols = np.indices(sal.shape).reshape(2, -1)
        parts.append((np.full(sal.size, k, dtype=np.intp), rows, cols, sal.ravel()))
    layer, row, col, saliency = (np.concatenate(a) for a in zip(*parts))
    # lexsort's last key is the primary one: (saliency, layer, row, col)
    order = np.lexsort((col, row, layer, saliency))
    return Ranking(layer[order], row[order], col[order], saliency[order])


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


def _row_change_norm(original: np.ndarray, before: np.ndarray, after: np.ndarray) -> float:
    """Upper bound on the 2-norm of the change one update makes to a row of
    the computed delta, from ``fl(before - original)`` to ``fl(after - original)``.

    Those rows are rounded exactly as ``_LayerWork.delta_norm`` rounds them.
    Their difference ``v`` rounds once more, so the exact change is at most
    ``||v|| / (1 - u)``, ``u = eps/2``.  ``np.linalg.norm(v)`` is
    ``sqrt(v @ v)``; the dot product errs by at most ``gamma_n ||v||^2`` in
    any summation order, fused multiply-add included (Higham sec. 3.1), plus
    ``2^-1075`` per underflowing square, which the ``n 2^-1074`` term under
    the root restores.  The add, root and multiply lose ``3u`` more, and
    ``1 + (n + 4) eps`` covers all of it with room to spare.
    """
    v = (after - original) - (before - original)
    n = v.shape[0]
    return math.sqrt(float(v @ v) + n * 5e-324) * (1.0 + (n + 4) * _EPS)


class _LayerWork:
    """Mutable scratch for pruning one layer."""

    def __init__(self, layer: int, weight: np.ndarray, h_inv: np.ndarray | None):
        self.layer = layer
        self.original = weight
        self.work = weight.copy()
        self.h_inv = h_inv
        self.row_h_inv: dict[int, np.ndarray] = {}

    def remove(self, row: int, col: int, compensate: bool, reestimate: bool) -> None:
        if compensate:
            hinv = self.row_h_inv.get(row, self.h_inv) if reestimate else self.h_inv
            self.work[row] = obs_compensate(self.work[row], col, hinv)
            if reestimate:
                # fold the removed coordinate out of this row's inverse block;
                # its row/column go to zero so later updates cannot touch it
                updated = hinv - np.outer(hinv[:, col], hinv[col, :]) / hinv[col, col]
                updated[col, :] = 0.0
                updated[:, col] = 0.0
                self.row_h_inv[row] = updated
        else:
            self.work[row, col] = 0.0

    def delta_norm(self) -> float:
        delta = self.work - self.original
        return linalg.spectral_norm(delta) if delta.any() else 0.0

    def to_plan(self, taken: Ranking, compensated: bool) -> LayerPrune:
        return LayerPrune(
            layer=self.layer,
            mask=np.column_stack((taken.row, taken.col)),
            delta=self.work - self.original,
            delta_spectral_norm=self.delta_norm(),
            compensated=compensated,
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
    ranking: Ranking,
    count: int,
    compensate: bool = False,
    damping=0.0,
    calib: CalibrationBatch | None = None,
    reestimate: bool = False,
) -> tuple[MlpPolicy, PrunePlan]:
    """Prune the first ``count`` ranked weights, returning the new policy and plan.

    Zero-only pruning just masks weights.  With ``compensate`` the remaining
    entries of each touched row absorb the removal, processed in ranking
    order with the curvature held fixed; ``reestimate`` refreshes the row's
    inverse block after every removal instead.  Biases are never modified.
    Each layer's mask lists its removals in ranking order.
    """
    if count < 0 or count > len(ranking):
        raise ValueError(f"count must lie in 0..{len(ranking)}, got {count}")
    selected = ranking[:count].by_layer()
    works = _prepare_works(p, selected, compensate, damping, calib)
    for k, taken in selected.items():
        work = works[k]
        if compensate:
            # layers never interact, so ranking order within each layer is
            # the whole removal order
            for row, col in zip(taken.row.tolist(), taken.col.tolist()):
                work.remove(row, col, compensate, reestimate)
        else:
            work.work[taken.row, taken.col] = 0.0
    plan = PrunePlan(
        layers=tuple(works[k].to_plan(selected[k], compensate) for k in works)
    )
    return _rebuild(p, works), plan


def prune_to_budget(
    p: MlpPolicy,
    ranking: Ranking,
    caps: Mapping[int, float],
    compensate: bool = False,
    damping=0.0,
    calib: CalibrationBatch | None = None,
    reestimate: bool = False,
) -> tuple[MlpPolicy, PrunePlan, dict[int, Ranking]]:
    """Prune each capped layer as far as its delta-norm allowance permits.

    Walks the ranking per layer and stops at the first removal that would
    push ``spectral_norm(delta)`` past the layer's cap.  Returns the pruned
    policy, the plan, and per capped layer the prefix of its ranking
    actually removed.

    Most removals need no eigen-solve.  A running ``upper`` starts at 0 and
    never falls below ``||delta||_2``: each removal changes one row of
    ``delta``, a rank-one change ``E`` whose ``||E||_2`` is that row
    change's 2-norm (``|w_q|`` when only zeroing), and by Weyl
    ``||delta + E||_2 <= upper + ||E||_2``.  The row norm is bounded by
    ``_row_change_norm`` and the sum stepped one ulp outward, so no rounding
    breaks the bound.  When ``linalg.spectral_norm_ceiling(upper)``, the
    largest value the exact norm could return, is within the cap, the exact
    norm is within it too and the removal is accepted.  Otherwise the exact
    norm decides, as it always did, and becomes the new ``upper``.  So every
    decision, and with it the plan, is the one an exact norm per removal
    gives.
    """
    works = _prepare_works(p, caps.keys(), compensate, damping, calib)
    per_layer = ranking[np.isin(ranking.layer, list(works))].by_layer()
    taken: dict[int, Ranking] = {}
    layers = []
    for k, work in works.items():
        cap = float(caps[k])
        entries = per_layer.get(k, ranking[:0])
        if cap <= 0.0 and not np.isinf(cap):
            entries = entries[:0]
        n = 0
        upper = 0.0  # never below ||delta||_2
        for row, col in zip(entries.row.tolist(), entries.col.tolist()):
            saved = work.work[row].copy()
            work.remove(row, col, compensate, reestimate)
            if compensate:
                grow = _row_change_norm(work.original[row], saved, work.work[row])
            else:
                grow = abs(float(saved[col]))
            upper = math.nextafter(upper + grow, math.inf)
            if linalg.spectral_norm_ceiling(upper, work.work.shape) > cap:
                upper = work.delta_norm()
                if upper > cap:
                    # close the layer: taking later (higher-saliency) entries
                    # instead of this one would reorder the plan nondeterministically
                    work.work[row] = saved
                    break
            n += 1
        taken[k] = entries[:n]
        layers.append(work.to_plan(taken[k], compensate and n > 0))
    return _rebuild(p, works), PrunePlan(layers=tuple(layers)), taken
