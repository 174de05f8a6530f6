"""Second-order weight pruning: saliency scoring, masking, compensation.

Each layer's curvature is the shared block ``2 X X^T`` built from the
calibration activations of the unpruned policy, so scoring never needs
gradients or labels.  ``rank_weights`` scores every selected weight at
once and returns a ``Ranking`` of parallel arrays in removal order; no
per-weight Python object is built between scoring and the plan.
``prune_to_budget`` is the one walk down that ranking, with a cap on each
layer's delta norm; ``apply_plan`` is the same walk without a cap.  Plans
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
    "rank_weights",
    "obs_compensate",
    "uncapped_head",
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

    def layers_present(self) -> list[int]:
        """Indices of the layers with at least one entry, ascending."""
        # bincount rather than np.unique, whose first call imports numpy.ma
        return np.flatnonzero(np.bincount(self.layer)).tolist()


@dataclass(frozen=True, eq=False)
class LayerPrune:
    """Weight change applied to one layer: masked positions plus the
    spectral norm of the delta ``W_pruned - W_original``.

    ``mask`` is an ``(n, 2)`` integer array of zeroed ``(row, col)``
    positions, in removal order when the plan came from a ranking.
    """

    layer: int
    mask: np.ndarray
    delta_spectral_norm: float
    compensated: bool

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=np.intp)
        if mask.ndim != 2 or mask.shape[1] != 2:
            raise ValueError(f"mask must have shape (n, 2), got {mask.shape}")
        object.__setattr__(self, "mask", _frozen(mask))


@dataclass(frozen=True, eq=False)
class PrunePlan:
    """Per-layer perturbations, ascending by layer index."""

    layers: tuple[LayerPrune, ...]

    def __post_init__(self):
        ks = [lp.layer for lp in self.layers]
        if ks != sorted(set(ks)):
            raise ValueError("plan layers must be unique and ascending")

    def delta_norms(self) -> tuple[tuple[int, float], ...]:
        """(layer, ||delta||_2) pairs in ascending layer order."""
        return tuple((lp.layer, lp.delta_spectral_norm) for lp in self.layers)

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


def _layer_h_inv(x: np.ndarray, damping) -> np.ndarray | None:
    """Damped inverse curvature block, or ``None`` for an all-zero block
    under auto damping: a layer whose inputs are all zero on the
    calibration batch, where removing any weight changes no output."""
    h = linalg.gram(x)
    if damping != "auto":
        return linalg.damped_inverse(h, float(damping))
    return linalg.damped_inverse(h, linalg.auto_damping(h)) if h.any() else None


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
    may be a number or ``"auto"``; under ``"auto"`` a layer whose inputs are
    all zero on the calibration batch scores every weight 0.  Ties break on
    (layer, row, col) so rankings are reproducible.
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
            # a dead block scores each weight 0, its exact removal loss and the
            # limit lam -> 0 of the damped zero block's inverse diagonal 1/lam
            dinv = np.full(w.shape[1], np.inf) if h_inv is None else np.diag(h_inv)
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
    """Mutable scratch for pruning one layer; ``h_inv`` is ``None`` when
    removals only zero (zero-only pruning, or a dead curvature block)."""

    def __init__(self, weight: np.ndarray, h_inv: np.ndarray | None):
        self.original = weight
        self.work = weight.copy()
        self.h_inv = h_inv
        self.row_h_inv: dict[int, np.ndarray] = {}

    def remove(self, row: int, col: int, reestimate: bool) -> None:
        if self.h_inv is None:
            self.work[row, col] = 0.0
            return
        hinv = self.row_h_inv.get(row, self.h_inv) if reestimate else self.h_inv
        self.work[row] = obs_compensate(self.work[row], col, hinv)
        if reestimate:
            # fold the removed coordinate out of this row's inverse block;
            # its row/column go to zero so later updates cannot touch it
            updated = hinv - np.outer(hinv[:, col], hinv[col, :]) / hinv[col, col]
            updated[col, :] = 0.0
            updated[:, col] = 0.0
            self.row_h_inv[row] = updated

    def delta_norm(self) -> float:
        delta = self.work - self.original
        return linalg.spectral_norm(delta) if delta.any() else 0.0

    def walk(self, entries: Ranking, cap: float, reestimate: bool) -> int:
        """Remove ``entries`` in order while ``||delta||_2`` stays within
        ``cap``; return how many were removed."""
        if cap <= 0.0:
            return 0
        if cap == math.inf and self.h_inv is None:
            self.work[entries.row, entries.col] = 0.0
            return len(entries)
        n = 0
        upper = 0.0  # never below ||delta||_2
        for row, col in zip(entries.row.tolist(), entries.col.tolist()):
            saved = self.work[row].copy()
            self.remove(row, col, reestimate)
            if self.h_inv is None:
                grow = abs(float(saved[col]))
            else:
                grow = _row_change_norm(self.original[row], saved, self.work[row])
            upper = math.nextafter(upper + grow, math.inf)
            if linalg.spectral_norm_ceiling(upper, self.work.shape) > cap:
                upper = self.delta_norm()
                if upper > cap:
                    # close the layer: taking later (higher-saliency) entries
                    # instead of this one would reorder the plan nondeterministically
                    self.work[row] = saved
                    break
            n += 1
        return n


def uncapped_head(ranking: Ranking, count: int) -> tuple[Ranking, dict[int, float]]:
    """The first ``count`` ranked entries and an infinite cap on each layer
    they touch: the arguments under which ``prune_to_budget`` removes
    exactly those entries."""
    if count < 0 or count > len(ranking):
        raise ValueError(f"count must lie in 0..{len(ranking)}, got {count}")
    head = ranking[:count]
    return head, dict.fromkeys(head.layers_present(), math.inf)


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

    The uncapped walk: ``prune_to_budget`` on ``ranking[:count]`` with an
    infinite cap on each layer those entries touch, so every one of them is
    removed, the plan lists just those layers, and each layer's delta norm
    is computed once, for the plan.  The other arguments are passed through.
    """
    head, caps = uncapped_head(ranking, count)
    pruned, plan, _ = prune_to_budget(
        p, head, caps, compensate=compensate, damping=damping, calib=calib, reestimate=reestimate
    )
    return pruned, plan


def prune_to_budget(
    p: MlpPolicy,
    ranking: Ranking,
    caps: Mapping[int, float],
    compensate: bool = False,
    damping=0.0,
    calib: CalibrationBatch | None = None,
    reestimate: bool = False,
) -> tuple[MlpPolicy, PrunePlan, dict[int, Ranking]]:
    """Prune each capped layer down its ranking as far as its cap permits.

    The one removal walk.  Each layer ``k`` of ``caps`` takes its entries of
    ``ranking`` in order and stops at the first removal that would push
    ``spectral_norm(delta)`` past ``caps[k]``; a cap of 0 or below takes
    nothing, an infinite cap takes every entry, and a NaN cap is an error.
    Entries of uncapped layers are skipped.  Returns the pruned policy, the
    plan (one row per capped layer, ascending, its mask in ranking order)
    and per capped layer the prefix of its ranking actually removed.

    Zero-only pruning just masks weights.  With ``compensate`` the remaining
    entries of the row absorb each removal (``obs_compensate``) with the
    curvature held fixed; ``reestimate``, which needs ``compensate``,
    refreshes the row's inverse block after every removal instead.  Biases
    are never modified.

    An infinite cap needs no norm until the plan's own, and a zero-only
    layer under one is masked in a single assignment.  Under a finite cap
    most removals need no eigen-solve either.  A running ``upper`` starts at
    0 and never falls below ``||delta||_2``: each removal changes one row of
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
    if compensate and calib is None:
        raise ValueError("compensation needs the calibration batch to build H^-1")
    if reestimate and not compensate:
        raise ValueError("reestimate refreshes the compensation's inverse; it needs compensate")
    if any(math.isnan(cap) for cap in caps.values()):
        raise ValueError("a layer's cap is NaN")
    layers = list(p.layers)
    plan = []
    taken: dict[int, Ranking] = {}
    for k in sorted(caps):
        if not 0 <= k < p.num_layers:
            raise ValueError(f"layer index {k} out of range 0..{p.num_layers - 1}")
        h_inv = _layer_h_inv(calib.inputs[k], damping) if compensate else None
        work = _LayerWork(layers[k].weight, h_inv)
        entries = ranking[ranking.layer == k]
        n = work.walk(entries, float(caps[k]), reestimate)
        # a whole layer's entries are kept as they are, not copied again
        taken[k] = entries if n == len(entries) else entries[:n]
        plan.append(
            LayerPrune(
                layer=k,
                mask=np.column_stack((taken[k].row, taken[k].col)),
                delta_spectral_norm=work.delta_norm(),
                compensated=compensate and n > 0,
            )
        )
        layers[k] = Layer(weight=work.work, bias=layers[k].bias, activation=layers[k].activation)
    return MlpPolicy(layers=tuple(layers)), PrunePlan(layers=tuple(plan)), taken
