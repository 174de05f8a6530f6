"""Second-order weight pruning: saliency scoring, masking, compensation.

Each layer's curvature is the shared block ``2 X X^T`` of its inputs on a
calibration batch run through the unpruned policy, so scoring never needs
gradients or labels.  Scoring and the OBS re-fit read a layer through that
block alone, so ``collect_calibration`` keeps the blocks, each formed once
in the one forward pass, and the damping both add to them, but no
activation.  ``rank_weights`` scores every nonzero selected weight at once
and returns a ``Ranking`` of parallel arrays in removal order; no
per-weight Python object is built between scoring and the plan.
``prune_to_budget`` is the one walk down that ranking, with or without a
cap on each layer's delta norm; sparsity mode walks a prefix of the
ranking uncapped.  A plan records, per pruned layer, the positions zeroed
in removal order and the spectral norm of the weight change, which is what
the certifier consumes; the saliencies stay in the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from prunecert import linalg
from prunecert.linalg import _EPS, _frozen, _norm_bound, _plus, _times
from prunecert.policy import Layer, MlpPolicy, _columns, _propagate

__all__ = [
    "CalibrationBatch",
    "Ranking",
    "LayerPrune",
    "PrunePlan",
    "collect_calibration",
    "rank_weights",
    "obs_compensate",
    "prune_to_budget",
]


@dataclass(frozen=True, eq=False)
class CalibrationBatch:
    """Per-layer curvature blocks of a calibration batch and their damping,
    read-only: the one curvature model that ranking and re-fitting share.

    ``curvature[k]`` is the square block ``2 X_k X_k^T`` (``linalg.gram``)
    of the (in_dim_k x n) matrix ``X_k`` feeding layer k, one column per
    calibration state, collected from the unpruned policy.  A block may hold
    inf or NaN where ``2 X X^T`` overflows: ranking or re-fitting that layer
    rejects it, and a layer that is neither never reads it.  ``damping`` is
    a finite number >= 0, or ``"auto"`` for each block's ``auto_damping``;
    any other is a ``ValueError`` (an infinite one scores every weight
    alike, a NaN one every weight 0).
    """

    curvature: tuple[np.ndarray, ...]
    damping: float | str = 0.0

    def __post_init__(self):
        blocks = tuple(np.asarray(h, dtype=float) for h in self.curvature)
        if not blocks:
            raise ValueError("calibration batch needs at least one layer")
        for k, h in enumerate(blocks):
            if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
                raise ValueError(
                    f"layer {k}'s curvature block must be a nonempty square matrix, "
                    f"got shape {h.shape}"
                )
        object.__setattr__(self, "curvature", tuple(_frozen(h) for h in blocks))
        if self.damping != "auto":
            if not 0.0 <= float(self.damping) < math.inf:
                raise ValueError(
                    f"damping must be 'auto' or a finite number >= 0, got {self.damping!r}"
                )
            object.__setattr__(self, "damping", float(self.damping))

    def layer_damping(self, k: int) -> float:
        """Layer ``k``'s damping: the batch's number, or ``auto_damping`` of
        its block.  A block, or under auto damping its trace, past the float
        range is a ``ValueError`` that names the layer, in every mode: the
        layer's weights would all score inf and rank by position."""
        h = self.curvature[k]
        damping = self.damping
        finite = np.isfinite(h).all()
        if finite and damping == "auto":
            damping = linalg.auto_damping(h)
            finite = math.isfinite(damping)
        if not finite:
            raise ValueError(f"layer {k}: the calibration curvature 2 X X^T overflows")
        return float(damping)

    def layer_inverse(self, k: int) -> np.ndarray | None:
        """Damped inverse of layer ``k``'s curvature block, or ``None`` for an
        all-zero block under auto damping: a layer whose inputs are all zero
        on the calibration batch, where removing any weight changes no output."""
        lam = self.layer_damping(k)
        h = self.curvature[k]
        return None if self.damping == "auto" and not h.any() else linalg.damped_inverse(h, lam)


@dataclass(frozen=True, eq=False)
class Ranking:
    """Scored weights in removal order, as parallel 1-D arrays.

    Entry ``i`` is weight ``(row[i], col[i])`` of layer ``layer[i]``, scored
    ``saliency[i]``; lower saliency means safer to remove.  Indexing with a
    slice or a boolean mask gives another ``Ranking`` in the same order: a
    slice of views, a mask of fresh arrays.  The arrays are read-only.
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
        # a slice is a read-only view already; a mask's fresh gather is ours
        parts = [a[index] for a in (self.layer, self.row, self.col, self.saliency)]
        for a in parts:
            a.setflags(write=False)
        return Ranking(*parts)


@dataclass(frozen=True, eq=False)
class LayerPrune:
    """Weight change applied to one layer: masked positions plus the
    spectral norm of the delta ``W_pruned - W_original``.

    ``mask`` is an ``(n, 2)`` integer array of zeroed ``(row, col)``
    positions, in removal order when the plan came from a ranking.
    ``compensated`` is whether an OBS re-fit ran on the layer: false for
    zero-only pruning and for a dead curvature block, whose removals only
    zero.  ``PrunePlan.from_policies`` reads it off the weights instead:
    some weight changed without being zeroed.
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
            layers.append(
                LayerPrune(
                    layer=k,
                    mask=np.argwhere(zeroed),
                    delta_spectral_norm=linalg.spectral_norm(delta),
                    compensated=bool(np.any(delta, where=~zeroed)),
                )
            )
        return cls(layers=tuple(layers))


def collect_calibration(p: MlpPolicy, states, damping=0.0) -> CalibrationBatch:
    """Forward a set of states and keep each layer's curvature block, under
    ``damping`` (see ``CalibrationBatch``).

    ``states`` holds one state per row; layer 0 sees the raw states.  The
    one forward pass hands each layer's input ``X_k`` (column j is what
    state j presents to layer k) to a visitor that checks it finite and
    keeps ``gram(X_k)``, so no activation outlives the next layer's read.  A
    block past the float range is kept as computed, with no warning: it is
    an error only for a layer that is ranked or re-fit.
    """
    blocks: list[np.ndarray] = []

    def visit(x: np.ndarray) -> None:
        linalg.as_matrix(x, f"layer {len(blocks)}'s calibration input")
        with np.errstate(over="ignore", invalid="ignore"):
            h = linalg.gram(x)
        h.setflags(write=False)  # a fresh array: the batch keeps it uncopied
        blocks.append(h)

    _propagate(p, _columns(p, states), visit)
    return CalibrationBatch(curvature=tuple(blocks), damping=damping)


def _score(w: np.ndarray, d: np.ndarray, op) -> np.ndarray:
    """``op(0.5 * w * w, d)``, ``d`` one value per column.  Where ``w * w``
    overflows the score may still be finite, so an entry inf or NaN that way
    is taken again as ``op(0.5 * w, d) * w``; every finite one keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        sal = op(0.5 * w * w, d)
        bad = ~np.isfinite(sal)
        if bad.any():
            sal[bad] = op(0.5 * w, d)[bad] * w[bad]
    return sal


def rank_weights(
    p: MlpPolicy,
    calib: CalibrationBatch,
    layers: Iterable[int],
    diagonal: bool = False,
) -> Ranking:
    """Score every nonzero weight in the selected layers, ascending by
    saliency.  A zero weight is not ranked: removing it changes nothing.

    The score divides each squared weight by the corresponding diagonal of
    the damped inverse curvature block; ``diagonal=True`` swaps in the
    classic 1/H_qq approximation instead of the full inverse.  The damping
    is the batch's; under ``"auto"`` a layer whose inputs are all zero on
    the calibration batch scores every weight 0.  A score whose
    squared weight overflows comes out finite when the score itself is.
    Ties break on (layer, row, col) so rankings are reproducible.
    """
    ks = sorted({int(k) for k in layers})
    if not ks:
        raise ValueError("need at least one layer to rank")
    if len(calib.curvature) != p.num_layers:
        raise ValueError(
            f"calibration has {len(calib.curvature)} layers but policy has {p.num_layers}"
        )
    scores, masks = [], []
    for k in ks:
        if not 0 <= k < p.num_layers:
            raise ValueError(f"layer index {k} out of range 0..{p.num_layers - 1}")
        h = calib.curvature[k]
        w = p.layers[k].weight
        if h.shape[0] != w.shape[1]:
            raise ValueError(
                f"layer {k}: calibration rows {h.shape[0]} != weight columns {w.shape[1]}"
            )
        if diagonal:
            hqq = np.diag(h) + calib.layer_damping(k)
            # 1/(H_qq) as the inverse diagonal; a zero H_qq means the input
            # coordinate never fires, so removal is free
            sal = np.where(hqq > 0.0, _score(w, hqq, np.multiply), 0.0)
        else:
            h_inv = calib.layer_inverse(k)
            if h_inv is None:  # a dead block: each removal's exact loss is 0
                sal = np.zeros(w.shape)
            elif (np.diag(h_inv) <= 0.0).any():
                raise ValueError(
                    f"layer {k}: Hessian inversion produced a nonpositive diagonal"
                )
            else:
                sal = _score(w, np.diag(h_inv), np.divide)
        scores.append(sal.ravel())
        masks.append(w.ravel() != 0.0)
    saliency = np.concatenate(scores)
    del scores
    # the scores are concatenated in (layer, row, col) order, so a stable
    # sort on saliency alone breaks its ties on (layer, row, col); dropping
    # the zero weights from the order, not from each layer's scores, adds no
    # copy of the scores to the peak memory
    order = np.argsort(saliency, kind="stable")
    order = order[np.concatenate(masks)[order]]
    del masks
    saliency = saliency[order]
    # each flat index names its layer by the last start at or below it, and
    # its (row, col) by its offset in that layer over the layer's width; the
    # widths and the (row, col) pairs are decoded into the two index buffers
    # in place, so the ranking's four arrays are the only ones left
    starts = np.cumsum([0] + [p.layers[k].weight.size for k in ks[:-1]], dtype=np.intp)
    at = np.searchsorted(starts, order, side="right")
    at -= 1
    order -= starts[at]
    layer = np.array(ks, dtype=np.intp)[at]
    # mode="clip" (the indices are in range) writes ``out`` without a copy
    np.take(np.array([p.layers[k].in_dim for k in ks], dtype=np.intp), at, out=at, mode="clip")
    row, col = np.divmod(order, at, out=(order, at))
    for a in (layer, row, col, saliency):
        a.setflags(write=False)
    return Ranking(layer, row, col, saliency)


def obs_compensate(row, cols, h_inv) -> np.ndarray:
    """Zero the entries ``cols`` of a row of original weights ``w``, re-fitting the rest.

    ``cols`` is the row's whole removed set ``S`` (an index or a sequence, in
    removal order).  Returns ``w - (H^-1)[:, S] ((H^-1)[S, S])^-1 w_S``, the
    minimizer of the layer's quadratic calibration loss subject to
    ``w_S = 0``; for one column ``q``, ``w - (w_q / (H^-1)_qq) (H^-1) e_q``.
    The entries ``S`` are forced to exactly 0 so masks stay bit-exact.  A
    singular ``(H^-1)[S, S]`` (a repeated column, say) is a ``ValueError``.
    """
    r = linalg.as_vector(row, "row")
    hi = np.asarray(h_inv, dtype=float)
    d = r.shape[0]
    if hi.shape != (d, d):
        raise ValueError(f"h_inv shape {hi.shape} does not match row dim {d}")
    s = np.asarray(cols, dtype=np.intp).reshape(-1)
    if not ((0 <= s) & (s < d)).all():
        raise ValueError(f"column index out of range 0..{d - 1}: {s.tolist()}")
    block = hi[:, s]  # the only columns the update reads, so the only ones checked
    bad = ~np.isfinite(block).all(axis=0)
    if bad.any():
        raise ValueError(f"h_inv column {s[bad][0]} contains non-finite entries")
    out = r - block @ np.linalg.solve(block[s], r[s])
    out[s] = 0.0
    return out


class _Anchor:
    """A running bound on ``||delta||_2`` that starts again at each exact norm.

    Write ``D0`` for the delta ``fl(work - original)`` that norm measured,
    ``s`` for its value and ``E`` for the exact change since, nonzero only in
    the changed rows ``R``.  For a unit vector ``x``,
    ``||(D0 + E) x||^2 = sum_r (D0_r.x + E_r.x)^2``, and ``2 (a.x)(b.x)`` is
    at most ``||a|| ||b|| + a.b`` (the largest eigenvalue of
    ``a b^T + b a^T``), so

        ||D0 + E||_2^2 <= s^2 + sum_{r in R} (||D0_r|| ||E_r|| + D0_r.E_r + ||E_r||^2).

    A zero-only removal zeroes a weight ``D0_r`` does not touch, so
    ``D0_r.E_r = 0``, and a row norm ``||D0_r||`` is far below ``s``: the
    sum grows much more slowly than Weyl's ``2 s sum ||E_r||``.

    Only the rows of ``D0`` in ``R`` are kept, each taken by ``keep`` just
    before its first change.  An overflow makes the bound inf, and an inf
    times 0 makes it NaN; the walk runs ``bound`` with those floating-point
    warnings off.
    """

    def __init__(self, norm: float, rows: int):
        self.square = _times(norm, norm)  # at least s^2; inf on overflow
        self.kept: dict[int, np.ndarray] = {}  # D0_r of each changed row
        self.stale: set[int] = set()  # rows changed since their term was taken
        self.terms = np.zeros(rows)  # each changed row's term; 0 elsewhere

    def keep(self, row: int, work: np.ndarray, original: np.ndarray) -> None:
        """Row ``row`` of ``work`` is about to change.  Unchanged since the
        anchor, ``fl(work - original)`` there is ``D0_r``, bit for bit."""
        self.stale.add(row)
        if row not in self.kept:
            self.kept[row] = work - original[row]

    def bound(self, work: np.ndarray, original: np.ndarray) -> float:
        """Upper bound on ``||fl(work - original)||_2``, or inf or NaN, which
        the walk never takes as a bound.

        Each changed row's term is taken again from ``D0_r``, never adjusted.
        ``||D0_r||`` and ``||E_r||`` are ``_norm_bound`` of ``D0_r`` and of
        ``v = fl(fl(work_r - original_r) - D0_r)``, which rounds ``E_r`` once
        more: ``u = eps/2`` per entry.  Its computed dot product with ``D0_r``
        errs by ``gamma_n ||D0_r|| ||v||`` plus ``2^-1075`` per underflowing
        product, so ``D0_r.E_r`` is at most the computed product plus
        ``(n + 2) eps ||D0_r|| ||E_r|| + n 2^-1074``.  Every product and sum
        of a term rounds one ulp up (``_times``, ``_plus``).  The terms are
        nonnegative, so their sum with ``s^2``, in any order, is low by at
        most ``gamma_m`` relative, ``m`` the number of rows; the factor
        ``1 + (m + 3) eps`` covers that, the root and the multiply.
        """
        for row in self.stale:
            d0 = self.kept[row]
            v = (work[row] - original[row]) - d0
            n = v.shape[0]
            e = _norm_bound(v)
            ae = _times(_norm_bound(d0), e)
            dot = _plus(float(d0 @ v), _plus(_times((n + 2) * _EPS, ae), n * 5e-324))
            self.terms[row] = _plus(_plus(ae, dot), _times(e, e))
        self.stale.clear()
        total = self.square + float(self.terms.sum())
        return math.sqrt(total) * (1.0 + (self.terms.shape[0] + 3) * _EPS)


class _LayerWork:
    """Mutable scratch for pruning one layer; ``h_inv`` is ``None`` when
    removals only zero (zero-only pruning, or a dead curvature block).
    Otherwise each touched row is re-fit from its original weights over
    ``removed[row]``, its removed columns in removal order."""

    def __init__(self, weight: np.ndarray, h_inv: np.ndarray | None):
        self.original = weight
        self.work = weight.copy()
        self.h_inv = h_inv
        self.removed: dict[int, list[int]] = {}

    def remove(self, row: int, col: int) -> None:
        if self.h_inv is None:
            self.work[row, col] = 0.0
            return
        cols = self.removed.setdefault(row, [])
        cols.append(col)
        self.work[row] = obs_compensate(self.original[row], cols, self.h_inv)

    def delta_norm(self) -> float:
        delta = self.work - self.original
        return linalg.spectral_norm(delta) if delta.any() else 0.0

    def walk(self, rows: np.ndarray, cols: np.ndarray, cap: float) -> int:
        """Remove the weights ``(rows[i], cols[i])`` in order while
        ``||delta||_2`` stays within ``cap``; return how many were removed."""
        if cap <= 0.0:
            return 0
        if cap == math.inf and self.h_inv is None:
            self.work[rows, cols] = 0.0  # one assignment, no per-weight Python object
            return len(rows)
        pairs = zip(rows.tolist(), cols.tolist())
        if cap == math.inf:
            for row, col in pairs:
                self.removed.setdefault(row, []).append(col)
            for row, removed in self.removed.items():
                self.work[row] = obs_compensate(self.original[row], removed, self.h_inv)
            return len(rows)
        n = 0
        anchor = _Anchor(0.0, self.work.shape[0])
        for row, col in pairs:
            saved = self.work[row].copy()
            anchor.keep(row, saved, self.original)
            self.remove(row, col)
            # an overflow makes the bound inf or NaN, and neither clears the cap
            with np.errstate(over="ignore", invalid="ignore"):
                bound = anchor.bound(self.work, self.original)
            if not linalg.spectral_norm_ceiling(bound, self.work.shape) <= cap:
                norm = self.delta_norm()
                if norm > cap:
                    # close the layer: taking later (higher-saliency) entries
                    # instead of this one would reorder the plan nondeterministically
                    self.work[row] = saved
                    if self.h_inv is not None:
                        self.removed[row].pop()
                    break
                anchor = _Anchor(norm, self.work.shape[0])
            n += 1
        return n


def prune_to_budget(
    p: MlpPolicy,
    ranking: Ranking,
    caps: Mapping[int, float] | None = None,
    calib: CalibrationBatch | None = None,
) -> tuple[MlpPolicy, PrunePlan]:
    """Prune each capped layer down its ranking as far as its cap permits.

    The one removal walk.  Each layer ``k`` of ``caps`` takes its entries of
    ``ranking`` in order and stops at the first removal that would push
    ``spectral_norm(delta)`` past ``caps[k]``; a cap of 0 or below takes
    nothing, an infinite cap takes every entry, and a NaN cap is an error.
    Entries of layers missing from ``caps`` are skipped.  ``caps=None`` puts
    an infinite cap on every layer present in ``ranking``, so every entry is
    removed: ``prune_to_budget(p, ranking[:count])`` prunes the ``count``
    lowest-saliency weights.  Returns the pruned policy and the plan, one
    row per capped layer, ascending; its mask is the ``(row, col)`` of the
    layer's first ``len(mask)`` entries in ``ranking``, in that order.

    Without ``calib`` pruning just masks weights.  Given a calibration
    batch, each pruned row's surviving weights are re-fit over its whole
    removed set (``obs_compensate`` from the row's original weights, against
    ``calib.layer_inverse``), so every masked weight is 0 in the pruned
    policy.  Biases are never modified.

    An infinite cap needs no bound and no norm until the plan's own: a
    zero-only layer is masked in a single assignment, and a compensated one
    re-fits each touched row once.  Under a finite cap most removals need no eigen-solve
    either.  One running bound never falls below ``||delta||_2``:
    ``_Anchor``'s row coupling, which starts again at each exact norm ``s``
    of a delta ``D0``.  The rows changed since, by ``E_r`` each, add
    ``||D0_r|| ||E_r|| + D0_r.E_r + ||E_r||^2`` to ``s^2``, rounded outward,
    so no rounding breaks the bound.  A row norm ``||D0_r||`` is at most
    ``s``, so in exact arithmetic this is never above Weyl's
    ``s + sum ||E_r||``, and a zero-only removal, with ``D0_r.E_r = 0``,
    grows it far more slowly.  When ``linalg.spectral_norm_ceiling`` of the
    bound, the largest value the exact norm could return, is within the
    cap, the exact norm is within it too and the removal is accepted.
    Otherwise (an overflowing bound is inf or NaN) the exact norm decides,
    as it always did, and starts a new anchor.  So every decision, and with
    it the plan, is the one an exact norm per removal gives.
    """
    if caps is None:
        # bincount rather than np.unique, whose first call imports numpy.ma
        caps = dict.fromkeys(np.flatnonzero(np.bincount(ranking.layer)).tolist(), math.inf)
    if any(math.isnan(cap) for cap in caps.values()):
        raise ValueError("a layer's cap is NaN")
    layers = list(p.layers)
    plan = []
    for k in sorted(caps):
        if not 0 <= k < p.num_layers:
            raise ValueError(f"layer index {k} out of range 0..{p.num_layers - 1}")
        h_inv = None if calib is None else calib.layer_inverse(k)
        work = _LayerWork(layers[k].weight, h_inv)
        # the layer's rows and columns alone, not its layer numbers and
        # saliencies, gathered into one read-only buffer whose head the mask views
        at = np.flatnonzero(ranking.layer == k)
        pos = np.empty((2, at.shape[0]), dtype=np.intp)
        for out, a in zip(pos, (ranking.row, ranking.col)):
            # mode="clip" (the indices are in range) writes ``out`` without a copy
            np.take(a, at, out=out, mode="clip")
        del at
        pos.setflags(write=False)
        n = work.walk(pos[0], pos[1], float(caps[k]))
        plan.append(
            LayerPrune(
                layer=k,
                mask=pos[:, :n].T,
                delta_spectral_norm=work.delta_norm(),
                compensated=work.h_inv is not None and n > 0,
            )
        )
        work.work.setflags(write=False)  # the pruned layer keeps it uncopied
        layers[k] = Layer(weight=work.work, bias=layers[k].bias, activation=layers[k].activation)
        # the next layer's inverse is formed after this layer's scratch is freed
        del h_inv, work, pos
    return MlpPolicy(layers=tuple(layers)), PrunePlan(layers=tuple(plan))
