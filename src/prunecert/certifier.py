"""Closed-form deviation bounds for pruned policies, plus their audits.

For a policy with non-expansive activations, perturbing layer k's weights by
``delta`` moves the output at state s by at most ``C_k(s) * ||delta||_2``,
where ``C_k`` depends only on the unpruned spectral norms, the bias norms,
and ``||s||_2``.  Perturbing several layers adds the per-layer terms.

``certify`` is the one producer of a certificate: it reads the delta norms
off an (original, pruned) pair, weights them by the worst-case constants on
the certified ball, and audits the sum on sampled states with
``audit_states``, the one per-state audit, which the simulator shares.  It
flags a state when the state's bound is broken by more than the rounding of
the arithmetic that measured it can explain, so a flag on a finite deviation
and bound is a proven breach at any scale, and a certificate holds when no
state is flagged.  One private evaluator computes every constant from plain
tuples of weight and bias norms, with no policy in hand, so the budget, the
per-state bounds and the inverse problem's caps share the same arithmetic
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from prunecert import linalg
from prunecert.policy import MlpPolicy, forward_batch
from prunecert.pruner import PrunePlan

__all__ = [
    "StateSpaceSpec",
    "CertificateRow",
    "AuditSummary",
    "Certificate",
    "StateAudit",
    "audit_states",
    "certify",
    "admissible_magnitude",
    "sample_states",
    "per_state_bounds",
]

@dataclass(frozen=True, eq=False)
class StateSpaceSpec:
    """Euclidean ball of certified states, optionally cut to an axis box.

    ``radius`` is the largest Euclidean norm any certified state may have;
    a box, when present, must fit inside that ball (it drives the sampler).
    Without a radius, the ball is the tightest one around the box.
    """

    dim: int
    radius: float | None = None
    box: tuple[np.ndarray, np.ndarray] | None = None
    source: str = "radius"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        box = linalg.as_box(self.box, self.dim)
        # the norm of the box's farthest corner from the origin
        corner = None if box is None else float(linalg.vector_norm(np.maximum(*map(np.abs, box))))
        if self.radius is None and corner is None:
            raise ValueError("a state space needs a radius or a box")
        radius = corner if self.radius is None else float(self.radius)
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and nonnegative, got {radius}")
        object.__setattr__(self, "radius", radius)
        if self.source not in ("radius", "states"):
            raise ValueError(f"unknown radius source {self.source!r}")
        # relative slack for the corner's rounding, never above 1e-12
        if corner is not None and corner > radius + 1e-12 * min(radius, 1.0):
            raise ValueError(
                "box does not fit inside the certified ball: farthest corner "
                f"norm {corner:.17g} > radius {radius:.17g}"
            )
        object.__setattr__(self, "box", box)

    @classmethod
    def from_states(cls, states) -> "StateSpaceSpec":
        """Radius taken as the largest norm over a validation set of states,
        one per row."""
        rows = linalg.as_matrix(states, "states")
        return cls(dim=rows.shape[1], radius=float(linalg.vector_norm(rows, axis=1).max()),
                   source="states")


@dataclass(frozen=True)
class CertificateRow:
    """One pruned layer's share of the budget."""

    layer: int
    c_max: float
    delta_spectral: float
    contribution: float


@dataclass(frozen=True)
class AuditSummary:
    """Monte-Carlo evidence for (or against) a certificate."""

    samples: int
    max_dev: float
    mean_dev: float
    violations: int
    tightness: float
    margin: float
    seed: int


@dataclass(frozen=True, eq=False)
class Certificate:
    """Per-layer deviation constants, their weighted sum, and audit evidence.

    ``budget`` is the plain left-to-right sum of the row contributions in
    ascending layer order, so reported numbers always re-add exactly.
    """

    rows: tuple[CertificateRow, ...]
    budget: float
    radius: float
    radius_source: str
    audit: AuditSummary

    def delta_norms(self) -> tuple[tuple[int, float], ...]:
        return tuple((r.layer, r.delta_spectral) for r in self.rows)

    @property
    def holds(self) -> bool:
        """No audited state breaks its bound (see ``audit_states``)."""
        return self.audit.violations == 0


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def _constants(norms: Sequence[float], biases: Sequence[float], layers: Iterable[int], snorm):
    """``C_k`` at the state norm ``snorm`` (a scalar or an array), one per
    layer k of ``layers``, from plain tuples of each layer's weight spectral
    norm and bias norm: ``snorm`` times the norm product over the other
    layers, plus one carry-over term per bias below layer k, each added in
    turn.  Every certified number comes from here, in this order.

    A product with an exactly zero input (the state norm, a bias norm or a
    weight norm) is 0, even against inf, since a zero norm carries nothing,
    as in ``_times``.  Computed, such a product is 0 or NaN, so only a
    product that is not finite needs the test.  A zero that a running product
    underflowed to is not exact, so where it meets inf the constant is still
    NaN."""
    L = len(norms)
    out = []
    for k in layers:
        if not 0 <= k < L:
            raise ValueError(f"layer index {k} out of range 0..{L - 1}")
        others = [norms[m] for m in range(L) if m != k]
        prod_rest = math.prod(others)  # left to right, as every product here
        if 0.0 < prod_rest < math.inf:  # no input is 0, and no inf meets a 0
            c = snorm * prod_rest
        else:
            with np.errstate(invalid="ignore"):
                c = snorm * prod_rest
            zero = (snorm == 0.0) | (0.0 in others)
            c = np.where(zero, 0.0, c) if np.ndim(c) else (0.0 if zero else c)
        for j in range(k):
            factors = [biases[j], *(norms[m] for m in range(j + 1, L) if m != k)]
            term = math.prod(factors)
            c = c + (0.0 if math.isnan(term) and 0.0 in factors else term)
        out.append(c)
    return out


def _worst_constants(p: MlpPolicy, layers: Sequence[int], radius: float) -> list[float]:
    """``C_k,max`` of each layer of ``layers`` on the sphere of ``radius``; a NaN
    constant (a norm product that underflowed to 0 and met inf) bounds
    nothing, so it is an error."""
    c_maxes = _constants(p.weight_spectral_norms, p.bias_norms, layers, radius)
    for k, c in zip(layers, c_maxes):
        if math.isnan(c):
            raise ValueError(f"layer {k}: the worst-case constant is NaN, so it bounds nothing")
    return c_maxes


def _check_space(p: MlpPolicy, space: StateSpaceSpec) -> None:
    if space.dim != p.input_dim:
        raise ValueError(
            f"state space dim {space.dim} does not match policy input {p.input_dim}"
        )


def per_state_bounds(
    p: MlpPolicy, delta_norms: Sequence[tuple[int, float]], snorms
) -> np.ndarray:
    """Per-state deviation bounds for a batch of state norms.

    Uses the same term-by-term accumulation as the budget, so a state on the
    boundary sphere reproduces the budget bit for bit.
    """
    sn = np.asarray(snorms, dtype=float)
    total = np.zeros_like(sn)
    cs = _constants(p.weight_spectral_norms, p.bias_norms, [k for k, _ in delta_norms], sn)
    for (_, dn), c in zip(delta_norms, cs):
        total = total + dn * c
    return total


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

def admissible_magnitude(
    p: MlpPolicy, layers: Iterable[int], epsilon: float, space: StateSpaceSpec
) -> dict[int, float]:
    """Largest per-layer delta norms whose contributions sum to ``epsilon``.

    The budget is split evenly over the distinct layers listed, and each
    layer's cap is its share over its worst-case constant.  Any other split
    is one call per layer with that layer's share.  An infinite share caps
    nothing, and neither does a zero constant: that layer cannot contribute.
    A NaN constant caps nothing soundly, so it is an error that names the
    layer.
    """
    if not epsilon >= 0:
        raise ValueError(f"error budget must be nonnegative, got {epsilon}")
    ks = sorted({int(k) for k in layers})
    if not ks:
        raise ValueError("need at least one layer")
    share = epsilon / len(ks)
    _check_space(p, space)
    c_maxes = _worst_constants(p, ks, space.radius)
    return {k: share / c if 0.0 < c and share < math.inf else math.inf
            for k, c in zip(ks, c_maxes)}


# ---------------------------------------------------------------------------
# certificate: budget and audit
# ---------------------------------------------------------------------------

def sample_states(space: StateSpaceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` states inside the certified space, one per row.

    Without a box the draw is volume-uniform in the ball; with a box it is
    uniform over the box (which construction guarantees sits in the ball).
    Overshoot below 1e-9 relative is scaled back to at most the radius;
    anything larger means the sampler itself is broken.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if space.box is not None:
        lo, hi = space.box
        states = rng.uniform(lo, hi, size=(n, space.dim))
    else:
        dirs = rng.standard_normal((n, space.dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs / np.where(norms == 0.0, 1.0, norms)
        radii = space.radius * rng.random(n) ** (1.0 / space.dim)
        states = dirs * radii[:, None]
    ns = linalg.vector_norm(states, axis=1)
    if (ns > space.radius * (1.0 + 1e-9)).any():
        raise RuntimeError("sampler bug: drew a state outside the certified space")
    over = np.flatnonzero(ns > space.radius)
    factor, shrink = (space.radius / ns[over])[:, None], linalg._EPS
    while over.size:
        states[over] *= factor
        # the product rounds: shrink any state left outside, more each pass
        over = over[linalg.vector_norm(states[over], axis=1) > space.radius]
        factor, shrink = 1.0 - shrink, 2.0 * shrink
    return states


@dataclass(frozen=True, eq=False)
class StateAudit:
    """Per-state audit of a batch; entry (or column) i belongs to state i."""

    deviation: np.ndarray  # ||pi(s) - pi_hat(s)||_2
    bound: np.ndarray  # per_state_bounds at ||s||_2
    norm: np.ndarray  # ||s||_2
    # not deviation <= (bound + a ||s|| + b) f (see _allowance), so NaN counts
    violation: np.ndarray


def _times(x: float, y: float) -> float:
    """``x * y`` of two nonnegative bounds, one ulp up; 0 when either is 0,
    even against inf, since a zero norm carries nothing."""
    return linalg._up(x * y) if x and y else 0.0


def _allowance(original: MlpPolicy, pruned: MlpPolicy, delta_norms) -> tuple[float, float, float]:
    """``(a, b, f)`` such that a state whose computed deviation exceeds
    ``(bound + a ||s|| + b) f``, all as computed, breaks its bound in exact
    arithmetic: the rounding of ``audit_states`` cannot explain the excess.

    Write ``u = eps/2``, ``gamma_k = k u / (1 - k u) <= k eps``, ``n`` for the
    widest dimension of any layer and ``L`` for the depth (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3).

    1. One layer, as ``_propagate`` computes it from its computed input
       ``x``, is off from ``phi(W x + b)`` by at most
       ``gamma_{n+4} (||W||_F ||x|| + ||b||)``: ``gamma_{n+1}`` for the matmul
       in any summation order plus the bias add, and ``gamma_3`` of the
       pre-activation for the activation's own rounding (none for ReLU and
       identity, one multiply for leaky ReLU and PReLU, and for ELU a
       multiply after ``expm1``, assumed within one ulp as libm documents:
       the same kind of assumption ``spectral_norm`` makes of its
       eigensolver).
       ``||W||_F <= sqrt(min(shape)) N`` for any ``N >= ||W||_2``.
    2. Each activation is 1-Lipschitz, so an error at a layer's input grows
       by at most ``N``; for ``pi`` that is ``original``'s norm tuple, and for
       ``pi_hat`` Weyl's ``||W_k|| + ||dW_k||`` with the delta norms as
       given.  Carried layer by layer, with the computed input's own norm
       bounded the same way (head ``hs ||s|| + h1``), the forward error of
       each pass is at most ``es ||s|| + e1``, second-order terms included.
       ``a`` and ``b`` sum both passes' ``es`` and ``e1``.
    3. ``f = 1 + (6L + 3n + 14) eps`` covers the relative rest.  The bound's
       products and sums (``gamma_{3L}``) and the state and bias norms it
       reads (``gamma_{n+2}``) can each fall below the exact value, so the
       exact bound is at most ``1 + gamma_{6L+2n+4}`` times the computed one
       (``1 / (1 - gamma_k) <= 1 + gamma_{2k}``), and ``a`` and ``b``, built
       from the same norms, take the same factor.  The output difference and
       its norm add ``gamma_{n+2}``, and the test's own four roundings ``8u``.
    4. Underflow adds at most ``2^-1075`` absolute per product, never
       relative.  Fewer than ``count`` of them occur, each carried up by
       at most ``||s||``, the largest delta norm and the norms above 1 of
       the grown tuple, so ``count 5e-324`` times those carries is added to
       ``a`` and to ``b``.

    Every step rounds upward (``linalg._up``).  A zero norm carries 0, and
    an overflow gives inf, never NaN, unless a delta norm is NaN, which
    flags every state.  An output that overflows gives an inf or NaN
    deviation, and a NaN bound fails the test too: the audit flags what it
    cannot vouch for.
    """
    up = linalg._up
    grown = list(original.weight_spectral_norms)
    for k, dn in delta_norms:
        grown[k] = up(grown[k] + dn)
    n = max(max(layer.weight.shape) for layer in original.layers)
    gamma = (n + 4) * linalg._EPS
    a = b = 0.0
    for p, norms in ((original, original.weight_spectral_norms), (pruned, grown)):
        hs, h1, es, e1 = 1.0, 0.0, 0.0, 0.0
        for layer, nk, bk in zip(p.layers, norms, p.bias_norms):
            g = _times(_times(gamma, up(math.sqrt(min(layer.weight.shape)))), nk)
            ls, l1 = _times(g, hs), up(_times(g, h1) + _times(gamma, bk))
            es, e1 = up(_times(nk, es) + ls), up(_times(nk, e1) + l1)
            hs, h1 = up(_times(nk, hs) + ls), up(up(_times(nk, h1) + bk) + l1)
        a, b = up(a + es), up(b + e1)
    L = len(grown)
    carry = max([1.0, *(dn for _, dn in delta_norms)])
    for nk in grown:
        carry = _times(carry, max(nk, 1.0))
    count = 2 * L * (n + 1) ** 2 + 4 * L * (L + 1) + 3
    under = _times(count * 5e-324, carry)
    return up(a + under), up(b + under), 1.0 + (6 * L + 3 * n + 14) * linalg._EPS


def audit_states(original: MlpPolicy, pruned: MlpPolicy, delta_norms, states) -> StateAudit:
    """The one per-state audit: both policies on the columns of ``states``
    (input_dim, n), each state judged against its bound.  A state is a
    violation unless its deviation is within its bound plus the rounding
    allowance of ``_allowance``, which scales with the state, so a flag on
    a finite deviation and bound is a proven breach at any scale."""
    diff = forward_batch(original, states) - forward_batch(pruned, states)
    deviation = linalg.vector_norm(diff, axis=0)
    norm = linalg.vector_norm(states, axis=0)
    bound = per_state_bounds(original, delta_norms, norm)
    a, b, f = _allowance(original, pruned, delta_norms)
    with np.errstate(over="ignore"):  # an overflowing limit is inf
        # a ||s||, which is 0 at s = 0 even for an infinite a
        limit = norm * a if math.isfinite(a) else np.where(norm > 0.0, a, 0.0)
        limit += bound
        limit += b
        limit *= f
    # negated so that a NaN deviation (inf - inf outputs) or a NaN bound is
    # a violation too
    violation = ~(deviation <= limit)
    return StateAudit(deviation, bound, norm, violation)


def certify(
    original: MlpPolicy, pruned: MlpPolicy, space: StateSpaceSpec, n: int, seed: int
) -> Certificate:
    """Budget the (original, pruned) pair on ``space`` and audit it.

    The delta norms come from the pair itself (``PrunePlan.from_policies``),
    so a certificate always describes the models it was computed from.  The
    budget weights each layer's worst-case constant, which sits on the sphere
    of radius ``space.radius`` since ``C_k`` increases with ``||s||``, by its
    delta norm and sums in ascending layer order.  A NaN constant, or a NaN
    contribution (a zero constant times an infinite delta norm), is an
    error that names the layer, so the budget is never NaN.  The audit draws
    ``n`` states and counts ``audit_states``' flags.
    """
    _check_space(original, space)
    delta_norms = PrunePlan.from_policies(original, pruned).delta_norms()
    ks = [k for k, _ in delta_norms]
    c_maxes = _worst_constants(original, ks, space.radius)
    rows = tuple(
        CertificateRow(layer=k, c_max=float(c), delta_spectral=dn, contribution=float(c) * dn)
        for (k, dn), c in zip(delta_norms, c_maxes)
    )
    budget = 0.0
    for r in rows:
        if math.isnan(r.contribution):
            raise ValueError(f"layer {r.layer}: the contribution is NaN, so it bounds nothing")
        budget = budget + r.contribution
    states = sample_states(space, n, np.random.default_rng(seed))
    audit = audit_states(original, pruned, delta_norms, states.T)
    max_dev = float(audit.deviation.max())
    summary = AuditSummary(
        samples=int(n),
        max_dev=max_dev,
        mean_dev=float(audit.deviation.mean()),
        violations=int(np.count_nonzero(audit.violation)),
        tightness=max_dev / budget if budget > 0 else (0.0 if max_dev == 0.0 else math.inf),
        margin=budget - max_dev,
        seed=int(seed),
    )
    return Certificate(rows, budget, space.radius, space.source, summary)
