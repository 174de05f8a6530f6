"""Closed-form deviation bounds for pruned policies, plus their audits.

For a policy with non-expansive activations, perturbing layer k's weights by
``delta`` moves the output at state s by at most ``C_k(s) * ||delta||_2``,
where ``C_k`` depends only on the unpruned spectral norms, the bias norms,
and ``||s||_2``.  Perturbing several layers adds the per-layer terms.

``certify`` is the one producer of a certificate: it reads the delta norms
off an (original, pruned) pair, weights them by the worst-case constants on
the certified ball, and audits the sum on sampled states with
``audit_states``, the one per-state audit, which the simulator shares.  One
private evaluator computes every constant, so the budget, the per-state
bounds and the inverse problem's caps share the same arithmetic bit for bit.
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
    "AUDIT_SLACK",
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

# absolute slack absorbing float rounding; anything larger is a real violation
AUDIT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class StateSpaceSpec:
    """Euclidean ball of certified states, optionally cut to an axis box.

    ``radius`` is the largest Euclidean norm any certified state may have;
    a box, when present, must fit inside that ball (it drives the sampler).
    """

    dim: int
    radius: float
    box: tuple[np.ndarray, np.ndarray] | None = None
    source: str = "radius"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        radius = float(self.radius)
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")
        object.__setattr__(self, "radius", radius)
        if self.source not in ("radius", "states"):
            raise ValueError(f"unknown radius source {self.source!r}")
        box = linalg.as_box(self.box, self.dim)
        if box is not None:
            corner = float(linalg.vector_norm(np.maximum(np.abs(box[0]), np.abs(box[1]))))
            # relative slack for the corner's rounding, never above 1e-12
            if corner > radius + 1e-12 * min(radius, 1.0):
                raise ValueError(
                    "box does not fit inside the certified ball: farthest corner "
                    f"norm {corner:.17g} > radius {radius:.17g}"
                )
        object.__setattr__(self, "box", box)

    @classmethod
    def from_states(cls, states: Iterable) -> "StateSpaceSpec":
        """Radius taken as the largest norm over a validation set of states."""
        vecs = [linalg.as_vector(s, "state") for s in states]
        if not vecs:
            raise ValueError("need at least one state")
        dim = vecs[0].shape[0]
        if any(v.shape[0] != dim for v in vecs):
            raise ValueError("states must share one dimension")
        radius = max(float(linalg.vector_norm(v)) for v in vecs)
        return cls(dim=dim, radius=radius, source="states")


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
        """Max deviation within the budget and no per-state violation."""
        a = self.audit
        return (
            a.max_dev <= self.budget + AUDIT_SLACK * max(self.budget, 1.0)
            and a.violations == 0
        )


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def _constants(p: MlpPolicy, layers: Iterable[int], snorm) -> list:
    """``C_k`` at the state norm ``snorm`` (a scalar or an array), one per
    layer k of ``layers``: ``snorm`` times the norm product over the other
    layers, plus one carry-over term per bias below layer k, each added in
    turn.  Every certified number comes from here, in this order."""
    w = p.weight_spectral_norms
    b = p.bias_norms
    L = p.num_layers
    out = []
    for k in layers:
        if not 0 <= k < L:
            raise ValueError(f"layer index {k} out of range 0..{L - 1}")
        prod_rest = 1.0
        for m in range(L):
            if m != k:
                prod_rest *= w[m]
        c = snorm * prod_rest
        for j in range(k):
            term = b[j]
            for m in range(j + 1, L):
                if m != k:
                    term *= w[m]
            c = c + term
        out.append(c)
    return out


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
    for (_, dn), c in zip(delta_norms, _constants(p, [k for k, _ in delta_norms], sn)):
        total = total + dn * c
    return total


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

def admissible_magnitude(
    p: MlpPolicy,
    layers: Iterable[int],
    epsilon: float,
    space: StateSpaceSpec,
    weights: Sequence[float] | None = None,
) -> dict[int, float]:
    """Largest per-layer delta norms whose contributions sum to ``epsilon``.

    The budget is split evenly across the layers, or in proportion to
    ``weights`` when given: one per layer, paired with the layer listed
    beside it, so each layer is listed once.  An infinite ``epsilon`` caps
    nothing; a layer with weight 0 gets a zero share even then.  A layer
    whose worst-case constant is zero cannot contribute: its cap is infinite.
    """
    if not epsilon >= 0:
        raise ValueError(f"error budget must be nonnegative, got {epsilon}")
    listed = [int(k) for k in layers]
    if not listed:
        raise ValueError("need at least one layer")
    if weights is not None and len(set(listed)) != len(listed):
        raise ValueError("allocation weights pair with the layers as listed; list each layer once")
    ws = [1.0] * len(listed) if weights is None else [float(w) for w in weights]
    if len(ws) != len(listed):
        raise ValueError(f"need one allocation weight per layer ({len(listed)}), got {len(ws)}")
    # ascending layers, each with its weight; unweighted repeats count once
    ks, ws = zip(*sorted(dict(zip(listed, ws)).items()))
    total = sum(ws)
    if not all(0.0 <= w < math.inf for w in ws) or not 0.0 < total < math.inf:
        raise ValueError("allocation weights must be finite and nonnegative with a positive sum")
    # unit weights give epsilon * 1 / n, which is exactly epsilon / n; a zero
    # weight's share is 0 even of an infinite budget, where 0 * inf is NaN
    shares = [epsilon * w / total if w > 0.0 else 0.0 for w in ws]
    _check_space(p, space)
    caps = {}
    for k, share, c_max in zip(ks, shares, _constants(p, ks, space.radius)):
        caps[k] = share / c_max if c_max > 0 else math.inf
    return caps


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

    original: np.ndarray  # (m, n): the original policy's outputs
    pruned: np.ndarray  # (m, n): the pruned policy's outputs
    deviation: np.ndarray  # ||pi(s) - pi_hat(s)||_2
    bound: np.ndarray  # per_state_bounds at ||s||_2
    norm: np.ndarray  # ||s||_2
    violation: np.ndarray  # not deviation <= bound + AUDIT_SLACK, so NaN counts


def audit_states(original: MlpPolicy, pruned: MlpPolicy, delta_norms, states) -> StateAudit:
    """The one per-state audit: both policies on the columns of ``states``
    (input_dim, n), each state judged against its bound.  The columns are
    used as given, since their layout fixes the order numpy sums norms in;
    ``certify`` and ``controlsim`` each keep the layout they always had."""
    outs_orig, outs_pruned = forward_batch(original, states), forward_batch(pruned, states)
    deviation = linalg.vector_norm(outs_orig - outs_pruned, axis=0)
    norm = linalg.vector_norm(states, axis=0)
    bound = per_state_bounds(original, delta_norms, norm)
    # negated so that a NaN deviation (inf - inf outputs) is a violation too
    violation = ~(deviation <= bound + AUDIT_SLACK)
    return StateAudit(outs_orig, outs_pruned, deviation, bound, norm, violation)


def certify(
    original: MlpPolicy, pruned: MlpPolicy, space: StateSpaceSpec, n: int, seed: int
) -> Certificate:
    """Budget the (original, pruned) pair on ``space`` and audit it.

    The delta norms come from the pair itself (``PrunePlan.from_policies``),
    so a certificate always describes the models it was computed from.  The
    budget weights each layer's worst-case constant, which sits on the sphere
    of radius ``space.radius`` since ``C_k`` increases with ``||s||``, by its
    delta norm and sums in ascending layer order.  The audit draws ``n``
    states and counts those ``audit_states`` flags.
    """
    _check_space(original, space)
    delta_norms = PrunePlan.from_policies(original, pruned).delta_norms()
    c_maxes = _constants(original, [k for k, _ in delta_norms], space.radius)
    rows = tuple(
        CertificateRow(layer=k, c_max=float(c), delta_spectral=dn, contribution=float(c) * dn)
        for (k, dn), c in zip(delta_norms, c_maxes)
    )
    budget = 0.0
    for r in rows:
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
