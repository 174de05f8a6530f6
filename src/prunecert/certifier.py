"""Closed-form deviation bounds for pruned policies, plus their audits.

For a policy with non-expansive activations, perturbing layer k's weights by
``delta`` moves the output at state s by at most ``C_k(s) * ||delta||_2``,
where ``C_k`` depends only on the unpruned spectral norms, the bias norms,
and ``||s||_2``.  Perturbing several layers adds the per-layer terms.  All
constants here are evaluated from cached norms, so certifying is a few
scalar products; the Monte-Carlo audit then hammers the bound empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.policy import MlpPolicy, forward_batch
from prunecert.pruner import PrunePlan

__all__ = [
    "AUDIT_SLACK",
    "StateSpaceSpec",
    "CertificateRow",
    "AuditSummary",
    "Certificate",
    "bound_constant_max",
    "multi_layer_budget",
    "admissible_magnitude",
    "audit_bound",
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
        if self.box is not None:
            lo = linalg.as_vector(self.box[0], "box low")
            hi = linalg.as_vector(self.box[1], "box high")
            if lo.shape[0] != self.dim or hi.shape[0] != self.dim:
                raise ValueError("box bounds must match the state dimension")
            if (lo > hi).any():
                raise ValueError("box low bound exceeds high bound")
            corner = float(linalg.vector_norm(np.maximum(np.abs(lo), np.abs(hi))))
            if corner > radius + 1e-12:
                raise ValueError(
                    "box does not fit inside the certified ball: farthest corner "
                    f"norm {corner:.17g} > radius {radius:.17g}"
                )
            object.__setattr__(self, "box", (_frozen(lo), _frozen(hi)))

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
    budget: float
    tightness: float
    margin: float
    seed: int

    @property
    def holds(self) -> bool:
        """Max deviation within the budget and no per-state violation."""
        return (
            self.max_dev <= self.budget + AUDIT_SLACK * max(self.budget, 1.0)
            and self.violations == 0
        )


@dataclass(frozen=True, eq=False)
class Certificate:
    """Per-layer deviation constants, their weighted sum, and audit evidence.

    ``budget`` is the plain left-to-right sum of the row contributions in
    ascending layer order, so reported numbers always re-add exactly.
    """

    rows: tuple[CertificateRow, ...]
    budget: float
    radius: float
    radius_source: str = "radius"
    audit: AuditSummary | None = None

    def delta_norms(self) -> tuple[tuple[int, float], ...]:
        return tuple((r.layer, r.delta_spectral) for r in self.rows)

    @property
    def holds(self) -> bool:
        if self.audit is None:
            raise ValueError("certificate has not been audited")
        return self.audit.holds


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def _check_layer_index(p: MlpPolicy, k: int) -> None:
    if not 0 <= k < p.num_layers:
        raise ValueError(f"layer index {k} out of range 0..{p.num_layers - 1}")


def _constant_parts(p: MlpPolicy, k: int) -> tuple[float, tuple[float, ...]]:
    """Pieces of the layer-k constant: the norm product over the other
    layers, plus one carry-over term per bias below layer k."""
    w = p.weight_spectral_norms
    b = p.bias_norms
    L = p.num_layers
    prod_rest = 1.0
    for m in range(L):
        if m != k:
            prod_rest *= w[m]
    terms = []
    for j in range(k):
        term = b[j]
        for m in range(j + 1, L):
            if m != k:
                term *= w[m]
        terms.append(term)
    return prod_rest, tuple(terms)


def _eval_constant(parts: tuple[float, tuple[float, ...]], snorm):
    """Evaluate a constant at one state norm (scalar or array), keeping the
    exact accumulation order used everywhere else."""
    prod_rest, terms = parts
    c = snorm * prod_rest
    for t in terms:
        c = c + t
    return c


def bound_constant_max(p: MlpPolicy, k: int, space: StateSpaceSpec) -> float:
    """Worst case of the layer-k constant over the certified ball.

    The constant is affine and increasing in ``||s||``, so the supremum sits
    on the sphere of radius ``space.radius``.
    """
    _check_layer_index(p, k)
    if space.dim != p.input_dim:
        raise ValueError(
            f"state space dim {space.dim} does not match policy input {p.input_dim}"
        )
    return float(_eval_constant(_constant_parts(p, k), space.radius))


def _budget_rows(
    p: MlpPolicy,
    delta_norms: Sequence[tuple[int, float]],
    radius: float,
) -> tuple[tuple[CertificateRow, ...], float]:
    rows = []
    budget = 0.0
    for k, dn in delta_norms:
        _check_layer_index(p, k)
        c_max = float(_eval_constant(_constant_parts(p, k), radius))
        contribution = c_max * dn
        budget = budget + contribution
        rows.append(
            CertificateRow(
                layer=k, c_max=c_max, delta_spectral=dn, contribution=contribution
            )
        )
    return tuple(rows), budget


def multi_layer_budget(
    p: MlpPolicy, plan: PrunePlan, space: StateSpaceSpec
) -> Certificate:
    """Total deviation budget for a multi-layer plan: the per-layer worst-case
    constants (from the unpruned weights) weighted by the delta norms and
    summed in ascending layer order."""
    if space.dim != p.input_dim:
        raise ValueError(
            f"state space dim {space.dim} does not match policy input {p.input_dim}"
        )
    rows, budget = _budget_rows(p, plan.delta_norms(), space.radius)
    return Certificate(
        rows=rows,
        budget=budget,
        radius=space.radius,
        radius_source=space.source,
    )


def per_state_bounds(
    p: MlpPolicy,
    delta_norms: Sequence[tuple[int, float]],
    snorms,
) -> np.ndarray:
    """Per-state deviation bounds for a batch of state norms.

    Uses the same term-by-term accumulation as the budget, so a state on the
    boundary sphere reproduces the budget bit for bit.
    """
    sn = np.asarray(snorms, dtype=float)
    total = np.zeros_like(sn)
    for k, dn in delta_norms:
        _check_layer_index(p, k)
        c = _eval_constant(_constant_parts(p, k), sn)
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
    allocation: str = "uniform",
    weights: Sequence[float] | None = None,
) -> dict[int, float]:
    """Largest per-layer delta norms whose contributions sum to ``epsilon``.

    ``uniform`` splits the budget evenly across the layers; ``proportional``
    splits it according to ``weights``.  A layer whose worst-case constant is
    zero cannot contribute and gets an infinite cap.
    """
    if epsilon < 0:
        raise ValueError(f"error budget must be nonnegative, got {epsilon}")
    ks = sorted({int(k) for k in layers})
    if not ks:
        raise ValueError("need at least one layer")
    if allocation == "uniform":
        shares = [epsilon / len(ks)] * len(ks)
    elif allocation == "proportional":
        if weights is None or len(weights) != len(ks):
            raise ValueError("proportional allocation needs one weight per layer")
        ws = [float(w) for w in weights]
        if any(w < 0 for w in ws) or sum(ws) <= 0:
            raise ValueError("allocation weights must be nonnegative with positive sum")
        total = sum(ws)
        shares = [epsilon * w / total for w in ws]
    else:
        raise ValueError(f"unknown allocation {allocation!r}")
    caps = {}
    for k, share in zip(ks, shares):
        c_max = bound_constant_max(p, k, space)
        caps[k] = share / c_max if c_max > 0 else math.inf
    return caps


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def sample_states(space: StateSpaceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` states inside the certified space, one per row.

    Without a box the draw is volume-uniform in the ball; with a box it is
    uniform over the box (which construction guarantees sits in the ball).
    Numerical overshoot beyond the radius is scaled back; anything larger
    means the sampler itself is broken.
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
    if (ns > space.radius * (1.0 + 1e-9) + 1e-9).any():
        raise RuntimeError("sampler bug: drew a state outside the certified space")
    over = ns > space.radius
    if over.any():
        states[over] *= (space.radius / ns[over])[:, None]
    return states


def audit_bound(
    original: MlpPolicy,
    pruned: MlpPolicy,
    plan: PrunePlan,
    space: StateSpaceSpec,
    n: int,
    seed: int,
) -> AuditSummary:
    """Monte-Carlo check that measured deviation stays under the bound.

    Samples states, measures ``||pi(s) - pi_hat(s)||_2``, and counts
    violations of the per-state bound beyond the fixed absolute slack.  The
    reported budget uses exactly the same arithmetic as the certificate.
    """
    if n < 1:
        raise ValueError(f"need at least one audit sample, got {n}")
    if (original.input_dim, original.output_dim) != (pruned.input_dim, pruned.output_dim):
        raise ValueError("original and pruned policies have mismatched interfaces")
    if space.dim != original.input_dim:
        raise ValueError(
            f"state space dim {space.dim} does not match policy input {original.input_dim}"
        )
    rng = np.random.default_rng(seed)
    states = sample_states(space, n, rng)
    outs_orig = forward_batch(original, states.T)
    outs_pruned = forward_batch(pruned, states.T)
    dev = linalg.vector_norm(outs_orig - outs_pruned, axis=0)
    snorms = linalg.vector_norm(states, axis=1)
    bounds = per_state_bounds(original, plan.delta_norms(), snorms)
    violations = int(np.count_nonzero(dev > bounds + AUDIT_SLACK))
    _, budget = _budget_rows(original, plan.delta_norms(), space.radius)
    max_dev = float(dev.max())
    if budget > 0:
        tightness = max_dev / budget
    else:
        tightness = 0.0 if max_dev == 0.0 else math.inf
    return AuditSummary(
        samples=int(n),
        max_dev=max_dev,
        mean_dev=float(dev.mean()),
        violations=violations,
        budget=budget,
        tightness=tightness,
        margin=budget - max_dev,
        seed=int(seed),
    )
