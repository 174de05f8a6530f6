"""Discrete-time closed-loop simulation for exercising certificates.

The simulator is deliberately small: explicit Euler for the two physical
fixtures, the exact map for linear systems.  Certificates bound the policy
output pointwise at a state, so ``deviation_audit`` runs every state either
loop visits through ``certifier.audit_states``, the audit ``certify`` runs
on sampled states; how far the two trajectories drift apart is reported as
well, but only as an observed, uncertified quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.certifier import Certificate, audit_states
from prunecert.policy import MlpPolicy, forward

__all__ = [
    "BlowUpError",
    "DoubleIntegrator",
    "Pendulum",
    "LinearSystem",
    "Trajectory",
    "LoopAudit",
    "DeviationReport",
    "step",
    "rollout",
    "deviation_audit",
]


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state (dt too large, most likely).

    ``t`` is the step index when raised from a rollout; ``partial`` carries
    the trajectory up to the failure so callers can flush what they have.
    """

    def __init__(self, message: str, t: int | None = None, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.t = t
        self.partial = partial


def _check_limit(limit, name: str) -> None:
    # NaN fails the comparison; a negative limit would flip the clip
    if limit is not None and not limit >= 0:
        raise ValueError(f"{name} must be nonnegative, got {limit}")


@dataclass(frozen=True, eq=False)
class DoubleIntegrator:
    """Point mass on a line: position integrates velocity, velocity
    integrates the (optionally clipped) commanded acceleration."""

    dt: float = 0.1
    accel_limit: float | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None

    state_dim = 2
    action_dim = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        _check_limit(self.accel_limit, "accel_limit")
        box = linalg.as_box(self.state_box, self.state_dim, "state box")
        object.__setattr__(self, "state_box", box)

    @property
    def action_limit(self) -> float | None:
        return self.accel_limit

    def _transition(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        pos, vel = x
        return np.array([pos + self.dt * vel, vel + self.dt * u[0]])


@dataclass(frozen=True, eq=False)
class Pendulum:
    """Planar pendulum (angle, angular velocity) with torque actuation;
    angle 0 is the hanging rest point."""

    dt: float = 0.01
    gravity: float = 9.81
    length: float = 1.0
    mass: float = 1.0
    torque_limit: float | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None

    state_dim = 2
    action_dim = 1

    def __post_init__(self):
        for name in ("dt", "gravity", "length", "mass"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        _check_limit(self.torque_limit, "torque_limit")
        box = linalg.as_box(self.state_box, self.state_dim, "state box")
        object.__setattr__(self, "state_box", box)

    @property
    def action_limit(self) -> float | None:
        return self.torque_limit

    def _transition(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        theta, omega = x
        accel = -self.gravity / self.length * math.sin(theta) + u[0] / (
            self.mass * self.length**2
        )
        return np.array([theta + self.dt * omega, omega + self.dt * accel])


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Exact linear map ``x' = A x + B u``."""

    a: np.ndarray
    b: np.ndarray
    action_limit: float | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        a = linalg.as_matrix(self.a, "A")
        b = linalg.as_matrix(self.b, "B")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B has {b.shape[0]} rows but A is {a.shape[0]}x{a.shape[0]}")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        _check_limit(self.action_limit, "action_limit")
        box = linalg.as_box(self.state_box, a.shape[0], "state box")
        object.__setattr__(self, "state_box", box)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def action_dim(self) -> int:
        return self.b.shape[1]

    def _transition(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b @ u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop run: T+1 states, one per row of ``states`` (T+1, n), and
    the T actions applied between them, one per row of ``actions`` (T, m)."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        actions = np.asarray(self.actions, dtype=float)
        if states.ndim != 2 or actions.ndim != 2:
            raise ValueError("trajectory states and actions must be 2-D, one row per step")
        if len(states) != len(actions) + 1:
            raise ValueError("trajectory needs exactly one more state than actions")
        object.__setattr__(self, "states", _frozen(states))
        object.__setattr__(self, "actions", _frozen(actions))


def step(d, x, u) -> np.ndarray:
    """One transition: clip the action, integrate, clip to the state box."""
    xv = linalg.as_vector(x, "state")
    uv = linalg.as_vector(u, "action")
    if xv.shape[0] != d.state_dim:
        raise ValueError(f"state has dim {xv.shape[0]} but dynamics expect {d.state_dim}")
    if uv.shape[0] != d.action_dim:
        raise ValueError(f"action has dim {uv.shape[0]} but dynamics expect {d.action_dim}")
    if d.action_limit is not None:
        uv = np.clip(uv, -d.action_limit, d.action_limit)
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = d._transition(xv, uv)
    if not np.isfinite(nxt).all():
        raise BlowUpError("transition produced a non-finite state; reduce dt")
    if d.state_box is not None:
        nxt = np.clip(nxt, d.state_box[0], d.state_box[1])
    return nxt


def rollout(d, p: MlpPolicy, x0, T: int) -> Trajectory:
    """Run the closed loop for ``T`` steps from ``x0``; fully deterministic.

    A blow-up, a non-finite policy output included, raises ``BlowUpError``
    with the failing step index and the partial trajectory attached.
    """
    if T < 1:
        raise ValueError(f"horizon must be at least 1, got {T}")
    x = linalg.as_vector(x0, "x0")
    if d.state_box is not None and (
        (x < d.state_box[0]).any() or (x > d.state_box[1]).any()
    ):
        raise ValueError("x0 lies outside the state box")
    states = np.empty((T + 1, x.shape[0]))
    actions = np.empty((T, p.output_dim))
    states[0] = x
    for t in range(T):
        u = forward(p, x)
        try:
            # on a few entries, a list of floats tests ~10x faster than np.isfinite
            if not all(map(math.isfinite, u.tolist())):
                raise BlowUpError("the policy output is non-finite")
            x = step(d, x, u)
        except BlowUpError as exc:
            raise BlowUpError(
                f"blow-up at step {t}: {exc}",
                t=t,
                partial=Trajectory(states=states[: t + 1], actions=actions[:t]),
            ) from exc
        actions[t] = u
        states[t + 1] = x
    return Trajectory(states=states, actions=actions)


@dataclass(frozen=True, eq=False)
class LoopAudit:
    """Pointwise audit along one closed loop; row t of every array belongs
    to the loop's t-th visited state."""

    label: str  # which closed loop visited the states
    states: np.ndarray  # (T+1, n)
    actions: np.ndarray  # (T+1, m): what this loop's policy commands there
    deviation: np.ndarray  # ||pi(x) - pi_hat(x)|| at each state
    bound: np.ndarray
    in_ball: np.ndarray


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Per-state certification along both closed loops.

    States outside the certified ball are reported but not counted as
    certified; ``divergence`` (distance between the two trajectories) is an
    observation, not a certified quantity.
    """

    loops: tuple[LoopAudit, ...]
    divergence: np.ndarray
    budget: float
    radius: float
    in_ball_count: int
    out_of_ball_count: int
    in_ball_violations: int
    max_in_ball_deviation: float
    max_divergence: float
    blowup: tuple[str, int] | None = None


def deviation_audit(
    d,
    original: MlpPolicy,
    pruned: MlpPolicy,
    cert: Certificate,
    x0,
    T: int,
) -> DeviationReport:
    """Roll out both policies and certify the deviation at every visited state.

    Each state from either trajectory is fed to both policies; the measured
    gap must stay under the state's bound whenever the state lies in the
    certified ball.  A blow-up in either loop truncates that loop and is
    recorded instead of raised, so partial evidence still comes back.
    """
    blowup = None
    loops = []
    violations = 0
    for label, p in (("original", original), ("pruned", pruned)):
        try:
            traj = rollout(d, p, x0, T)
        except BlowUpError as exc:
            if blowup is None:
                blowup = (label, exc.t)
            traj = exc.partial
        # C-contiguous columns: the layout these reports' norms have summed in
        columns = np.ascontiguousarray(traj.states.T)
        audit = audit_states(original, pruned, cert.delta_norms(), columns)
        in_ball = audit.norm <= cert.radius
        violations += int(np.count_nonzero(audit.violation & in_ball))
        own = audit.original if p is original else audit.pruned
        loops.append(LoopAudit(label, traj.states, _frozen(own.T), _frozen(audit.deviation),
                               _frozen(audit.bound), _frozen(in_ball)))
    shared = min(len(loop.states) for loop in loops)
    gaps = loops[0].states[:shared] - loops[1].states[:shared]
    # one 1-D norm per state: a batched norm sums in another order
    divergence = _frozen(np.array([linalg.vector_norm(g) for g in gaps]))
    inside = np.concatenate([loop.in_ball for loop in loops])
    dev = np.concatenate([loop.deviation for loop in loops])[inside]
    return DeviationReport(
        loops=tuple(loops),
        divergence=divergence,
        budget=cert.budget,
        radius=cert.radius,
        in_ball_count=int(inside.sum()),
        out_of_ball_count=int(inside.size - inside.sum()),
        in_ball_violations=violations,
        max_in_ball_deviation=float(dev.max(initial=0.0)),
        max_divergence=float(divergence.max()),
        blowup=blowup,
    )
