"""Discrete-time closed-loop simulation for exercising certificates.

The simulator is deliberately small: explicit Euler for the two physical
fixtures, the exact map for linear systems.  Certificates bound the policy
output pointwise at a state, so the deviation audit checks both policies at
the same visited states; how far the two trajectories drift apart is
reported as well, but only as an observed, uncertified quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.certifier import AUDIT_SLACK, Certificate, per_state_bounds
from prunecert.policy import MlpPolicy, forward, forward_batch

__all__ = [
    "BlowUpError",
    "DoubleIntegrator",
    "Pendulum",
    "LinearSystem",
    "Trajectory",
    "DeviationRow",
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


def _check_box(box, dim: int):
    lo = linalg.as_vector(box[0], "state box low")
    hi = linalg.as_vector(box[1], "state box high")
    if lo.shape[0] != dim or hi.shape[0] != dim:
        raise ValueError("state box bounds must match the state dimension")
    if (lo > hi).any():
        raise ValueError("state box low bound exceeds high bound")
    return _frozen(lo), _frozen(hi)


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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.state_box is not None:
            object.__setattr__(self, "state_box", _check_box(self.state_box, self.state_dim))

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.state_box is not None:
            object.__setattr__(self, "state_box", _check_box(self.state_box, self.state_dim))

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
        if self.state_box is not None:
            object.__setattr__(self, "state_box", _check_box(self.state_box, a.shape[0]))

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
    """Closed-loop run: T+1 states and the T actions applied between them."""

    states: tuple[np.ndarray, ...]
    actions: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("trajectory needs exactly one more state than actions")
        object.__setattr__(self, "states", tuple(_frozen(s) for s in self.states))
        object.__setattr__(self, "actions", tuple(_frozen(u) for u in self.actions))

    @property
    def horizon(self) -> int:
        return len(self.actions)


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

    A blow-up raises ``BlowUpError`` with the failing step index and the
    partial trajectory attached.
    """
    if T < 1:
        raise ValueError(f"horizon must be at least 1, got {T}")
    x = linalg.as_vector(x0, "x0")
    if d.state_box is not None and (
        (x < d.state_box[0]).any() or (x > d.state_box[1]).any()
    ):
        raise ValueError("x0 lies outside the state box")
    states = [x]
    actions = []
    for t in range(T):
        u = forward(p, x)
        try:
            x = step(d, x, u)
        except BlowUpError as exc:
            raise BlowUpError(
                f"blow-up at step {t}: {exc}",
                t=t,
                partial=Trajectory(states=tuple(states), actions=tuple(actions)),
            ) from exc
        actions.append(u)
        states.append(x)
    return Trajectory(states=tuple(states), actions=tuple(actions))


@dataclass(frozen=True, eq=False)
class DeviationRow:
    """Pointwise audit record at one visited state."""

    t: int
    trajectory: str  # which closed loop visited the state
    state: np.ndarray
    action: np.ndarray  # what that trajectory's policy commands here
    deviation: float  # ||pi(x) - pi_hat(x)|| at this state
    bound: float
    in_ball: bool


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Per-state certification along both closed loops.

    Rows outside the certified ball are reported but not counted as
    certified; ``divergence`` (distance between the two trajectories) is an
    observation, not a certified quantity.
    """

    rows: tuple[DeviationRow, ...]
    divergence: tuple[float, ...]
    budget: float
    radius: float
    in_ball_count: int
    out_of_ball_count: int
    in_ball_violations: int
    max_in_ball_deviation: float
    max_divergence: float
    blowup: tuple[str, int] | None = None


def _trajectory_rows(
    label: str,
    traj: Trajectory,
    own: MlpPolicy,
    original: MlpPolicy,
    pruned: MlpPolicy,
    cert: Certificate,
) -> list[DeviationRow]:
    states = np.stack(traj.states, axis=1)
    outs_orig = forward_batch(original, states)
    outs_pruned = forward_batch(pruned, states)
    outs_own = outs_orig if own is original else outs_pruned
    dev = np.linalg.norm(outs_orig - outs_pruned, axis=0)
    snorms = np.linalg.norm(states, axis=0)
    bounds = per_state_bounds(original, cert.delta_norms(), snorms)
    rows = []
    for t in range(states.shape[1]):
        rows.append(
            DeviationRow(
                t=t,
                trajectory=label,
                state=_frozen(states[:, t]),
                action=_frozen(outs_own[:, t]),
                deviation=float(dev[t]),
                bound=float(bounds[t]),
                in_ball=bool(snorms[t] <= cert.radius),
            )
        )
    return rows


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
    trajectories = {}
    for label, p in (("original", original), ("pruned", pruned)):
        try:
            trajectories[label] = rollout(d, p, x0, T)
        except BlowUpError as exc:
            if blowup is None:
                blowup = (label, exc.t if exc.t is not None else 0)
            trajectories[label] = exc.partial
    rows: list[DeviationRow] = []
    rows.extend(
        _trajectory_rows("original", trajectories["original"], original, original, pruned, cert)
    )
    rows.extend(
        _trajectory_rows("pruned", trajectories["pruned"], pruned, original, pruned, cert)
    )
    shared = min(len(trajectories["original"].states), len(trajectories["pruned"].states))
    divergence = tuple(
        float(
            np.linalg.norm(
                trajectories["original"].states[t] - trajectories["pruned"].states[t]
            )
        )
        for t in range(shared)
    )
    in_rows = [r for r in rows if r.in_ball]
    out_rows = [r for r in rows if not r.in_ball]
    violations = sum(1 for r in in_rows if r.deviation > r.bound + AUDIT_SLACK)
    return DeviationReport(
        rows=tuple(rows),
        divergence=divergence,
        budget=cert.budget,
        radius=cert.radius,
        in_ball_count=len(in_rows),
        out_of_ball_count=len(out_rows),
        in_ball_violations=violations,
        max_in_ball_deviation=max((r.deviation for r in in_rows), default=0.0),
        max_divergence=max(divergence, default=0.0),
        blowup=blowup,
    )
