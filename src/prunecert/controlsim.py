"""Discrete-time closed-loop simulation for exercising certificates.

The simulator is deliberately small: explicit Euler for the two physical
fixtures, the exact map for linear systems.  The closed-loop map is a
deterministic function of the state's bits, so once ``rollout`` visits a
state whose bytes it has seen before, the rest of the loop repeats that
cycle; it stops integrating there and fills the remaining steps from the
cycle, with the same bytes as integrating on, and records which earlier step
each filled step copies.  Certificates bound the policy output pointwise at
a state, so ``deviation_audit`` runs each distinct state either loop visits
once through ``certifier.audit_states``, the audit ``certify`` runs on
sampled states, and gives a repeated state its first visit's verdict; how
far the two trajectories drift apart is reported as well, but only as an
observed, uncertified quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from prunecert import linalg
from prunecert.linalg import _frozen
from prunecert.certifier import Certificate, audit_states
from prunecert.policy import MlpPolicy, _propagate, forward

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
    integrates the commanded acceleration, clipped to ``action_limit``."""

    dt: float = 0.1
    action_limit: float | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None

    state_dim = 2
    action_dim = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        _check_limit(self.action_limit, "action_limit")
        box = linalg.as_box(self.state_box, self.state_dim, "state box")
        object.__setattr__(self, "state_box", box)

    def _transition(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The Euler map in Python floats: each ``+`` and ``*`` is the same
        IEEE double operation numpy would run, so the bits are the same,
        without numpy's per-call cost on two elements.  A float overflow
        gives inf and sets no numpy warning, so no ``errstate`` is needed."""
        pos, vel = x.tolist()
        (accel,) = u.tolist()
        return np.array([pos + self.dt * vel, vel + self.dt * accel])


@dataclass(frozen=True, eq=False)
class Pendulum:
    """Planar pendulum (angle, angular velocity) with torque actuation, the
    torque clipped to ``action_limit``; angle 0 is the hanging rest point."""

    dt: float = 0.01
    gravity: float = 9.81
    length: float = 1.0
    mass: float = 1.0
    action_limit: float | None = None
    state_box: tuple[np.ndarray, np.ndarray] | None = None

    state_dim = 2
    action_dim = 1

    def __post_init__(self):
        for name in ("dt", "gravity", "length", "mass"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # the same float ** as _transition, which raises where * would give inf
        try:
            inertia = self.mass * self.length**2
        except OverflowError:
            inertia = math.inf
        if inertia == math.inf:
            raise ValueError(f"mass * length**2 overflows: mass {self.mass}, length {self.length}")
        # _transition's float division by 0 would raise ZeroDivisionError
        if inertia == 0.0:
            raise ValueError(
                f"mass * length**2 underflows to 0: mass {self.mass}, length {self.length}"
            )
        _check_limit(self.action_limit, "action_limit")
        box = linalg.as_box(self.state_box, self.state_dim, "state box")
        object.__setattr__(self, "state_box", box)

    def _transition(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The Euler map in Python floats, as ``DoubleIntegrator``'s: the same
        bits as numpy, and no numpy warning.  ``__post_init__`` keeps
        ``m*l^2`` nonzero and finite, so the division never raises; a
        quotient past the float range is inf, a blow-up ``step`` reports."""
        theta, omega = x.tolist()
        (torque,) = u.tolist()
        accel = -self.gravity / self.length * math.sin(theta) + torque / (
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
        """``A x + B u`` in numpy, the one transition whose arithmetic can
        warn: an overflow is a blow-up that ``step`` reports, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.a @ x + self.b @ u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop run: T+1 states, one per row of ``states`` (T+1, n), and
    the T actions applied between them, one per row of ``actions`` (T, m).

    ``source`` maps a loop that repeats a state: ``source[j]`` is the first
    step whose state has the bytes of step j's, so ``source[j] == j`` up to
    the first repeat and a step of the cycle after it.  None when no state
    repeats.
    """

    states: np.ndarray
    actions: np.ndarray
    source: np.ndarray | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        actions = np.asarray(self.actions, dtype=float)
        if states.ndim != 2 or actions.ndim != 2:
            raise ValueError("trajectory states and actions must be 2-D, one row per step")
        if len(states) != len(actions) + 1:
            raise ValueError("trajectory needs exactly one more state than actions")
        object.__setattr__(self, "states", _frozen(states))
        object.__setattr__(self, "actions", _frozen(actions))
        if self.source is not None:
            object.__setattr__(self, "source", _frozen(self.source))

    @property
    def distinct(self) -> int:
        return _distinct(len(self.states), self.source)


def _distinct(visited: int, source) -> int:
    """How many distinct states a loop of ``visited`` states visits: the
    first repeat's step, or all of them when none repeats."""
    return visited if source is None else int(source.max()) + 1


def step(d, x, u) -> np.ndarray:
    """One transition: clip the action, integrate, clip to the state box.

    A non-finite next state raises ``BlowUpError``.  The Euler maps compute
    in Python floats, whose overflow gives inf without a numpy warning, so
    only ``LinearSystem._transition`` enters ``np.errstate``, around its
    matmuls.
    """
    xv = linalg.as_vector(x, "state")
    uv = linalg.as_vector(u, "action")
    if xv.shape[0] != d.state_dim:
        raise ValueError(f"state has dim {xv.shape[0]} but dynamics expect {d.state_dim}")
    if uv.shape[0] != d.action_dim:
        raise ValueError(f"action has dim {uv.shape[0]} but dynamics expect {d.action_dim}")
    if d.action_limit is not None:
        uv = uv.clip(-d.action_limit, d.action_limit)
    nxt = d._transition(xv, uv)
    if not all(map(math.isfinite, nxt.tolist())):
        raise BlowUpError("transition produced a non-finite state; reduce dt")
    if d.state_box is not None:
        nxt = nxt.clip(d.state_box[0], d.state_box[1])
    return nxt


def rollout(d, p: MlpPolicy, x0, T: int) -> Trajectory:
    """Run the closed loop for ``T`` steps from ``x0``; fully deterministic.

    The first time the state at step t has the bytes of the state at an
    earlier step s, the loop is periodic from s with period t - s:
    integration stops and the remaining states and actions are copied from
    that cycle, so the policy runs once per step up to the first repeat
    only; the trajectory's ``source`` records the step each row copies.
    Bytes, not values, are compared, since 0.0 and -0.0 are different
    states.

    A blow-up, a non-finite policy output included, raises ``BlowUpError``
    with the failing step index and the partial trajectory attached.

    The policy's input dimension is checked once, before the loop, with
    ``forward``'s message; each step then runs the policy's layers directly,
    since every state it sees is x0 or a ``step`` output, both already
    checked finite and of the state's dimension.
    """
    if T < 1:
        raise ValueError(f"horizon must be at least 1, got {T}")
    x = linalg.as_vector(x0, "x0")
    if x.shape[0] != d.state_dim:
        raise ValueError(f"x0 has dim {x.shape[0]} but the dynamics expect {d.state_dim}")
    if d.state_box is not None and (
        (x < d.state_box[0]).any() or (x > d.state_box[1]).any()
    ):
        raise ValueError("x0 lies outside the state box")
    if p.input_dim != x.shape[0]:
        raise ValueError(f"state has dim {x.shape[0]} but policy expects {p.input_dim}")
    states = np.empty((T + 1, x.shape[0]))
    actions = np.empty((T, p.output_dim))
    states[0] = x
    first = {x.tobytes(): 0}  # state bytes -> the step that first visited them
    for t in range(T):
        u = _propagate(p, x)
        try:
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
        s = first.setdefault(x.tobytes(), t + 1)
        if s <= t:
            # step j of the rest repeats step s + (j - s) % period
            source = np.arange(T + 1)
            source[t + 1 :] = s + (source[t + 1 :] - s) % (t + 1 - s)
            states[t + 1 :] = states[source[t + 1 :]]
            actions[t + 1 :] = actions[source[t + 1 : -1]]
            return Trajectory(states=states, actions=actions, source=source)
    return Trajectory(states=states, actions=actions)


@dataclass(frozen=True, eq=False)
class LoopAudit:
    """Pointwise audit along one closed loop; row t of every array belongs
    to the loop's t-th visited state, and a repeated state's row holds its
    ``source`` row's values (see ``Trajectory``)."""

    label: str  # which closed loop visited the states
    states: np.ndarray  # (T+1, n)
    actions: np.ndarray  # (T+1, m): the action applied there; the final row's never is
    deviation: np.ndarray  # ||pi(x) - pi_hat(x)|| at each state
    bound: np.ndarray
    in_ball: np.ndarray
    source: np.ndarray | None = None

    @property
    def distinct(self) -> int:
        return _distinct(len(self.states), self.source)


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

    Each distinct state of either trajectory, up to its first repeat, goes
    through both policies once; the measured gap must stay under the
    state's bound whenever the state lies in the certified ball.  The bound
    holds pointwise, so a repeated state takes its first visit's row, and
    the counts count every visit.  Each row's action is the one the loop
    applied there; the final state's, never applied, is its source row's or
    one more ``forward``.  A blow-up in either loop truncates that loop and
    is recorded instead of raised, so partial evidence still comes back.
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
        source = traj.source
        audit = audit_states(original, pruned, cert.delta_norms(), traj.states[: traj.distinct].T)
        per_state = (audit.deviation, audit.bound, audit.norm <= cert.radius, audit.violation)
        if source is not None:
            per_state = tuple(a[source] for a in per_state)
        deviation, bound, in_ball, violation = per_state
        violations += int(np.count_nonzero(violation & in_ball))
        last = forward(p, traj.states[-1]) if source is None else traj.actions[source[-1]]
        actions = np.vstack([traj.actions, last])
        loops.append(LoopAudit(label, traj.states, _frozen(actions), _frozen(deviation),
                               _frozen(bound), _frozen(in_ball), source))
    shared = min(len(loop.states) for loop in loops)
    gaps = loops[0].states[:shared] - loops[1].states[:shared]
    divergence = _frozen(linalg.vector_norm(gaps, axis=1))
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
