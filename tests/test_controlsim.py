import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import naive_step, random_policy, scaled_certificate
from prunecert import certifier, controlsim, linalg
from prunecert.certifier import (
    AuditSummary,
    Certificate,
    CertificateRow,
    StateSpaceSpec,
    audit_states,
    certify,
)
from prunecert.cli import _write_trajectory_csv
from prunecert.controlsim import (
    BlowUpError,
    DoubleIntegrator,
    LinearSystem,
    Pendulum,
    Trajectory,
    deviation_audit,
    rollout,
    step,
)
from prunecert import policy
from prunecert.policy import ActivationKind, Layer, MlpPolicy, forward, load_policy
from prunecert.pruner import collect_calibration, prune_to_budget, rank_weights

FIXTURES = Path(__file__).parent / "fixtures"


def _one_layer(weight):
    w = np.asarray(weight, dtype=float)
    return MlpPolicy(
        layers=(Layer(weight=w, bias=np.zeros(w.shape[0]), activation=ActivationKind("relu")),)
    )


def _zero_policy(state_dim, action_dim):
    return MlpPolicy(
        layers=(
            Layer(
                weight=np.zeros((action_dim, state_dim)),
                bias=np.zeros(action_dim),
                activation=ActivationKind("relu"),
            ),
        )
    )


def _six_systems(rng):
    """Both Euler maps and a linear system, with and without action limits
    and state boxes; the linear system's matrices are drawn from ``rng``."""
    box = (np.array([-1.0, -0.5]), np.array([0.25, 2.0]))
    return (
        DoubleIntegrator(dt=0.1),
        DoubleIntegrator(dt=0.25, action_limit=1.5, state_box=box),
        DoubleIntegrator(action_limit=0.5, state_box=box),
        Pendulum(dt=0.05, action_limit=2.0, state_box=box),
        Pendulum(gravity=3.7, length=0.3, mass=2.5, action_limit=0.75),
        LinearSystem(a=rng.normal(size=(2, 2)), b=rng.normal(size=(2, 1)),
                     action_limit=1.0, state_box=box),
    )


class TestStep:
    def test_identity_linear_system(self):
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(step(d, x, [5.0]), x)

    def test_double_integrator_euler_kinematics(self):
        d = DoubleIntegrator(dt=0.1)
        np.testing.assert_allclose(step(d, [0.0, 1.0], [0.0]), [0.1, 1.0], atol=1e-15)

    def test_pendulum_equilibrium(self):
        d = Pendulum()
        np.testing.assert_array_equal(step(d, [0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_double_integrator_equilibrium(self):
        d = DoubleIntegrator()
        np.testing.assert_array_equal(step(d, [0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_action_clipped_before_integration(self):
        d = DoubleIntegrator(dt=0.1, action_limit=1.0)
        np.testing.assert_allclose(step(d, [0.0, 0.0], [100.0]), [0.0, 0.1], atol=1e-15)

    def test_state_clipped_to_box(self):
        d = DoubleIntegrator(dt=0.1, state_box=(np.array([-1.0, -0.5]), np.array([1.0, 0.5])))
        nxt = step(d, [0.95, 0.4], [50.0])
        assert nxt[1] == 0.5

    def test_blow_up_detected(self):
        d = LinearSystem(a=np.eye(1) * 1e308, b=np.eye(1))
        with pytest.raises(BlowUpError):
            step(d, [1e100], [0.0])

    def test_dim_checks(self):
        d = Pendulum()
        with pytest.raises(ValueError):
            step(d, [1.0], [0.0])
        with pytest.raises(ValueError):
            step(d, [0.0, 0.0], [0.0, 0.0])

    def test_matches_naive_oracle_bit_for_bit(self):
        # states and actions exactly at the limits, beyond them, inside them
        # and at both signed zeros.  No bound is zero: numpy's clip keeps a
        # zero's sign at a +-0.0 bound for scalar bounds and takes the bound's
        # for array bounds (numpy 2.4), so no oracle can pin that sign
        rng = np.random.default_rng(41)
        clipped = signed_zeros = 0
        for d in _six_systems(rng):
            lim = 1.0 if d.action_limit is None else d.action_limit
            lo, hi = d.state_box if d.state_box is not None else (-np.ones(2), np.ones(2))
            actions = [lim, -lim, 2.0 * lim + 1.0, -2.0 * lim - 1.0, 0.0, -0.0]
            for _ in range(1000):
                # half the draws are edge values, half lie anywhere within reach
                x = [
                    rng.choice([lo[i], hi[i], lo[i] - 0.5, hi[i] + 0.5, 0.0, -0.0])
                    if rng.random() < 0.5 else rng.uniform(lo[i] - 0.5, hi[i] + 0.5)
                    for i in range(2)
                ]
                u = [rng.choice(actions) if rng.random() < 0.5
                     else rng.uniform(-2.0 * lim, 2.0 * lim)]
                got, want = step(d, x, u), naive_step(d, x, u)
                assert got.tobytes() == want.tobytes(), (d, x, u, got, want)
                if d.state_box is not None:
                    clipped += int(np.isin(got, d.state_box).any())
                signed_zeros += int((np.signbit(got) & (got == 0.0)).any())
        assert clipped > 100 and signed_zeros > 20


NAN, INF = float("nan"), float("inf")


class TestParameterChecks:
    """A NaN, infinite or nonpositive physical parameter, and a NaN or
    negative action limit, fail at construction: a NaN passes ``<= 0``,
    and ``np.clip(u, 1, -1)`` turns every action into -1."""

    def test_double_integrator(self):
        for kwargs in ({"dt": NAN}, {"dt": INF}, {"dt": 0.0},
                       {"action_limit": NAN}, {"action_limit": -1.0}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                DoubleIntegrator(**kwargs)
        assert DoubleIntegrator(action_limit=0.0).action_limit == 0.0

    def test_pendulum(self):
        bad = [{name: v} for name in ("dt", "gravity", "length", "mass") for v in (NAN, INF, -1.0)]
        for kwargs in bad + [{"action_limit": NAN}, {"action_limit": -1.0}]:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                Pendulum(**kwargs)
        assert Pendulum(action_limit=INF).action_limit == INF

    def test_pendulum_inertia_overflow(self):
        # _transition divides by mass * length**2, and a float ** that
        # overflows raises OverflowError where * would give inf
        top = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2
        rng = np.random.default_rng(14)
        outcomes = set()
        for _ in range(400):
            length = float(10.0 ** rng.uniform(-10.0, 200.0))
            mass = float(10.0 ** rng.uniform(-300.0, 300.0))
            square = Fraction(length) ** 2
            overflows = square >= top or Fraction(mass) * Fraction(float(square)) >= top
            outcomes.add(overflows)
            if overflows:
                with pytest.raises(ValueError, match="overflows"):
                    Pendulum(length=length, mass=mass)
            else:
                d = Pendulum(length=length, mass=mass)
                try:
                    step(d, [0.1, 0.0], [1.0])
                except BlowUpError:  # u / (m l^2) past the float range
                    pass
        assert outcomes == {False, True}
        with pytest.raises(ValueError, match="overflows"):
            Pendulum(length=1e200)

    def test_pendulum_inertia_underflow(self):
        # _transition divides by mass * length**2 in floats, where / 0
        # raises ZeroDivisionError; a product that rounds to 0 is refused
        half_tiny = Fraction(math.ulp(0.0)) / 2  # the largest value that rounds to 0
        rng = np.random.default_rng(15)
        outcomes = set()
        for _ in range(400):
            length = float(10.0 ** rng.uniform(-170.0, 5.0))
            mass = float(10.0 ** rng.uniform(-300.0, 10.0))
            square = float(Fraction(length) ** 2)
            underflows = Fraction(mass) * Fraction(square) <= half_tiny
            outcomes.add(underflows)
            if underflows:
                with pytest.raises(ValueError, match="underflows"):
                    Pendulum(length=length, mass=mass)
            else:
                d = Pendulum(length=length, mass=mass)
                try:
                    step(d, [0.1, 0.0], [1.0])
                except BlowUpError:  # u / (m l^2) past the float range
                    pass
        assert outcomes == {False, True}
        with pytest.raises(ValueError, match="underflows"):
            Pendulum(mass=1e-300, length=1e-100)

    def test_linear_system(self):
        for limit in (NAN, -1.0, -INF):
            with pytest.raises(ValueError, match="action_limit"):
                LinearSystem(a=np.eye(2), b=np.ones((2, 1)), action_limit=limit)
        d = LinearSystem(a=np.eye(2), b=np.ones((2, 1)), action_limit=0.0)
        np.testing.assert_array_equal(step(d, [1.0, 2.0], [5.0]), [1.0, 2.0])


class TestRollout:
    def test_zero_policy_constant_trajectory(self):
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        p = _zero_policy(2, 1)
        traj = rollout(d, p, [0.4, -0.2], 25)
        assert traj.states.shape == (26, 2)
        assert traj.actions.shape == (25, 1)
        for s in traj.states:
            np.testing.assert_array_equal(s, [0.4, -0.2])

    def test_single_step_consistent_with_step(self):
        d = DoubleIntegrator(dt=0.1)
        p = _zero_policy(2, 1)
        traj = rollout(d, p, [1.0, 2.0], 1)
        np.testing.assert_array_equal(traj.states[1], step(d, [1.0, 2.0], [0.0]))

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            rollout(DoubleIntegrator(), _zero_policy(2, 1), [0.0, 0.0], 0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(0)
        p = random_policy(rng, dims=[2, 6, 1])
        d = Pendulum(action_limit=3.0)
        a = rollout(d, p, [0.2, 0.1], 50)
        b = rollout(d, p, [0.2, 0.1], 50)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa, sb)

    def test_pendulum_fixture_stabilizes(self):
        p = load_policy(FIXTURES / "pendulum_policy.json")
        d = Pendulum(action_limit=5.0)
        traj = rollout(d, p, [0.5, 0.0], 500)
        assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(traj.states[0])

    def test_double_integrator_fixture_stabilizes(self):
        p = load_policy(FIXTURES / "double_integrator_policy.json")
        d = DoubleIntegrator()
        traj = rollout(d, p, [1.0, 0.0], 500)
        assert np.linalg.norm(traj.states[-1]) < 1e-6

    def test_blow_up_carries_step_index_and_partial(self):
        d = LinearSystem(a=np.eye(1) * 1e200, b=np.zeros((1, 1)))
        p = _zero_policy(1, 1)
        with pytest.raises(BlowUpError) as err:
            rollout(d, p, [1.0], 10)
        assert err.value.t == 1  # 1e200 -> 1e400 overflows on the second step
        partial = err.value.partial
        assert partial is not None
        assert len(partial.states) == err.value.t + 1
        assert len(partial.actions) == err.value.t
        for a in (partial.states, partial.actions):
            assert a.ndim == 2
            assert not a.flags.writeable

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_action_is_a_blow_up(self):
        # the position reaches 1e180 at t=2, where relu(1e160 * 1e180) is inf
        d = DoubleIntegrator(dt=1e160)
        with pytest.raises(BlowUpError) as err:
            rollout(d, _one_layer([[1e160, 0.0]]), [1e-300, 0.0], 5)
        assert err.value.t == 2
        partial = err.value.partial
        assert partial.states.tolist() == [[1e-300, 0.0], [1e-300, 1e20], [1e180, 2e20]]
        assert partial.actions.tolist() == [[1e-140], [1e-140]]

    def test_x0_outside_box_rejected(self):
        d = DoubleIntegrator(state_box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
        with pytest.raises(ValueError):
            rollout(d, _zero_policy(2, 1), [2.0, 0.0], 5)

    def test_matches_forward_and_step_bit_for_bit(self):
        # rollout runs the policy's layers without forward's checks; on
        # seeded policies and x0s at the box bounds, at signed zeros and
        # inside, it must equal a forward + step loop in every byte
        rng = np.random.default_rng(43)
        repeats = 0
        for d in _six_systems(rng):
            lo, hi = d.state_box if d.state_box is not None else (-np.ones(2), np.ones(2))
            for _ in range(8):
                p = random_policy(rng, dims=[2, 6, 1])
                x0 = [
                    rng.choice([lo[i], hi[i], 0.0, -0.0])
                    if rng.random() < 0.5 else rng.uniform(lo[i], hi[i])
                    for i in range(2)
                ]
                repeats += _same_as_stepped(d, p, x0, 200).source is not None
        assert 0 < repeats < 48

    @pytest.mark.parametrize("dims", [[3, 4, 1], [1, 1]])
    def test_policy_of_another_input_dim_fails_before_any_step(self, dims, monkeypatch):
        p = random_policy(np.random.default_rng(5), dims=dims)
        with pytest.raises(ValueError) as want:
            forward(p, [0.5, 0.0])
        steps = []
        monkeypatch.setattr(controlsim, "step", lambda *args: steps.append(args))
        with pytest.raises(ValueError) as got:
            rollout(Pendulum(), p, [0.5, 0.0], 10)
        assert str(got.value) == str(want.value) == f"state has dim 2 but policy expects {dims[0]}"
        assert steps == []


def _stepped(d, p, x0, T):
    """Oracle for ``rollout``: ``forward`` then ``step`` at every one of the
    ``T`` steps, with no cycle detection.  Returns the states and actions as
    arrays and the step of a blow-up, None without one."""
    states, actions = [np.asarray(x0, dtype=float)], []
    for t in range(T):
        u = forward(p, states[-1])
        try:
            states.append(step(d, states[-1], u))
        except BlowUpError:
            return np.array(states), np.array(actions).reshape(t, -1), t
        actions.append(u)
    return np.array(states), np.array(actions), None


def _first_repeat(states):
    """Index of the first state whose bytes an earlier state has, or None."""
    seen = set()
    for j, x in enumerate(states):
        if x.tobytes() in seen:
            return j
        seen.add(x.tobytes())
    return None


def _identity_zero_policy(dim):
    return MlpPolicy((Layer(np.zeros((1, dim)), np.zeros(1), ActivationKind("identity")),))


def _same_as_stepped(d, p, x0, T):
    """``rollout`` checked bit for bit against ``_stepped``: states, actions
    and the cycle map ``source``."""
    traj = rollout(d, p, x0, T)
    states, actions, _ = _stepped(d, p, x0, T)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.actions.tobytes() == actions.tobytes()
    # the cycle map: each row's first visit, None without a repeat
    first = {}
    source = [first.setdefault(x.tobytes(), j) for j, x in enumerate(states)]
    if _first_repeat(states) is None:
        assert traj.source is None
        assert traj.distinct == T + 1
    else:
        assert traj.source.tolist() == source
        assert traj.distinct == _first_repeat(states) == len(first)
        assert not traj.source.flags.writeable
    return traj


class TestPeriodicTail:
    """A loop whose state repeats exactly is completed from its cycle; every
    case is checked bit for bit against the per-step oracle."""

    def test_fixed_point_mid_horizon(self):
        # the fixture's loop lands on the subnormal fixed point (2e-323, -2e-323)
        p = load_policy(FIXTURES / "double_integrator_policy.json")
        traj = _same_as_stepped(DoubleIntegrator(), p, [1.0, 0.0], 10_000)
        j = _first_repeat(traj.states)
        assert 1_000 < j < 9_000
        assert traj.states[j - 1].tobytes() == traj.states[j].tobytes()

    @pytest.mark.parametrize("T", [2, 3, 4, 5, 100, 1000])
    def test_period_three_cycle(self, T):
        # A permutes the coordinates cyclically: x3 = x0, then every third step
        d = LinearSystem(a=np.roll(np.eye(3), 1, axis=0), b=np.zeros((3, 1)))
        traj = _same_as_stepped(d, _zero_policy(3, 1), [1.0, 2.0, 3.0], T)
        assert traj.states[1].tolist() == [3.0, 1.0, 2.0]
        assert (traj.states[::3] == [1.0, 2.0, 3.0]).all()

    def test_signed_zero_is_its_own_state(self):
        # x0 = (-0.0, 0.0) and x1 = (+0.0, +0.0) compare equal as values; a
        # value-keyed detector would copy x0's -0.0 into every later row
        d = DoubleIntegrator(dt=0.1)
        traj = _same_as_stepped(d, _identity_zero_policy(2), [-0.0, 0.0], 50)
        assert np.signbit(traj.states[0, 0])
        assert not np.signbit(traj.states[1:]).any()
        assert _first_repeat(traj.states) == 2

    @pytest.mark.parametrize("T", [1, 2])
    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.75, 0.0]])
    def test_x0_a_fixed_point(self, T, x0):
        # zero velocity and a zero action: the position stays put
        traj = _same_as_stepped(DoubleIntegrator(), _zero_policy(2, 1), x0, T)
        assert traj.states.shape == (T + 1, 2)
        assert traj.actions.shape == (T, 1)
        assert {row.tobytes() for row in traj.states} == {np.array(x0).tobytes()}

    def test_blow_up_before_any_repeat(self):
        # x doubles each step, so x_t = 2**t overflows at t = 1024
        d = LinearSystem(a=[[2.0]], b=np.zeros((1, 1)))
        p = _zero_policy(1, 1)
        with pytest.raises(BlowUpError) as err:
            rollout(d, p, [1.0], 5_000)
        states, actions, t = _stepped(d, p, [1.0], 5_000)
        assert err.value.t == t == 1023
        assert err.value.partial.states.tobytes() == states.tobytes()
        assert err.value.partial.actions.tobytes() == actions.tobytes()
        assert err.value.partial.source is None

    @pytest.mark.parametrize("case", ["fixture", "cycle", "signed-zero", "no-repeat"])
    def test_policy_runs_only_up_to_the_first_repeat(self, case, monkeypatch):
        d, p, x0, T = {
            "fixture": (DoubleIntegrator(), load_policy(FIXTURES / "double_integrator_policy.json"),
                        [1.0, 0.0], 10_000),
            "cycle": (LinearSystem(a=np.roll(np.eye(3), 1, axis=0), b=np.zeros((3, 1))),
                      _zero_policy(3, 1), [1.0, 2.0, 3.0], 1000),
            "signed-zero": (DoubleIntegrator(dt=0.1), _identity_zero_policy(2), [-0.0, 0.0], 1000),
            "no-repeat": (Pendulum(action_limit=5.0), load_policy(FIXTURES / "pendulum_policy.json"),
                          [0.5, 0.0], 300),
        }[case]
        # rollout evaluates the policy through the layer loop it imports
        calls = []
        propagate = policy._propagate

        def counted(pol, x):
            calls.append(x.tobytes())
            return propagate(pol, x)

        monkeypatch.setattr(controlsim, "_propagate", counted)
        traj = rollout(d, p, x0, T)
        repeat = _first_repeat(traj.states)
        assert len(calls) == (T if repeat is None else repeat)
        # once per step, at that step's state
        assert calls == [row.tobytes() for row in traj.states[: len(calls)]]
        if case == "no-repeat":
            assert repeat is None


class TestTrajectory:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            Trajectory(states=(np.zeros(2),), actions=(np.zeros(1),))
        with pytest.raises(ValueError):  # ragged states
            Trajectory(states=(np.zeros(2), np.zeros(3)), actions=(np.zeros(1),))
        with pytest.raises(ValueError):  # 1-D states
            Trajectory(states=np.zeros(2), actions=np.zeros((1, 1)))


def _pruned_pair(seed=1, fixture="pendulum_policy.json"):
    rng = np.random.default_rng(seed)
    p = load_policy(FIXTURES / fixture)
    states = [rng.uniform(-1.0, 1.0, size=2) for _ in range(16)]
    calib = collect_calibration(p, states)
    entries = rank_weights(p, calib, [0], damping="auto")
    pruned, _ = prune_to_budget(p, entries[:2])  # 50% of layer 0
    return p, pruned


class TestDeviationAudit:
    def _cert(self, p, pruned, radius=3.0):
        return certify(p, pruned, StateSpaceSpec(dim=2, radius=radius), n=100, seed=0)

    def test_identical_policies_zero_deviation(self):
        p, _ = _pruned_pair()
        cert = self._cert(p, p)
        d = Pendulum(action_limit=5.0)
        report = deviation_audit(d, p, p, cert, [0.5, 0.0], 50)
        assert report.max_in_ball_deviation == 0.0
        assert report.in_ball_violations == 0
        assert report.max_divergence == 0.0

    def test_an_understated_certificate_fails_at_small_scale(self):
        # x -> x against x -> 2x with a claimed delta of 0: every visited
        # state breaks its zero bound by |x|, from x0 = 1e-9 down, where an
        # absolute slack of 1e-9 passed them all
        d = LinearSystem(a=[[0.5]], b=[[0.0]])
        original, pruned = _one_layer([[1.0]]), _one_layer([[2.0]])
        audit = AuditSummary(samples=1, max_dev=0.0, mean_dev=0.0, violations=0,
                             tightness=0.0, margin=0.0, seed=0)
        cert = Certificate((CertificateRow(0, 1.0, 0.0, 0.0),), 0.0, 1.0, "radius", audit)
        report = deviation_audit(d, original, pruned, cert, [1e-9], 20)
        assert report.in_ball_count == report.in_ball_violations == 42
        assert report.max_in_ball_deviation == 1e-9

    def test_certified_pair_no_in_ball_violations(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        d = Pendulum(
            action_limit=5.0,
            state_box=(np.array([-np.pi, -8.0]), np.array([np.pi, 8.0])),
        )
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 500)
        assert report.in_ball_count > 0
        assert report.in_ball_violations == 0

    def test_bounds_scale_exactly_with_doubled_plan(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        cert2 = scaled_certificate(cert, 2.0)
        d = Pendulum(action_limit=5.0)
        a = deviation_audit(d, p, pruned, cert, [0.3, 0.0], 40)
        b = deviation_audit(d, p, pruned, cert2, [0.3, 0.0], 40)
        for la, lb in zip(a.loops, b.loops, strict=True):
            assert la.bound.shape == lb.bound.shape == (41,)
            assert (lb.bound == 2.0 * la.bound).all()

    def test_rows_cover_both_trajectories(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned)
        d = Pendulum(action_limit=5.0)
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 30)
        assert [loop.label for loop in report.loops] == ["original", "pruned"]
        for loop in report.loops:
            assert loop.states.shape == (31, 2)
            assert loop.actions.shape == (31, 1)
            for a in (loop.deviation, loop.bound, loop.in_ball):
                assert a.shape == (31,)
        assert len(report.divergence) == 31

    def test_out_of_ball_states_flagged_not_counted(self):
        p, pruned = _pruned_pair()
        cert = self._cert(p, pruned, radius=0.1)  # tiny certified ball
        d = Pendulum(action_limit=5.0)
        report = deviation_audit(d, p, pruned, cert, [0.5, 0.0], 30)
        assert report.out_of_ball_count > 0
        outside = 0
        for loop in report.loops:
            for state in loop.states[~loop.in_ball]:
                assert np.linalg.norm(state) > cert.radius
                outside += 1
        assert outside == report.out_of_ball_count

    @pytest.mark.parametrize("growth", [1.0 + 2.0**-20, 1e10], ids=["moderate", "1e-300-to-1e300"])
    def test_divergence_bits_match_per_state_norms(self, growth):
        # the pruned loop scales a seeded state by ``growth`` each step while
        # the original one stands still; at 1e10 per step from a subnormal
        # state the gaps run from 1e-300 to 1e300, so their squares underflow
        # and overflow at either end
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=3) * (1e-310 if growth > 2 else 1.0)
        original = MlpPolicy((Layer(np.zeros((3, 3)), np.zeros(3), ActivationKind("identity")),))
        pruned = MlpPolicy((Layer((growth - 1.0) * np.diag(rng.uniform(0.5, 1.0, 3)),
                                  np.zeros(3), ActivationKind("identity")),))
        cert = certify(original, pruned, StateSpaceSpec(dim=3, radius=1.0), n=10, seed=0)
        d = LinearSystem(a=np.eye(3), b=np.eye(3))
        report = deviation_audit(d, original, pruned, cert, x0, 60)
        gaps = report.loops[0].states - report.loops[1].states
        expected = np.array([linalg.vector_norm(g) for g in gaps])
        assert report.divergence.tobytes() == expected.tobytes()
        if growth > 2:
            assert expected[1] < 1e-290 and expected[-1] > 1e290

    def test_huge_outputs_do_not_overflow(self):
        # the state stays at (0.5, 0), where the outputs differ by 5e159,
        # whose square overflows; the bound there is 5e159 rounded outward
        original = _one_layer([[1e160, 0.0]])
        pruned = _one_layer([[0.0, 0.0]])
        cert = certify(original, pruned, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        d = LinearSystem(a=np.eye(2), b=np.zeros((2, 1)))
        report = deviation_audit(d, original, pruned, cert, [0.5, 0.0], 3)
        for loop in report.loops:
            assert loop.deviation.tolist() == [5e159] * 4
            assert (loop.bound >= 5e159).all()
        assert report.in_ball_count == 8
        assert report.in_ball_violations == 0
        assert report.max_in_ball_deviation == 5e159

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_deviation_is_an_in_ball_violation(self):
        # at x0 = (1, 1) both policies output inf, so the deviation is NaN;
        # the loops blow up there, and the one state each visited is a violation
        original = _one_layer([[1e308, 1e308]])
        pruned = _one_layer([[1e308, np.nextafter(1e308, 0.0)]])
        box = (np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        space = StateSpaceSpec(dim=2, radius=3.0, box=box)
        cert = certify(original, pruned, space, n=1000, seed=0)
        report = deviation_audit(DoubleIntegrator(), original, pruned, cert, [1.0, 1.0], 5)
        assert report.blowup == ("original", 0)
        assert report.in_ball_count == 2
        assert report.in_ball_violations == 2
        assert np.isnan(report.max_in_ball_deviation)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_recorded_with_partial_rows(self):
        explode = MlpPolicy(
            layers=(
                Layer(weight=[[1e160, 0.0]], bias=[0.0], activation=ActivationKind("identity")),
            )
        )
        calm = _zero_policy(2, 1)
        d = DoubleIntegrator(dt=1e160)
        cert = certify(calm, calm, StateSpaceSpec(dim=2, radius=1.0), n=100, seed=0)
        report = deviation_audit(d, calm, explode, cert, [0.5, 0.0], 10)
        assert report.blowup is not None
        assert report.blowup[0] == "pruned"
        original, truncated = report.loops
        assert len(original.states) == 11
        assert len(truncated.states) == report.blowup[1] + 1


def _clipped_cycle():
    """A loop with a one-step transient and a period-3 cycle: A permutes the
    coordinates, and the box clips x1 = (9, 1, 2) to (3, 1, 2), whose orbit
    comes back at step 4.  The action enters no state, and the original
    policy's output, relu of the first coordinate, is 1, 3, 2, 1 along the
    first four states, while the pruned one outputs 0."""
    box = (np.zeros(3), np.array([3.0, 3.0, 9.0]))
    d = LinearSystem(a=np.roll(np.eye(3), 1, axis=0), b=np.zeros((3, 1)), state_box=box)
    return d, _one_layer([[1.0, 0.0, 0.0]]), _one_layer([[0.0, 0.0, 0.0]]), [1.0, 2.0, 9.0]


def _spy_audits(monkeypatch):
    """Record the columns of every ``audit_states`` call ``deviation_audit`` makes."""
    seen = []

    def spy(original, pruned, delta_norms, states):
        seen.append(np.array(states))
        return audit_states(original, pruned, delta_norms, states)

    monkeypatch.setattr(controlsim, "audit_states", spy)
    return seen


def _csv_row(t, x, u, dev, bound, inside):
    return ",".join([str(t), *map(repr, x), *map(repr, u), repr(dev), repr(bound),
                     str(int(inside))]) + "\r\n"


def _loop_case(case):
    """``(d, original, pruned, x0, T)``: both loops reach a fixed point mid
    horizon, both enter a period-3 cycle at step 1, or neither repeats."""
    if case == "fixed-point":
        original, pruned = _pruned_pair(fixture="double_integrator_policy.json")
        return (DoubleIntegrator(), original, pruned, [1.0, 0.0], 10_000)
    if case == "clipped-cycle":
        return (*_clipped_cycle(), 100)
    return (Pendulum(action_limit=5.0), *_pruned_pair(), [0.5, 0.0], 300)


class TestDistinctStateAudit:
    """Each distinct state goes through ``audit_states`` once; a repeated
    state's row is its first visit's, and every count counts every visit."""

    def _cert(self, original, pruned, dim, radius, scale=1.0):
        cert = certify(original, pruned, StateSpaceSpec(dim=dim, radius=radius), n=10, seed=0)
        return scaled_certificate(cert, scale)

    @pytest.mark.parametrize("case", ["fixed-point", "clipped-cycle", "no-repeat"])
    def test_each_distinct_state_is_audited_once(self, case, monkeypatch):
        d, original, pruned, x0, T = _loop_case(case)
        cert = self._cert(original, pruned, len(x0), 5.0)
        seen = _spy_audits(monkeypatch)
        forward_batch_columns = []
        forward_batch = certifier.forward_batch

        def counted(p, states):
            forward_batch_columns.append(states.shape[1])
            return forward_batch(p, states)

        monkeypatch.setattr(certifier, "forward_batch", counted)
        report = deviation_audit(d, original, pruned, cert, x0, T)
        assert len(seen) == 2
        for loop, columns in zip(report.loops, seen, strict=True):
            repeat = _first_repeat(loop.states)
            assert columns.shape[1] == (T + 1 if repeat is None else repeat) == loop.distinct
            assert columns.T.tobytes() == loop.states[: loop.distinct].tobytes()
        # both policies see each audited column once
        assert forward_batch_columns == [c.shape[1] for c in seen for _ in range(2)]
        if case == "fixed-point":
            assert 1_000 < seen[0].shape[1] < 9_000
        elif case == "clipped-cycle":
            assert [c.shape[1] for c in seen] == [4, 4]
        else:
            assert [c.shape[1] for c in seen] == [T + 1, T + 1]

    def test_a_violating_cycle_state_counts_once_per_visit(self):
        # bound 0.7 * |s| = 2.62 at each cycle state (|s| = sqrt 14), so only
        # (3, 1, 2), whose deviation is 3, breaks it; x0 lies outside the ball
        d, original, pruned, x0 = _clipped_cycle()
        T = 100
        cert = self._cert(original, pruned, 3, 5.0, scale=0.7)
        report = deviation_audit(d, original, pruned, cert, x0, T)
        # the per-row audit: every one of the T+1 states, repeats included
        violations = inside = 0
        for label, loop in zip(("original", "pruned"), report.loops, strict=True):
            assert loop.label == label
            full = audit_states(original, pruned, cert.delta_norms(), loop.states.T)
            in_ball = full.norm <= cert.radius
            violations += int(np.count_nonzero(full.violation & in_ball))
            inside += int(in_ball.sum())
            assert (loop.in_ball == in_ball).all()
            assert loop.bound.tobytes() == full.bound.tobytes()
            assert loop.deviation.tobytes() == full.deviation.tobytes()
        visits = len(range(1, T + 1, 3))  # (3, 1, 2) at steps 1, 4, 7, ...
        assert violations == report.in_ball_violations == 2 * visits == 68
        assert report.in_ball_count == inside == 2 * T
        assert report.out_of_ball_count == 2
        assert report.max_in_ball_deviation == 3.0

    @pytest.mark.parametrize("case", ["fixed-point", "clipped-cycle", "no-repeat"])
    def test_repeated_csv_rows_copy_their_source_row(self, case, tmp_path):
        d, original, pruned, x0, T = _loop_case(case)
        cert = self._cert(original, pruned, len(x0), 5.0)
        report = deviation_audit(d, original, pruned, cert, x0, T)
        for loop in report.loops:
            path = tmp_path / f"{loop.label}.csv"
            _write_trajectory_csv(path, loop, blowup=False)
            lines = path.read_bytes().decode().splitlines(keepends=True)[1:]
            # the old writer's bytes: every row formatted from its own cells
            assert lines == [
                _csv_row(t, *cells) for t, cells in enumerate(zip(
                    loop.states.tolist(), loop.actions.tolist(), loop.deviation.tolist(),
                    loop.bound.tolist(), loop.in_ball.tolist()))
            ]
            if loop.source is None:
                assert case == "no-repeat"
                continue
            assert len(lines) == T + 1 > loop.distinct
            for j, src in enumerate(loop.source.tolist()):
                assert lines[j].split(",", 1) == [str(j), lines[src].split(",", 1)[1]]

    @pytest.mark.parametrize("case", ["fixed-point", "clipped-cycle", "no-repeat"])
    def test_actions_are_the_applied_ones(self, case):
        # rows < T hold the actions rollout applied; the final row's is its
        # source row's, which is forward at the final state
        d, original, pruned, x0, T = _loop_case(case)
        cert = self._cert(original, pruned, len(x0), 5.0)
        report = deviation_audit(d, original, pruned, cert, x0, T)
        for loop, p in zip(report.loops, (original, pruned), strict=True):
            traj = rollout(d, p, x0, T)
            assert loop.actions[:T].tobytes() == traj.actions.tobytes()
            assert loop.actions[T].tobytes() == forward(p, loop.states[T]).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_blown_up_loop_audits_every_visited_state(self, monkeypatch):
        # x doubles each step and overflows at t = 1023, before any repeat
        d = LinearSystem(a=[[2.0]], b=np.zeros((1, 1)))
        p = _zero_policy(1, 1)
        cert = self._cert(p, p, 1, 1.0)
        seen = _spy_audits(monkeypatch)
        report = deviation_audit(d, p, p, cert, [1.0], 5_000)
        assert report.blowup == ("original", 1023)
        for loop, columns in zip(report.loops, seen, strict=True):
            assert loop.source is None
            assert columns.shape[1] == len(loop.states) == 1024
            assert loop.actions.shape == (1024, 1)
        assert report.in_ball_count + report.out_of_ball_count == 2 * 1024
