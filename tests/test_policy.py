import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CERTIFIED_SAMPLES,
    naive_forward,
    random_policy,
    traced_peak,
    where_activation,
)
from prunecert import policy, schema
from prunecert.certifier import audit_states
from prunecert.policy import (
    ActivationKind,
    Layer,
    MlpPolicy,
    apply_activation,
    forward,
    forward_batch,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_policy,
)
from prunecert.linalg import gram
from prunecert.pruner import collect_calibration, rank_weights


class TestActivationKind:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ActivationKind("gelu")
        with pytest.raises(ValueError):
            ActivationKind("tanh")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            ActivationKind("leaky_relu", alpha)

    def test_alpha_one_allowed(self):
        assert ActivationKind("elu", 1.0).alpha == 1.0


_TINY = np.finfo(float).smallest_subnormal
_EDGE_INPUTS = [0.0, -0.0, _TINY, -_TINY, 1e-310, -1e-310, np.inf, -np.inf, np.nan, -np.nan,
                1e308, -1e308, -745.0, -40.0, -1e-17, 1e-17]


class TestApplyActivation:
    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    @pytest.mark.parametrize("name", ["relu", "leaky_relu", "prelu", "elu", "identity"])
    def test_bits_match_where_formulas(self, name, alpha):
        kind = ActivationKind(name, alpha)
        rng = np.random.default_rng(11)
        x = np.concatenate([_EDGE_INPUTS, rng.normal(scale=20.0, size=3000),
                            rng.normal(size=1000) * 1e-300])
        x.setflags(write=False)
        before = x.tobytes()
        for v in (x, x.reshape(4, -1), x.reshape(-1, 4).T, x[::3]):
            y = apply_activation(kind, v)
            assert y.shape == v.shape
            assert y.tobytes() == where_activation(kind, v).tobytes()
            assert not np.shares_memory(y, v)
        assert x.tobytes() == before

    def test_calibration_inputs_match_where_formulas(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_policy(rng, depth=3, max_width=9)
            states = rng.normal(scale=2.0, size=(40, p.input_dim))
            expected = []
            x = states.T
            for layer in p.layers:
                expected.append(x)
                x = where_activation(layer.activation, layer.weight @ x + layer.bias[:, None])
            got = []
            policy._propagate(p, policy._columns(p, states), visit=got.append)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
            # calibration keeps each input's curvature block, bit for bit
            blocks = collect_calibration(p, list(states)).curvature
            assert [h.tobytes() for h in blocks] == [gram(a).tobytes() for a in expected]

    def test_relu(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("relu"), [-1.0, 2.0, 0.0]),
            [0.0, 2.0, 0.0],
        )

    def test_leaky_relu(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("leaky_relu", 0.1), [-10.0]), [-1.0]
        )

    def test_elu_zero_anchor(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("elu", 1.0), [0.0]), [0.0]
        )

    def test_identity(self):
        np.testing.assert_array_equal(
            apply_activation(ActivationKind("identity"), [-3.0, 5.0]), [-3.0, 5.0]
        )

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_zero_anchor(self, kind):
        np.testing.assert_array_equal(
            apply_activation(kind, np.zeros(4)), np.zeros(4)
        )

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_non_expansive_vectors(self, kind):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=3.0, size=(100_000, 8))
        y = apply_activation(kind, x)
        assert (
            np.linalg.norm(y, axis=1) <= np.linalg.norm(x, axis=1)
        ).all(), f"{kind.kind} expanded a vector"

    @pytest.mark.parametrize("kind", CERTIFIED_SAMPLES, ids=lambda k: f"{k.kind}-{k.alpha}")
    def test_unit_lipschitz_scalar_pairs(self, kind):
        rng = np.random.default_rng(1)
        a = rng.normal(scale=5.0, size=100_000)
        b = rng.normal(scale=5.0, size=100_000)
        fa = apply_activation(kind, a)
        fb = apply_activation(kind, b)
        assert (np.abs(fa - fb) <= np.abs(a - b) + 1e-15).all()

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_elu_contraction_property(self, a, b):
        kind = ActivationKind("elu", 0.7)
        fa = float(apply_activation(kind, np.array([a]))[0])
        fb = float(apply_activation(kind, np.array([b]))[0])
        assert abs(fa - fb) <= abs(a - b) + 1e-12


def _single_layer(w, kind=None):
    return MlpPolicy(
        layers=(
            Layer(
                weight=np.atleast_2d(np.asarray(w, dtype=float)),
                bias=np.zeros(np.atleast_2d(w).shape[0]),
                activation=kind or ActivationKind("relu"),
            ),
        )
    )


class TestForward:
    def test_one_layer_positive(self):
        p = _single_layer([[1.0]])
        np.testing.assert_array_equal(forward(p, [2.0]), [2.0])

    def test_one_layer_negative_clipped(self):
        p = _single_layer([[1.0]])
        np.testing.assert_array_equal(forward(p, [-2.0]), [0.0])

    def test_two_layer_hand_trace(self):
        # layer 1 maps 3 -> (3, -3) -> relu (3, 0); layer 2 sums -> 3
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0], [-1.0]], bias=[0.0, 0.0], activation=ActivationKind("relu")),
                Layer(weight=[[1.0, 1.0]], bias=[0.0], activation=ActivationKind("relu")),
            )
        )
        np.testing.assert_array_equal(forward(p, [3.0]), [3.0])

    def test_dimension_mismatch(self):
        p = _single_layer([[1.0, 2.0]])
        with pytest.raises(ValueError, match="dim"):
            forward(p, [1.0])

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        p = random_policy(rng, depth=3)
        s = rng.normal(size=p.input_dim)
        a = forward(p, s)
        b = forward(p, s)
        np.testing.assert_array_equal(a, b)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_policy(rng, depth=int(rng.integers(1, 4)), max_width=6)
            s = rng.normal(size=p.input_dim)
            np.testing.assert_allclose(forward(p, s), naive_forward(p, s), rtol=1e-12, atol=1e-12)

    def test_matches_naive_oracle_on_tiny_elu_preactivations(self):
        # pre-activations near -1e-17, where exp(z) - 1 cancels to 0.0
        elu = ActivationKind("elu", 0.5)
        p = MlpPolicy(layers=(Layer(weight=[[1.0], [3.0], [0.25]], bias=[0.0, 0.0, -1e-17],
                                    activation=elu),))
        s = [-1e-17]
        np.testing.assert_allclose(forward(p, s), naive_forward(p, s), rtol=1e-15, atol=0)
        assert (forward(p, s) < 0).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        p = random_policy(rng, depth=3, max_width=8)
        states = rng.normal(size=(p.input_dim, 17)).T
        batch = forward_batch(p, states)
        for j in range(17):
            np.testing.assert_allclose(batch[j], forward(p, states[j]), atol=1e-14)


class TestForwardBatchBlocks:
    """``forward_batch`` runs the states, as columns, through ``_propagate`` in
    the fewest blocks of at most ``_BLOCK // 512`` columns whose widest layer
    output holds at most ``_BLOCK`` floats, with boundaries on whole
    ``_TILE``-column tiles."""

    def _recorded(self, monkeypatch, p, n):
        calls = []

        def recording(q, x, visit=None):
            out = propagate(q, x, visit)
            calls.append((x.shape[1], out.copy()))
            return out

        propagate = policy._propagate
        monkeypatch.setattr(policy, "_propagate", recording)
        states = np.random.default_rng(14).normal(size=(p.input_dim, n)).T
        return forward_batch(p, states), calls

    def test_wide_batch_runs_in_tile_aligned_blocks(self, monkeypatch):
        # 128 columns fit a block: five tiles, the last partial, go in three
        p = random_policy(np.random.default_rng(13), dims=[2, policy._BLOCK // 128, 1])
        out, calls = self._recorded(monkeypatch, p, 300)
        assert [width for width, _ in calls] == [64, 128, 108]
        joined = np.concatenate([block for _, block in calls], axis=1)
        assert out.T.tobytes() == joined.tobytes()

    def test_narrow_batch_runs_in_capped_blocks(self, monkeypatch):
        # 128 wide, _BLOCK floats would take 8,192 columns: the cap of
        # _BLOCK // 512 columns splits 10^4 states into five blocks of whole
        # tiles, not two
        p = random_policy(np.random.default_rng(13), dims=[8, 128, 128, 2])
        out, calls = self._recorded(monkeypatch, p, 10_000)
        assert [width for width, _ in calls] == [1984, 1984, 2048, 1984, 2000]
        joined = np.concatenate([block for _, block in calls], axis=1)
        assert out.T.tobytes() == joined.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_keep_the_whole_batch_bits(self, order):
        # several blocks per batch, each a whole number of tiles: equal
        # blocks that end in a partial tile moved some bits.  The widths 512
        # and 128 at 10^4 states are the benchmark's audits; at a _BLOCK of
        # 2**19 the width-512 and width-1024 batches lose the single call's
        # bits, so 2**20 is the smallest block that keeps them.  The width-128
        # and width-2 batches run in five blocks of at most _BLOCK // 512
        # columns.  The whole batch runs on the states' columns as they lie
        for seed, dims, n in ((16, [8, 1024, 2], 5000), (17, [8, 512, 512, 2], 10_000),
                              (18, [8, 128, 128, 2], 10_000), (19, [2, 2, 1], 10_000)):
            rng = np.random.default_rng(seed)
            p = random_policy(rng, dims=dims)
            states = np.asarray(rng.uniform(-3.0, 3.0, size=(dims[0], n)).T, order=order)
            whole = policy._propagate(p, states.T)
            assert forward_batch(p, states).T.tobytes() == whole.tobytes()

    def test_batch_within_one_block_is_one_call(self, monkeypatch):
        p = random_policy(np.random.default_rng(13), dims=[2, policy._BLOCK // 128, 1])
        out, calls = self._recorded(monkeypatch, p, 128)
        assert [width for width, _ in calls] == [128]
        assert out.T.tobytes() == calls[0][1].tobytes()

    @pytest.mark.parametrize("name, width, bound", [
        pytest.param("relu", 512, 20, id="relu"),
        pytest.param("elu", 512, 30, id="elu"),
        pytest.param("relu", 128, 6, id="relu-128"),
        pytest.param("elu", 128, 9, id="elu-128"),
    ])
    def test_audit_memory_is_bounded(self, name, width, bound):
        # the unblocked pass held three 512 x 10^4 arrays per layer, ~117 MB;
        # blocks of 2**21 floats peaked at 26.5, 41.1 and 19.8 MB here,
        # blocks of 2**20 floats at 16.4, 25.3, 10.1 and 15.6 MB, and blocks
        # of at most 2,048 columns leave width 512 and take width 128 to
        # 4.4 and 6.6 MB
        rng = np.random.default_rng(15)
        original = random_policy(rng, dims=[8, width, width, 2])
        original = MlpPolicy(tuple(Layer(la.weight, la.bias, ActivationKind(name, 0.5))
                                   for la in original.layers))
        pruned = MlpPolicy(tuple(Layer(np.where(rng.random(la.weight.shape) < 0.5, 0.0,
                                                la.weight), la.bias, la.activation)
                                 for la in original.layers))
        states = rng.normal(size=(8, 10_000)).T
        peak = traced_peak(audit_states, original, pruned, ((0, 1.0), (1, 1.0), (2, 1.0)), states)
        assert peak < bound * 2**20


class TestRankingMemory:
    def test_rank_weights_memory_is_bounded(self):
        # the ranking holds 32 bytes per ranked weight, 8.2 MB here; per-layer
        # index arrays and their copies (~146 bytes per weight) passed 24 MB.
        # Forming each curvature block again and decoding (row, col) into
        # fresh arrays peaked at 14.25 MB; ranking the kept blocks and
        # decoding in place peaks at 10.35 MB
        rng = np.random.default_rng(17)
        p = random_policy(rng, dims=[8, 512, 512, 2])
        p = MlpPolicy(tuple(Layer(la.weight, la.bias, ActivationKind("relu")) for la in p.layers))
        calib = collect_calibration(p, rng.normal(size=(1024, 8)), damping="auto")
        # the batch keeps one d x d block per layer, no activation
        assert sum(h.nbytes for h in calib.curvature) == (8 * 8 + 512 * 512 * 2) * 8
        assert traced_peak(rank_weights, p, calib, [0, 1, 2]) < 13 * 2**20


class TestLipschitzUpper:
    """The product of the layers' spectral norms bounds the Lipschitz constant,
    since every certified activation is non-expansive."""

    def test_identity_weights(self):
        p = MlpPolicy(
            layers=tuple(
                Layer(weight=np.eye(3), bias=np.zeros(3), activation=ActivationKind("relu"))
                for _ in range(3)
            )
        )
        assert math.prod(p.weight_spectral_norms) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal_product(self):
        p = MlpPolicy(
            layers=(
                Layer(weight=2.0 * np.eye(2), bias=np.zeros(2), activation=ActivationKind("relu")),
                Layer(weight=3.0 * np.eye(2), bias=np.zeros(2), activation=ActivationKind("relu")),
            )
        )
        assert math.prod(p.weight_spectral_norms) == pytest.approx(6.0, rel=1e-10)

    def test_bounds_finite_difference_slopes(self):
        rng = np.random.default_rng(7)
        p = random_policy(rng, depth=3, max_width=10)
        lip = math.prod(p.weight_spectral_norms)
        s = rng.normal(size=(1000, p.input_dim))
        t = rng.normal(size=(1000, p.input_dim))
        outs_s = forward_batch(p, s)
        outs_t = forward_batch(p, t)
        num = np.linalg.norm(outs_s - outs_t, axis=1)
        den = np.linalg.norm(s - t, axis=1)
        keep = den > 0
        assert (num[keep] <= lip * den[keep] * (1.0 + 1e-9)).all()

    def test_pairwise_bound_property(self):
        rng = np.random.default_rng(8)
        p = random_policy(rng, depth=2, max_width=6)
        lip = math.prod(p.weight_spectral_norms)
        for _ in range(100):
            a = rng.normal(size=p.input_dim)
            b = rng.normal(size=p.input_dim)
            lhs = np.linalg.norm(forward(p, a) - forward(p, b))
            assert lhs <= lip * np.linalg.norm(a - b) + 1e-9


class TestBiasNorms:
    @pytest.mark.parametrize("x, n", [(1.170219427601678, 205), (1.4481816435931316, 139)])
    def test_a_bias_norm_bounds_the_exact_norm(self, x, n):
        # the exact norm of n copies of x is sqrt(n) |x|; the computed 2-norm
        # falls below it here, and the factor 1 + (n + 4) eps lifts it back
        p = MlpPolicy((Layer(np.zeros((n, 1)), [x] * n, ActivationKind("relu")),))
        assert Fraction(p.bias_norms[0]) ** 2 >= n * Fraction(x) ** 2

    @pytest.mark.parametrize("seed", range(8))
    def test_a_bias_norm_keeps_its_bits_in_any_layout(self, seed):
        # a strided bias, shared by the layer since its owner is read-only;
        # BLAS may round its dot with itself apart from its contiguous copy's
        # (seed 3 does on an x86-64 OpenBLAS build)
        owner = np.random.default_rng(seed).standard_normal((257, 3))
        owner.setflags(write=False)
        strided, contiguous = (
            MlpPolicy((Layer(np.zeros((257, 1)), bias, ActivationKind("relu")),))
            for bias in (owner[:, 0], owner[:, 0].copy())
        )
        assert not strided.layers[0].bias.flags.c_contiguous
        assert strided.bias_norms == contiguous.bias_norms


class TestStructuralValidation:
    def test_bias_dim_must_match_rows(self):
        with pytest.raises(ValueError):
            Layer(weight=[[1.0, 2.0]], bias=[0.0, 0.0], activation=ActivationKind("relu"))

    def test_layer_dims_must_chain(self):
        l1 = Layer(weight=[[1.0], [2.0]], bias=[0.0, 0.0], activation=ActivationKind("relu"))
        l2 = Layer(weight=[[1.0, 2.0, 3.0]], bias=[0.0], activation=ActivationKind("relu"))
        with pytest.raises(ValueError):
            MlpPolicy(layers=(l1, l2))

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(ValueError):
            Layer(weight=[[np.nan]], bias=[0.0], activation=ActivationKind("relu"))

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            MlpPolicy(layers=())

    def test_weights_are_frozen(self):
        p = _single_layer([[1.0]])
        with pytest.raises(ValueError):
            p.layers[0].weight[0, 0] = 2.0


def _model_layer(**fields) -> dict:
    """One valid 1x2 relu layer of the model schema, with ``fields`` replaced."""
    return {"weights": [[1.0, -0.5]], "bias": [0.0], "activation": {"kind": "relu"}, **fields}


class TestModelJson:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(9)
        p = random_policy(rng, depth=3, max_width=7)
        path = tmp_path / "model.json"
        save_policy(p, path)
        q = load_policy(path)
        assert q.num_layers == p.num_layers
        for la, lb in zip(p.layers, q.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_reserialization_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(10)
        p = random_policy(rng, depth=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_policy(p, a)
        save_policy(load_policy(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_schema_shape(self):
        p = _single_layer([[1.0, -0.5]])
        d = policy_to_dict(p)
        assert d["layers"][0]["weights"] == [[1.0, -0.5]]
        assert d["layers"][0]["activation"]["kind"] == "relu"

    def test_parse_error_names_field(self):
        with pytest.raises(ValueError, match=r"layers\[0\]"):
            policy_from_dict({"layers": [{"weights": [[1.0], [2.0, 3.0]],
                                          "bias": [0.0], "activation": {"kind": "relu"}}]})

    @pytest.mark.parametrize(
        "model, message",
        [
            pytest.param([], "model: expected an object", id="non-object-model"),
            pytest.param({}, "missing field 'model.layers'", id="missing-layers"),
            pytest.param({"layers": None}, "missing field 'model.layers'", id="null-layers"),
            pytest.param({"layers": []}, "model.layers: expected a nonempty list",
                         id="empty-layers"),
            pytest.param({"layers": [[1.0]]}, "model.layers[0]: expected an object",
                         id="non-object-layer"),
            *(
                pytest.param({"layers": [{**_model_layer(), key: None}]},
                             f"missing field 'model.layers[0].{key}'", id=f"null-{key}")
                for key in ("weights", "bias", "activation")
            ),
            *(
                pytest.param({"layers": [{k: v for k, v in _model_layer().items() if k != key}]},
                             f"missing field 'model.layers[0].{key}'", id=f"missing-{key}")
                for key in ("weights", "bias", "activation")
            ),
            pytest.param({"layers": [_model_layer(weights=[[1.0], [2.0, 3.0]])]},
                         "model.layers[0].weights: rows must all have equal length",
                         id="ragged-rows"),
            pytest.param({"layers": [_model_layer(activation={"alpha": 0.5})]},
                         "missing field 'model.layers[0].activation.kind'", id="missing-kind"),
            pytest.param({"layers": [_model_layer(activation={"kind": "gelu"})]},
                         "model.layers[0].activation: unknown or uncertified activation kind "
                         "'gelu'; certified kinds: relu, leaky_relu, prelu, elu, identity",
                         id="uncertified-kind"),
            pytest.param({"layers": [_model_layer(activation={"kind": "elu", "alpha": True})]},
                         "model.layers[0].activation.alpha: expected a number, got True",
                         id="boolean-alpha"),
            pytest.param({"layers": [_model_layer(activation={"kind": "elu", "alpha": 0})]},
                         "model.layers[0].activation: alpha must lie in (0, 1], got 0.0",
                         id="zero-alpha"),
        ],
    )
    def test_a_broken_field_is_one_error_naming_its_path(self, model, message):
        with pytest.raises(ValueError) as exc:
            policy_from_dict(model)
        assert str(exc.value) == message

    def test_a_non_number_entry_is_named(self):
        # seeded: one entry of a random layer's weights or bias becomes a
        # JSON boolean, a numeric string or a null; each read as a float
        # (true as 1.0, "2.5" as 2.5) before, where alpha refuses them
        rng = np.random.default_rng(18)
        fields = set()
        for _ in range(60):
            d = policy_to_dict(random_policy(rng, depth=3, max_width=6))
            k = int(rng.integers(len(d["layers"])))
            field = ("weights", "bias")[rng.integers(2)]
            bad = (True, False, "2.5", "NaN", None, [1.0])[rng.integers(6)]
            cells = d["layers"][k][field]
            if field == "weights":
                cells = cells[rng.integers(len(cells))]
            cells[rng.integers(len(cells))] = bad
            with pytest.raises(ValueError) as exc:
                policy_from_dict(d)
            assert str(exc.value) == f"model.layers[{k}].{field}: expected a number, got {bad!r}"
            fields.add(field)
        assert fields == {"weights", "bias"}
        with pytest.raises(ValueError, match=r"^model.layers\[0\].weights: expected a number, got True$"):
            policy_from_dict({"layers": [_model_layer(weights=[[True, "2.5"]], bias=[False])]})
        with pytest.raises(ValueError, match=r"^model.layers\[0\].bias: expected a nonempty list of numbers$"):
            policy_from_dict({"layers": [_model_layer(bias=0.0)]})

    def test_integers_read_as_numbers(self):
        p = policy_from_dict({"layers": [_model_layer(weights=[[1, -2]], bias=[3])]})
        assert p.layers[0].weight.tolist() == [[1.0, -2.0]]
        assert p.layers[0].bias.tolist() == [3.0]

    def test_alpha_reads_as_certificate_floats_do(self):
        # a numeric string reads as its number; a missing alpha is 1
        layers = [_model_layer(activation={"kind": "elu", "alpha": "0.25"}), _model_layer()]
        layers[1]["weights"] = [[1.0]]
        p = policy_from_dict({"layers": layers})
        assert [layer.activation.alpha for layer in p.layers] == [0.25, 1.0]

    def test_parse_error_on_syntax_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=r"line \d+ column \d+"):
            load_policy(path)

    def test_alpha_round_trips(self, tmp_path):
        p = MlpPolicy(
            layers=(
                Layer(weight=[[1.0]], bias=[0.0], activation=ActivationKind("leaky_relu", 0.1)),
            )
        )
        path = tmp_path / "m.json"
        save_policy(p, path)
        raw = json.loads(path.read_text())
        assert raw["layers"][0]["activation"]["alpha"] == 0.1
        assert load_policy(path).layers[0].activation.alpha == 0.1


FIXTURES = Path(__file__).parent / "fixtures"

# what the artifacts hold, plus every other JSON value the writer may meet:
# float lists with non-finite entries, pairs holding bools, int-keyed dicts
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.floats())
    | st.lists(st.lists(st.integers(), min_size=2, max_size=2))
    | st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2))
    | st.lists(st.tuples(st.integers(), st.integers()))
    | st.lists(st.tuples(st.integers(), st.integers() | st.booleans()))
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: (
        st.lists(children)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=40,
)


def _finite(obj):
    """``obj`` with NaN and the infinities spelled as RFC 8259 strings."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(obj)]
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    return obj


def _dumped(obj) -> str:
    return json.dumps(_finite(obj), indent=2, sort_keys=True) + "\n"


def _no_constant(name):
    raise AssertionError(f"bare {name} is not RFC 8259 JSON")


class TestCanonicalJson:
    """``_write_json`` writes the bytes of ``json.dump(indent=2,
    sort_keys=True)`` plus a newline, with NaN and the infinities as strings."""

    @given(_json_values)
    @example({"rows": [[1.0, float("inf")], [float("nan"), -0.0]], "pairs": [[1, True]],
              "nested": {"k": {2: [0.5, 1.5], 1: {}}}})
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_json_dumps(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "canonical.json"
        schema._write_json(path, obj)
        assert path.read_bytes() == _dumped(obj).encode("utf-8")
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)

    @pytest.mark.parametrize(
        "n", [schema._CHUNK - 1, schema._CHUNK, schema._CHUNK + 1, 2 * schema._CHUNK + 1]
    )
    def test_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        mask = rng.integers(-(2**40), 2**40, size=(n, 2))
        obj = {
            "mask": mask.tolist(),
            # (row, col) tuples, no list per pair
            "pairs": list(zip(*mask.T.tolist())),
            "rows": [rng.standard_normal(n).tolist()],
        }
        path = tmp_path / "long.json"
        schema._write_json(path, obj)
        assert path.read_text(encoding="utf-8") == _dumped(obj)

    @pytest.mark.parametrize("fixture", ["pendulum_policy.json", "double_integrator_policy.json"])
    def test_fixtures_round_trip_byte_for_byte(self, tmp_path, fixture):
        path = tmp_path / fixture
        save_policy(load_policy(FIXTURES / fixture), path)
        assert path.read_bytes() == (FIXTURES / fixture).read_bytes()
