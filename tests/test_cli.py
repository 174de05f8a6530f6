import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    exact_constant,
    inf_norm_policy,
    naive_step,
    outward_rounding,
    random_policy,
    reference_ranking,
    reference_simulation,
    scaled_norm,
    traced_peak,
    underflow_policy,
)
from prunecert import __version__, cli, policy, schema
from prunecert.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    derive_seed,
    main,
)
from prunecert.certifier import StateSpaceSpec, certificate_from_dict, certify, per_state_bounds
from prunecert.controlsim import DoubleIntegrator, LinearSystem, Pendulum
from prunecert.linalg import spectral_norm, vector_norm
from prunecert.policy import (
    ActivationKind,
    Layer,
    MlpPolicy,
    forward,
    load_policy,
    save_policy,
)
from prunecert.pruner import PrunePlan, collect_calibration, prune_to_budget, rank_weights
from prunecert.schema import _write_json

FIXTURES = Path(__file__).parent / "fixtures"


def _strip_timestamp(path: Path) -> str:
    data = json.loads(path.read_text())
    data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


def _write_states_csv(path: Path, states) -> None:
    np.savetxt(path, np.asarray(states, dtype=float), delimiter=",")


def _simple_model(tmp_path: Path, weight=((1.0,),), name="model.json") -> Path:
    w = np.asarray(weight, dtype=float)
    p = MlpPolicy(
        layers=(Layer(weight=w, bias=np.zeros(w.shape[0]), activation=ActivationKind("relu")),)
    )
    path = tmp_path / name
    save_policy(p, path)
    return path


def _usage_error(capsys, argv) -> str:
    """``main(argv)``, which must exit 1 with one ``error:`` line on stderr
    and no RuntimeWarning; returns that line."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(err) == 1 and err[0].startswith("error: "), (code, err)
    return err[0]


@pytest.fixture
def random_model(tmp_path):
    rng = np.random.default_rng(100)
    p = random_policy(rng, dims=[3, 6, 4, 2])
    path = tmp_path / "model.json"
    save_policy(p, path)
    calib = tmp_path / "calib.csv"
    _write_states_csv(calib, rng.uniform(-1.0, 1.0, size=(20, 3)))
    return path, calib


class TestPrune:
    def test_sparsity_zero_byte_stable(self, tmp_path, random_model):
        model, calib = random_model
        out = tmp_path / "out"
        code = main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--sparsity", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "pruned_model.json").read_bytes() == model.read_bytes()

    def test_full_sparsity_single_layer_zeroed(self, tmp_path, random_model):
        model, calib = random_model
        out = tmp_path / "out"
        code = main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "1", "--sparsity", "1.0", "--damping", "auto",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        pruned = load_policy(out / "pruned_model.json")
        assert not pruned.layers[1].weight.any()
        original = load_policy(model)
        np.testing.assert_array_equal(pruned.layers[0].weight, original.layers[0].weight)

    def test_sparsity_counts_only_nonzero_weights(self, tmp_path):
        # a weight that is already 0 is not ranked, so it fills no slot of
        # round(s * n): 0.5 of the three nonzero weights is two, both removed
        model = _simple_model(tmp_path, weight=((0.0, 1.0), (2.0, -1.0)))
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).normal(size=(8, 2)))
        out = tmp_path / "out"
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--sparsity", "0.5", "--out", str(out),
        ]) == EXIT_OK
        plan = json.loads((out / "prune_plan.json").read_text())
        original, pruned = load_policy(model), load_policy(out / "pruned_model.json")
        (lost,) = PrunePlan.from_policies(original, pruned).layers
        assert plan["pruned_weights"] == plan["layers"][0]["removed"] == len(lost.mask) == 2
        assert pruned.layers[0].weight[0, 0] == 0.0

    def test_requires_exactly_one_mode(self, tmp_path, random_model):
        model, calib = random_model
        args = ["prune", "--model", str(model), "--calibration", str(calib),
                "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_USAGE
        assert main(args + ["--sparsity", "0.5", "--epsilon", "0.1"]) == EXIT_USAGE

    def test_plan_file_records_masks_and_saliencies(self, tmp_path, random_model):
        model, calib = random_model
        out = tmp_path / "out"
        main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "0", "--sparsity", "0.5", "--damping", "auto",
            "--seed", "7", "--out", str(out),
        ])
        plan = json.loads((out / "prune_plan.json").read_text())
        assert plan["seed"] == 7
        assert plan["tool_version"]
        (layer,) = plan["layers"]
        assert sorted(layer) == [
            "compensated", "delta_spectral", "k", "removed", "saliency_max", "saliency_sum"
        ]
        assert layer["k"] == 0
        assert layer["removed"] == plan["pruned_weights"] > 0
        assert 0.0 <= layer["saliency_max"] <= layer["saliency_sum"]
        assert layer["delta_spectral"] > 0
        # the removed weights are the diff of the two models
        original, pruned = load_policy(model), load_policy(out / "pruned_model.json")
        assert (original.layers[0].weight != pruned.layers[0].weight).sum() == layer["removed"]

    def test_artifacts_are_canonical_json(self, tmp_path, random_model):
        model, calib = random_model
        main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--sparsity", "0.5", "--out", str(tmp_path / "p"),
        ])
        main([
            "certify", "--model", str(model),
            "--pruned", str(tmp_path / "p" / "pruned_model.json"),
            "--radius", "1.0", "--samples", "20", "--out", str(tmp_path / "c"),
        ])
        for path in (tmp_path / "p" / "prune_plan.json", tmp_path / "c" / "certificate.json"):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_dead_layer_prunes_under_auto_damping(self, tmp_path):
        # layer 0's bias of -10 silences both ReLUs on every calibration
        # state, so layer 1's curvature block is all zero
        relu = ActivationKind("relu")
        model = tmp_path / "model.json"
        save_policy(MlpPolicy(layers=(
            Layer(weight=[[1.0, 0.5], [-0.5, 1.0]], bias=[-10.0, -10.0], activation=relu),
            Layer(weight=[[2.0, -3.0]], bias=[0.0], activation=relu),
        )), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
        for flags in ([], ["--compensate"]):
            out = tmp_path / f"out{len(flags)}"
            assert main([
                "prune", "--model", str(model), "--calibration", str(calib),
                "--sparsity", "0.5", "--out", str(out), *flags,
            ]) == EXIT_OK
            # layer 1's free removals come first, then one weight of layer 0
            plan = json.loads((out / "prune_plan.json").read_text())
            assert [layer["k"] for layer in plan["layers"]] == [0, 1]
            assert (plan["layers"][1]["removed"], plan["layers"][1]["saliency_sum"]) == (2, 0.0)
            pruned = load_policy(out / "pruned_model.json")
            assert pruned.layers[1].weight.tolist() == [[0.0, 0.0]]
            # a dead block runs no re-fit, so its row is not compensated, as
            # the model pair shows
            pair = PrunePlan.from_policies(load_policy(model), pruned)
            assert plan["layers"][1]["compensated"] is pair.layers[1].compensated is False

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["prune", "--model", str(bad), "--calibration", str(bad),
                     "--sparsity", "0.1"]) == EXIT_USAGE

    def test_budget_mode_recertifies_under_epsilon(self, tmp_path, random_model):
        # 0.5 removes weights from both listed layers; 0.05 removed none,
        # so its certify checked a budget of 0
        model, calib = random_model
        out = tmp_path / "out"
        epsilon = 0.5
        code = main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "0,1", "--epsilon", str(epsilon), "--radius", "2.0",
            "--damping", "auto", "--out", str(out),
        ])
        assert code == EXIT_OK
        cert_out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(out / "pruned_model.json"),
            "--radius", "2.0", "--samples", "500", "--out", str(cert_out),
        ])
        assert code == EXIT_OK
        plan = json.loads((out / "prune_plan.json").read_text())
        assert [(row["k"], row["removed"] > 0) for row in plan["layers"]] == [(0, True), (1, True)]
        cert = json.loads((cert_out / "certificate.json").read_text())
        assert cert["budget"] <= epsilon * (1 + 1e-12)

    @pytest.mark.parametrize(
        "mode",
        [
            ["--sparsity", "1.5"],
            ["--sparsity", "-0.1"],
            ["--sparsity", "0.5", "--epsilon", "0.1"],
            [],
            ["--epsilon", "0.1"],  # no state space to split the budget over
            ["--epsilon", "nan", "--radius", "1"],
            ["--epsilon", "-0.1", "--radius", "1"],
            ["--epsilon", "0.1", "--radius", "nan"],
            ["--epsilon", "0.1", "--radius", "-1"],
            ["--epsilon", "inf", "--radius", "inf"],
            ["--epsilon", "0.1", "--radius", "1", "--layers", "3"],
            ["--epsilon", "0.1", "--box-lo", "-1,-1,-1"],
            ["--epsilon", "0.1", "--box-lo", "-1,-1", "--box-hi", "1,1"],
            ["--epsilon", "0.1", "--radius", "1", "--states", "states.csv"],
            ["--sparsity", "0.5", "--radius", "1"],
            ["--sparsity", "0.5", "--box-lo", "-1,-1,-1"],
            ["--sparsity", "0.5", "--box-hi", "1,1,1"],
            ["--sparsity", "0.5", "--states", "states.csv"],
            ["--sparsity", "0.5", "--radius", "-5", "--box-lo", "9"],
        ],
    )
    def test_mode_rejected_before_calibration_and_ranking(
        self, tmp_path, random_model, monkeypatch, mode
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("prune did work before validating its mode")

        monkeypatch.setattr(cli, "collect_calibration", forbidden)
        monkeypatch.setattr(cli, "rank_weights", forbidden)
        model, calib = random_model
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--out", str(tmp_path / "o"), *mode,
        ]) == EXIT_USAGE


class TestInfiniteDamping:
    """``--damping`` is ``auto`` or a finite number >= 0: an infinite one,
    by flag or by config, is a usage error in both modes, raised before any
    file is read.  Unrefused, it failed as a singular matrix, or under
    ``--diagonal`` scored every weight alike and wrote "Infinity"."""

    @pytest.mark.parametrize("diagonal", [[], ["--diagonal"]])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_is_a_usage_error(self, tmp_path, capsys, diagonal, source):
        model = tmp_path / "model.json"
        save_policy(MlpPolicy(layers=(
            Layer(np.eye(2), np.zeros(2), ActivationKind("identity")),
            Layer([[1.0, -2.0]], [0.0], ActivationKind("relu")),
        )), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.ones((4, 2)))
        if source == "flag":
            damping, got = ["--damping", "inf"], "'inf'"
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"damping": "Infinity"}))
            damping, got = ["--config", str(cfg)], "'Infinity'"
        argv = ["prune", "--model", str(model), "--calibration", str(calib), "--layers", "1",
                "--sparsity", "0.5", *diagonal, *damping, "--out", str(tmp_path / "out")]
        expected = f"error: damping: expected a finite number >= 0 or 'auto', got {got}"
        assert _usage_error(capsys, argv) == expected
        assert not (tmp_path / "out").exists()
        # no file is read first: a missing model gives the same error
        model.unlink()
        assert _usage_error(capsys, argv) == expected


class TestPruneOverflow:
    """A calibration batch whose layer inputs or curvature overflow is one
    usage error naming the layer, in every mode, with no numpy warning."""

    @pytest.mark.parametrize(
        "scale, states, flags, message",
        [
            (1e300, None, [], "layer 1: the calibration curvature 2 X X^T overflows"),
            (1e300, None, ["--diagonal", "--damping", "0.1"],
             "layer 1: the calibration curvature 2 X X^T overflows"),
            # a finite block whose trace, the sum auto damping takes, overflows
            (3.5e153, [[1.0, 1.0]] * 4, ["--diagonal"],
             "layer 1: the calibration curvature 2 X X^T overflows"),
            (1e300, [[1e10, 1e10]] * 4, [],
             "layer 1's calibration input contains non-finite entries"),
        ],
    )
    def test_names_the_layer(self, tmp_path, capsys, scale, states, flags, message):
        relu = ActivationKind("relu")
        model = tmp_path / "model.json"
        save_policy(MlpPolicy(layers=(Layer(np.eye(2) * scale, np.zeros(2), relu),
                                      Layer([[1.0, 1.0]], [0.0], relu))), model)
        calib = tmp_path / "calib.csv"
        if states is None:
            states = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2))
        _write_states_csv(calib, states)
        argv = ["prune", "--model", str(model), "--calibration", str(calib),
                "--sparsity", "0.5", *flags, "--out", str(tmp_path / "out")]
        assert _usage_error(capsys, argv) == f"error: {message}"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("compensate", [[], ["--compensate"]])
    def test_an_unranked_overflowing_layer_is_never_read(self, tmp_path, compensate):
        # layer 1's inputs reach 1e200, so its curvature block overflows, but
        # only layer 0 is ranked and walked: nothing reads that block
        relu = ActivationKind("relu")
        model = tmp_path / "model.json"
        save_policy(MlpPolicy(layers=(Layer(np.eye(2) * 1e200, np.zeros(2), relu),
                                      Layer([[1.0, 1.0]], [0.0], relu))), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        argv = ["prune", "--model", str(model), "--calibration", str(calib), "--layers", "0",
                "--sparsity", "0.5", *compensate, "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        plan = json.loads((tmp_path / "out" / "prune_plan.json").read_text())
        assert [row["k"] for row in plan["layers"]] == [0]


class TestPruneMemory:
    """``prune`` on a [8, 512, 512, 2] policy and 1,024 calibration states.
    The batch keeps one curvature block per layer (4.2 MB here), formed once,
    in place of the layers' activations (8.4 MB); the walk gathers only each
    layer's rows and columns, and the full ranking is dropped before the
    model is written."""

    def _peak(self, tmp_path, *flags):
        rng = np.random.default_rng(18)
        p = random_policy(rng, dims=[8, 512, 512, 2])
        model = tmp_path / "model.json"
        save_policy(MlpPolicy(tuple(Layer(la.weight, la.bias, ActivationKind("relu"))
                                    for la in p.layers)), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, rng.normal(size=(1024, 8)))
        argv = ["prune", "--model", str(model), "--calibration", str(calib),
                "--sparsity", "0.5", *flags, "--out", str(tmp_path / "p")]
        peak = traced_peak(main, argv)
        assert (tmp_path / "p" / "pruned_model.json").exists()
        return peak

    def test_zero_only_prune_memory_is_bounded(self, tmp_path):
        # holding the activations and the ranking to the end peaked at
        # 30.9 MB, dropping both early at 24.6 MB, and keeping blocks at 19.6 MB
        assert self._peak(tmp_path) < 22 * 2**20

    def test_compensated_prune_memory_is_bounded(self, tmp_path):
        # the activations kept for the re-fit, whose blocks were formed
        # twice, peaked at 41.6 MB; the blocks kept from ranking, at 27.5 MB
        assert self._peak(tmp_path, "--compensate") < 34 * 2**20


class TestPlanMemory:
    """The plan's saliency sum and max on a [8, 512, 512, 2] policy at 50%
    sparsity, whose layer 1 loses 132,609 weights."""

    @pytest.fixture(scope="class")
    def pruned(self):
        rng = np.random.default_rng(18)
        p = random_policy(rng, dims=[8, 512, 512, 2])
        calib = collect_calibration(p, rng.normal(size=(1024, 8)), damping="auto")
        ranking = rank_weights(p, calib, range(p.num_layers))
        ranking = ranking[: round(0.5 * len(ranking))]
        return prune_to_budget(p, ranking, None)[1], ranking

    def test_the_saliencies_keep_the_bits_of_their_list(self, pruned):
        plan, ranking = pruned
        for row, lp in zip(schema._plan_dict(plan, ranking, "auto", 0, __version__)["layers"],
                           plan.layers, strict=True):
            head = ranking.saliency[ranking.layer == lp.layer][: len(lp.mask)].tolist()
            assert row["saliency_sum"].hex() == math.fsum(head).hex()
            assert row["saliency_max"].hex() == max(head, default=0.0).hex()

    def test_the_saliencies_take_no_list(self, pruned):
        # a list of the head's 132,609 Python floats peaked at 5.1 MB; the
        # head's own copy and the layer mask take 1.1 MB
        assert traced_peak(schema._plan_dict, *pruned, "auto", 0, __version__) < 2 * 2**20


class TestBudgetInputs:
    """Epsilon-mode inputs on the pendulum fixture (2-2-1, six weights)."""

    def _prune(self, tmp_path, *flags):
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        out = tmp_path / "out"
        code = main([
            "prune", "--model", str(FIXTURES / "pendulum_policy.json"),
            "--calibration", str(calib), "--radius", "1", "--out", str(out), *flags,
        ])
        return code, out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "nan"],
        ],
    )
    def test_nan_budget_is_a_usage_error(self, tmp_path, capsys, flags):
        # a NaN cap never compares above a delta norm: the walk removed all
        # six weights, and the certified budget came out far above epsilon
        code, out = self._prune(tmp_path, *flags)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "pruned_model.json").exists()

    def test_an_infinite_constant_caps_its_layer_at_zero(self, tmp_path):
        # layer 0's bias carry underflows and meets an inf norm, so layer
        # 1's constant is inf and its cap 0; a NaN constant, taken as an
        # infinite cap, let the walk remove all four weights of layer 1
        p = underflow_policy()
        model = tmp_path / "model.json"
        save_policy(p, model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        out = tmp_path / "out"
        code = main([
            "prune", "--model", str(model), "--calibration", str(calib), "--epsilon", "1",
            "--radius", "0", "--layers", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads((out / "prune_plan.json").read_text())["pruned_weights"] == 0
        kept = load_policy(out / "pruned_model.json").layers[1].weight
        np.testing.assert_array_equal(kept, p.layers[1].weight)

    def test_allocation_weights_flag_is_a_usage_error(self, tmp_path, capsys):
        # the budget always splits evenly; any other split is one
        # admissible_magnitude call per layer in the library
        code, out = self._prune(tmp_path, "--epsilon", "5", "--allocation-weights", "1,1")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--allocation-weights" in err[0]
        assert not out.exists()

    def test_infinite_budget_prunes_every_weight(self, tmp_path):
        code, out = self._prune(tmp_path, "--epsilon", "inf")
        assert code == EXIT_OK
        assert not any(layer.weight.any() for layer in load_policy(out / "pruned_model.json").layers)
        # the same bytes as a sparsity-1 prune on the same calibration
        assert main(["prune", "--model", str(FIXTURES / "pendulum_policy.json"),
                     "--calibration", str(tmp_path / "calib.csv"), "--sparsity", "1",
                     "--out", str(tmp_path / "all")]) == EXIT_OK
        assert (out / "pruned_model.json").read_bytes() == (
            tmp_path / "all" / "pruned_model.json"
        ).read_bytes()

    def test_infinite_budget_caps_a_layer_whose_constant_overflows(self, tmp_path):
        # ||W_0|| = inf makes layer 1's constant inf, and inf / inf made a
        # NaN cap: an infinite budget prunes what --sparsity 1 prunes
        model = tmp_path / "model.json"
        save_policy(inf_norm_policy(), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1e-160, 1e-160, size=(16, 2)))
        pruned = []
        for mode in (["--epsilon", "inf", "--radius", "1"], ["--sparsity", "1"]):
            out = tmp_path / mode[0].lstrip("-")
            assert main([
                "prune", "--model", str(model), "--calibration", str(calib), "--layers", "1",
                "--diagonal", *mode, "--out", str(out),
            ]) == EXIT_OK
            pruned.append((out / "pruned_model.json").read_bytes())
        assert pruned[0] == pruned[1]
        assert not load_policy(tmp_path / "epsilon" / "pruned_model.json").layers[1].weight.any()


_PLAN_MODELS = ["pendulum_policy.json", "double_integrator_policy.json", None]


def _prune_plan_model(tmp_path, fixture, *flags):
    """Prune a fixture, or for ``None`` a random [4, 7, 5, 2] policy, on 16
    seeded calibration states; returns the policy, its calibration CSV and
    the output directory."""
    rng = np.random.default_rng(41)
    if fixture is None:
        model = tmp_path / "model.json"
        save_policy(random_policy(rng, dims=[4, 7, 5, 2]), model)
    else:
        model = FIXTURES / fixture
    p = load_policy(model)
    calib_csv = tmp_path / "calib.csv"
    _write_states_csv(calib_csv, rng.uniform(-2.0, 2.0, size=(16, p.input_dim)))
    out = tmp_path / "out"
    assert main([
        "prune", "--model", str(model), "--calibration", str(calib_csv),
        "--seed", "5", "--out", str(out), *flags,
    ]) == EXIT_OK
    return p, calib_csv, out


class TestPlanMatchesReference:
    """prune_plan.json and the pruned model against a plan built entry by
    entry from the pure-Python reference ranking."""

    @pytest.mark.parametrize("fixture", _PLAN_MODELS)
    def test_sparsity_plan(self, tmp_path, fixture):
        p, calib_csv, out = _prune_plan_model(tmp_path, fixture, "--sparsity", "0.5")

        states = np.loadtxt(calib_csv, delimiter=",", ndmin=2)
        ranked = reference_ranking(p, states, range(p.num_layers), damping="auto")
        count = int(round(0.5 * len(ranked)))
        layers = []
        weights = [layer.weight.copy() for layer in p.layers]
        for k in sorted({e[1] for e in ranked[:count]}):
            mine = [e for e in ranked[:count] if e[1] == k]
            for _, _, r, c in mine:
                weights[k][r, c] = 0.0
            delta = weights[k] - p.layers[k].weight
            saliencies = [sal for sal, _, _, _ in mine]
            layers.append({
                "k": k,
                "removed": len(mine),
                # the exact sum, rounded once
                "saliency_sum": float(sum(map(Fraction, saliencies))),
                "saliency_max": max(saliencies),
                "delta_spectral": spectral_norm(delta) if delta.any() else 0.0,
                "compensated": False,
            })
        expected = {
            "layers": layers,
            "pruned_weights": count,
            "damping": "auto",
            "seed": 5,
            "tool_version": __version__,
        }
        plan = json.loads((out / "prune_plan.json").read_text())
        plan.pop("timestamp")
        assert plan == expected
        pruned = load_policy(out / "pruned_model.json")
        for k, w in enumerate(weights):
            np.testing.assert_array_equal(pruned.layers[k].weight, w)

    @pytest.mark.parametrize("fixture", _PLAN_MODELS)
    @pytest.mark.parametrize(
        # epsilon 10 leaves each fixture's layer 1 with nothing removed; a
        # compensated row keeps every weight it lost at 0
        "flags",
        [
            ("--sparsity", "0.5"),
            ("--epsilon", "10", "--radius", "2"),
            ("--sparsity", "0.5", "--compensate"),
            ("--epsilon", "10", "--radius", "2", "--compensate"),
        ],
    )
    def test_rows_count_the_weights_the_model_pair_lost(self, tmp_path, fixture, flags):
        p, _, out = _prune_plan_model(tmp_path, fixture, *flags)
        plan = json.loads((out / "prune_plan.json").read_text())
        lost = {
            lp.layer: len(lp.mask)
            for lp in PrunePlan.from_policies(p, load_policy(out / "pruned_model.json")).layers
        }
        rows = plan["layers"]
        assert plan["pruned_weights"] == sum(row["removed"] for row in rows) > 0
        assert {row["k"]: row["removed"] for row in rows if row["removed"]} == lost
        for row in rows:
            if not row["removed"]:
                assert (row["saliency_sum"], row["saliency_max"]) == (0.0, 0.0)


class TestCertify:
    def test_identical_models_zero_budget(self, tmp_path, random_model):
        model, _ = random_model
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--radius", "1.0", "--samples", "50", "--out", str(out),
        ])
        assert code == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["budget"] == 0.0
        assert cert["holds"] is True
        assert cert["audit"]["max_dev"] == 0.0

    def test_an_infinite_constant_certifies_an_infinite_budget(self, tmp_path):
        # layer 0's bias carry underflows and meets an inf norm, so layer
        # 1's constant is inf: the budget bounds nothing, where a NaN
        # constant was refused
        p = underflow_policy()
        model, pruned = tmp_path / "model.json", tmp_path / "pruned.json"
        save_policy(p, model)
        zeroed = Layer(np.zeros((2, 2)), p.layers[1].bias, p.layers[1].activation)
        save_policy(MlpPolicy(layers=(p.layers[0], zeroed, *p.layers[2:])), pruned)
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", "0", "--samples", "10", "--out", str(out),
        ])
        # both outputs overflow at the origin, so the audit flags every state
        assert code == EXIT_VIOLATION
        cert = json.loads((out / "certificate.json").read_text())
        assert (cert["budget"], cert["layers"][0]["c_max"]) == ("Infinity", "Infinity")
        assert cert["audit"]["violations"] == 10

    def test_a_zero_constant_times_an_infinite_delta_norm_is_zero(self, tmp_path):
        # layer 1 is zero, so layer 0's constant is 0, and zeroing layer 0's
        # 1e308 entries has an infinite delta norm: the contribution is 0,
        # where 0 * inf was written as a NaN budget with every state flagged
        identity = ActivationKind("identity")
        model, pruned = tmp_path / "model.json", tmp_path / "pruned.json"
        for path, w in ((model, np.full((2, 2), 1e308)), (pruned, np.zeros((2, 2)))):
            save_policy(MlpPolicy(layers=(Layer(w, np.zeros(2), identity),
                                          Layer(np.zeros((1, 2)), [0.0], identity))), path)
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", "1", "--samples", "100", "--out", str(out),
        ])
        assert code == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        (row,) = cert["layers"]
        assert row["delta_spectral"] == "Infinity"
        assert row["contribution"] == cert["budget"] == 0.0

    def test_equality_fixture_tightness(self, tmp_path):
        original = _simple_model(tmp_path, [[1.0]], "orig.json")
        pruned = _simple_model(tmp_path, [[0.5]], "pruned.json")
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(original), "--pruned", str(pruned),
            "--radius", "2.0", "--box-lo", "2", "--box-hi", "2",
            "--samples", "32", "--out", str(out),
        ])
        assert code == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["audit"]["tightness"] == pytest.approx(1.0, rel=1e-12)

    def test_contributions_sum_to_budget(self, tmp_path, random_model):
        model, calib = random_model
        pruned_out = tmp_path / "p"
        main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "0,2", "--sparsity", "0.4", "--damping", "auto",
            "--out", str(pruned_out),
        ])
        out = tmp_path / "cert"
        main([
            "certify", "--model", str(model),
            "--pruned", str(pruned_out / "pruned_model.json"),
            "--radius", "1.5", "--samples", "200", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        acc = 0.0
        for row in cert["layers"]:
            acc = acc + row["contribution"]
        assert acc == cert["budget"]

    def test_huge_outputs_do_not_overflow(self, tmp_path):
        # every deviation is 1e160 * s_0 <= the budget 1e160, but its square
        # overflows
        original = _simple_model(tmp_path, [[1e160, 0.0]], "orig.json")
        pruned = _simple_model(tmp_path, [[0.0, 0.0]], "pruned.json")
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(original), "--pruned", str(pruned),
            "--radius", "1", "--samples", "10", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["audit"]["violations"] == 0
        assert 0.0 < cert["audit"]["max_dev"] <= cert["budget"] < float("inf")
        assert cert["holds"] is True
        assert code == EXIT_OK

    def test_tiny_bias_stays_in_the_budget(self, tmp_path):
        # layer 0 maps every state to its bias, of norm 5e-170; removing the
        # identity layer 1 moves the output by exactly that much
        def save(weight, name):
            p = MlpPolicy(layers=(
                Layer(weight=np.zeros((2, 2)), bias=[3e-170, 4e-170],
                      activation=ActivationKind("identity")),
                Layer(weight=weight, bias=np.zeros(2), activation=ActivationKind("identity")),
            ))
            save_policy(p, tmp_path / name)
            return tmp_path / name

        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(save(np.eye(2), "orig.json")),
            "--pruned", str(save(np.zeros((2, 2)), "pruned.json")),
            "--radius", "1", "--samples", "10", "--seed", "3", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["audit"]["max_dev"] == 5e-170
        assert cert["budget"] >= 5e-170
        assert code == EXIT_OK

    def test_huge_box_takes_its_corner_norm(self, tmp_path):
        model = _simple_model(tmp_path, [[1.0, 0.0]])
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--box-lo=-1e200,-1e200", "--box-hi=1e200,1e200",
            "--samples", "10", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["radius"] == math.sqrt(2.0) * 1e200
        assert code == EXIT_OK

    def test_architecture_mismatch_reports_layer(self, tmp_path, capsys):
        a = _simple_model(tmp_path, [[1.0]], "a.json")
        b = _simple_model(tmp_path, [[1.0, 2.0]], "b.json")
        code = main(["certify", "--model", str(a), "--pruned", str(b), "--radius", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "layer 0" in err and "shape" in err

    def test_activation_mismatch_is_a_usage_error(self, tmp_path, capsys):
        def one_layer(kind, name):
            p = MlpPolicy(layers=(Layer(weight=np.eye(2), bias=np.zeros(2),
                                        activation=ActivationKind(kind)),))
            save_policy(p, tmp_path / name)
            return str(tmp_path / name)

        out = tmp_path / "o"
        assert _usage_error(capsys, [
            "certify", "--model", one_layer("relu", "a.json"),
            "--pruned", one_layer("identity", "b.json"), "--radius", "1", "--out", str(out),
        ]) == "error: layer 0: activations differ"
        assert not out.exists()

    def test_schema_keys(self, tmp_path, random_model):
        model, _ = random_model
        out = tmp_path / "cert"
        main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--radius", "1.0", "--samples", "10", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        assert set(cert) >= {"layers", "budget", "radius", "audit", "holds"}
        assert set(cert["audit"]) >= {"samples", "max_dev", "violations", "seed"}
        # file round-trips into a usable certificate object
        restored = certificate_from_dict(cert)
        assert restored.budget == cert["budget"]

    def test_reproducible_bytes_modulo_timestamp(self, tmp_path, random_model):
        model, calib = random_model
        pruned_out = tmp_path / "p"
        main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--sparsity", "0.3", "--damping", "auto", "--out", str(pruned_out),
        ])
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            code = main([
                "certify", "--model", str(model),
                "--pruned", str(pruned_out / "pruned_model.json"),
                "--radius", "2.0", "--samples", "300", "--seed", "5",
                "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(_strip_timestamp(out / "certificate.json"))
        assert outs[0] == outs[1]

    def test_states_file_radius_mode(self, tmp_path, random_model):
        model, calib = random_model
        out = tmp_path / "cert"
        code = main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--states", str(calib), "--samples", "10", "--out", str(out),
        ])
        assert code == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["radius_source"] == "states"
        assert cert["radius"] > 0

    @pytest.mark.parametrize(
        "extra",
        [
            {"radius": "5"},
            {"box_lo": "-1,-1,-1", "box_hi": "1,1,1"},
            {"radius": "5", "box_lo": "-1,-1,-1", "box_hi": "1,1,1"},
            {"box_hi": "1,1,1"},
        ],
    )
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_states_with_radius_or_box_is_a_usage_error(
        self, tmp_path, random_model, capsys, extra, via
    ):
        # --states sets the radius, so a --radius or box beside it would be ignored
        model, calib = random_model
        out = tmp_path / "cert"
        args = ["certify", "--model", str(model), "--pruned", str(model),
                "--states", str(calib), "--samples", "10", "--out", str(out)]
        if via == "flags":
            args += [f"--{k.replace('_', '-')}={v}" for k, v in extra.items()]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(extra))
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        flags = ", ".join(f"--{k.replace('_', '-')}" for k in extra)
        assert err == [f"error: --states takes the radius from its states; drop {flags}"]
        assert not (out / "certificate.json").exists()

    @pytest.mark.parametrize("fixture", ["pendulum_policy.json", "double_integrator_policy.json"])
    @pytest.mark.parametrize(
        "mode",
        [("--epsilon", "20", "--radius", "3"), ("--epsilon", "20", "--radius", "3", "--compensate"),
         ("--sparsity", "0.5", "--compensate")],
        ids=["epsilon", "epsilon-compensated", "sparsity-compensated"],
    )
    def test_a_fixture_prune_certifies_and_holds(self, tmp_path, fixture, mode):
        # each plan's count is the weights the model lost, its certificate
        # holds, and an epsilon-mode budget is at most epsilon
        model = FIXTURES / fixture
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        out = tmp_path / "out"
        assert main(["prune", "--model", str(model), "--calibration", str(calib), *mode,
                     "--out", str(out)]) == EXIT_OK
        assert main(["certify", "--model", str(model), "--pruned", str(out / "pruned_model.json"),
                     "--radius", "3", "--samples", "2000", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        pair = PrunePlan.from_policies(load_policy(model), load_policy(out / "pruned_model.json"))
        plan = json.loads((out / "prune_plan.json").read_text())
        assert plan["pruned_weights"] == sum(len(lp.mask) for lp in pair.layers) > 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["holds"] is True and cert["audit"]["violations"] == 0
        if mode[0] == "--epsilon":
            assert cert["budget"] <= 20 * (1 + 1e-12)

    def test_an_audit_in_column_blocks_certifies_as_one_pass(self, tmp_path, monkeypatch):
        # a hidden layer _BLOCK // 512 wide: the 2,000 audit states go
        # through each policy in four blocks, and the certificate is the one
        # a single block gives
        rng = np.random.default_rng(0)
        dims = [8, policy._BLOCK // 512, 2]
        model = tmp_path / "wide.json"
        save_policy(MlpPolicy(tuple(
            Layer(rng.normal(0.0, d**-0.5, (e, d)), rng.normal(0.0, 0.1, e), ActivationKind("relu"))
            for d, e in zip(dims, dims[1:])
        )), model)
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(1).uniform(-1.0, 1.0, size=(64, 8)))
        assert main(["prune", "--model", str(model), "--calibration", str(calib), "--layers", "0",
                     "--sparsity", "0.5", "--out", str(tmp_path / "p")]) == EXIT_OK
        widths = []

        def recording(p, x, visit=None):
            widths.append(x.shape[1])
            return propagate(p, x, visit)

        propagate = policy._propagate
        monkeypatch.setattr(policy, "_propagate", recording)
        certified = {}
        for name, block in (("blocks", policy._BLOCK), ("one", 2**24)):
            monkeypatch.setattr(policy, "_BLOCK", block)
            widths.clear()
            assert main(["certify", "--model", str(model),
                         "--pruned", str(tmp_path / "p" / "pruned_model.json"), "--radius", "3",
                         "--samples", "2000", "--seed", "7", "--out", str(tmp_path / name)]) == EXIT_OK
            certified[name] = (widths.copy(), _strip_timestamp(tmp_path / name / "certificate.json"))
        assert certified["blocks"][0] == [512, 512, 512, 464] * 2
        assert certified["one"][0] == [2000] * 2
        assert certified["blocks"][1] == certified["one"][1]


class TestBoxFlags:
    """The box of certify and prune, and the state box of simulate, are
    checked by one helper with one wording."""

    CASES = [
        (["{p}-lo=-1,-1"], "provide both {n} bounds or neither"),
        (["{p}-hi=1,1"], "provide both {n} bounds or neither"),
        (["{p}-lo=-1,-1,-1", "{p}-hi=1,1,1"], "{n} bounds must match the state dimension"),
        (["{p}-lo=-1", "{p}-hi=1,1"], "{n} bounds must match the state dimension"),
        (["{p}-lo=1,-1", "{p}-hi=-1,1"], "{n} low bound exceeds high bound"),
    ]

    @pytest.fixture
    def pendulum_cert(self, tmp_path):
        model = FIXTURES / "pendulum_policy.json"
        cert = tmp_path / "c" / "certificate.json"
        assert main(["certify", "--model", str(model), "--pruned", str(model), "--radius", "1",
                     "--samples", "10", "--out", str(cert.parent)]) == EXIT_OK
        return model, cert

    @pytest.mark.parametrize("flags, message", CASES)
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_bad_box_is_a_usage_error(
        self, tmp_path, pendulum_cert, capsys, command, flags, message
    ):
        model, cert = pendulum_cert
        capsys.readouterr()
        if command == "certify":
            prefix, name = "--box", "box"
            base = ["--pruned", str(model), "--radius", "5"]
        else:
            prefix, name = "--state-box", "state box"
            base = ["--pruned", str(model), "--certificate", str(cert),
                    "--dynamics", "pendulum", "--x0", "0.5,0", "--horizon", "3"]
        out = tmp_path / "o"
        code = main([command, "--model", str(model), *base,
                     *(f.format(p=prefix) for f in flags), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message.format(n=name)}"]
        assert not out.exists() or not any(out.iterdir())


class TestHoldsCountsViolations:
    """Two one-weight identity layers grown from 1 to 1.5.  On the box
    [0, 0.5] every deviation stays under the budget 1.0, yet every sampled
    state breaks its own per-state bound, so nothing may report holds."""

    def _pair(self, tmp_path):
        paths = []
        for name, w in (("orig.json", 1.0), ("grown.json", 1.5)):
            layer = Layer(weight=[[w]], bias=[0.0], activation=ActivationKind("identity"))
            save_policy(MlpPolicy(layers=(layer, layer)), tmp_path / name)
            paths.append(str(tmp_path / name))
        return paths

    def test_certify_and_report_agree_with_the_audit(self, tmp_path):
        orig, grown = self._pair(tmp_path)
        flags = ["--model", orig, "--pruned", grown, "--radius", "1",
                 "--box-lo", "0", "--box-hi", "0.5", "--samples", "1000", "--seed", "0"]
        assert main(["certify", *flags, "--out", str(tmp_path / "c")]) == EXIT_VIOLATION
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
        assert cert["audit"]["violations"] == 1000
        assert cert["audit"]["max_dev"] < cert["budget"]
        assert cert["holds"] is False
        code = main(["report", str(tmp_path / "c" / "certificate.json"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_VIOLATION
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["all_hold"] is False and summary["total_violations"] == 1000

    @staticmethod
    def _certify_overflowing_pair(tmp_path):
        # every output overflows, so every deviation is inf - inf = NaN
        identity = ActivationKind("identity")
        paths = []
        for name, w in (("orig.json", 1e308), ("pruned.json", math.nextafter(1e308, 0.0))):
            layer = Layer(weight=[[1e308, w]], bias=[0.0], activation=identity)
            save_policy(MlpPolicy(layers=(layer,)), tmp_path / name)
            paths.append(str(tmp_path / name))
        return main(["certify", "--model", paths[0], "--pruned", paths[1], "--radius", "3",
                     "--box-lo", "1,1", "--box-hi", "2,2", "--samples", "1000", "--seed", "0",
                     "--out", str(tmp_path)])

    def test_nan_deviations_count_as_violations(self, tmp_path):
        assert self._certify_overflowing_pair(tmp_path) == EXIT_VIOLATION
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["audit"]["violations"] == 1000 and cert["holds"] is False

    def test_non_finite_fields_are_rfc_8259_json(self, tmp_path):
        def bare(name):
            raise AssertionError(f"bare {name} is not RFC 8259 JSON")

        assert self._certify_overflowing_pair(tmp_path) == EXIT_VIOLATION
        path = tmp_path / "certificate.json"
        cert = json.loads(path.read_text(), parse_constant=bare)
        assert cert["audit"]["max_dev"] == "NaN" and cert["audit"]["violations"] == 1000
        assert math.isnan(certificate_from_dict(cert).audit.max_dev)
        out = tmp_path / "r"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_VIOLATION
        summary = json.loads((out / "summary.json").read_text(), parse_constant=bare)
        assert summary["all_hold"] is False and summary["total_violations"] == 1000

    def test_overflowing_pair_prints_no_warning(self, tmp_path, capsys):
        # the overflow is in the certificate; numpy's warnings would be noise
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self._certify_overflowing_pair(tmp_path)
        assert code == EXIT_VIOLATION
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Warning" not in capsys.readouterr().err


class TestNegativeCommaLists:
    def test_every_list_flag_takes_a_leading_minus(self):
        parser = build_parser()
        args = parser.parse_args([
            "prune", "--layers", "-1,0", "--box-lo", "-0.5,-1", "--box-hi", "-.5,1",
        ])
        assert args.layers == "-1,0"
        assert (args.box_lo, args.box_hi) == ("-0.5,-1", "-.5,1")
        args = parser.parse_args([
            "simulate", "--x0", "-0.5,0",
            "--state-box-lo", "-3.2,-8", "--state-box-hi", "-1e-3,8",
        ])
        assert (args.x0, args.state_box_lo, args.state_box_hi) == (
            "-0.5,0", "-3.2,-8", "-1e-3,8"
        )

    def test_certify_box_space_separated(self, tmp_path):
        model = str(FIXTURES / "pendulum_policy.json")
        code = main([
            "certify", "--model", model, "--pruned", model,
            "--box-lo", "-0.5,-1", "--box-hi", "0.5,1", "--samples", "50",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["radius"] == float(np.linalg.norm([0.5, 1.0]))

    def test_simulate_x0_space_separated(self, tmp_path):
        model = str(FIXTURES / "pendulum_policy.json")
        assert main([
            "certify", "--model", model, "--pruned", model, "--radius", "3",
            "--samples", "50", "--out", str(tmp_path / "c"),
        ]) == EXIT_OK
        code = main([
            "simulate", "--model", model, "--pruned", model,
            "--certificate", str(tmp_path / "c" / "certificate.json"),
            "--dynamics", "pendulum", "--x0", "-0.5,0", "--horizon", "5",
            "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_OK
        with open(tmp_path / "s" / "trajectory_original.csv") as fh:
            first = list(csv.DictReader(fh))[0]
        assert (float(first["x0"]), float(first["x1"])) == (-0.5, 0.0)


class TestSimulate:
    def _certified_pendulum(self, tmp_path, seed="3"):
        model = FIXTURES / "pendulum_policy.json"
        calib = tmp_path / "calib.csv"
        rng = np.random.default_rng(0)
        _write_states_csv(calib, rng.uniform(-1.0, 1.0, size=(16, 2)))
        pruned_out = tmp_path / "pruned"
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "0", "--sparsity", "0.5", "--damping", "auto",
            "--out", str(pruned_out),
        ]) == EXIT_OK
        cert_out = tmp_path / "cert"
        main([
            "certify", "--model", str(model),
            "--pruned", str(pruned_out / "pruned_model.json"),
            "--radius", "3.0", "--samples", "200", "--seed", seed,
            "--out", str(cert_out),
        ])
        return model, pruned_out / "pruned_model.json", cert_out / "certificate.json"

    def test_horizon_zero_rejected(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum",
            "--x0", "0.5,0", "--horizon", "0", "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_USAGE

    def test_overflowing_pendulum_inertia_is_a_usage_error(self, tmp_path, capsys):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        capsys.readouterr()
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum", "--length", "1e200",
            "--x0", "0.5,0", "--horizon", "5", "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "overflows" in err[0]
        assert not (tmp_path / "s").exists()

    def test_underflowing_pendulum_inertia_is_a_usage_error(self, tmp_path, capsys):
        # m * l^2 = 1e-500 rounds to 0; the step divided by it with numpy's
        # "divide by zero" warning and blew up at t=0
        model, pruned, cert = self._certified_pendulum(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "simulate", "--model", str(model), "--pruned", str(pruned),
                "--certificate", str(cert), "--dynamics", "pendulum",
                "--mass", "1e-300", "--length", "1e-100",
                "--x0", "0.5,0", "--horizon", "5", "--out", str(tmp_path / "s"),
            ])
        assert code == EXIT_USAGE
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "underflows" in err[0]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("box", [(), ("--state-box-lo=-3,-8", "--state-box-hi=3,8")],
                             ids=["no-box", "box"])
    @pytest.mark.parametrize("x0", ["0.5,0,1", "0.5"])
    def test_x0_of_the_wrong_dimension_is_named(self, tmp_path, capsys, box, x0):
        # with a state box, x0 met the box bounds first and numpy's
        # broadcasting message came out
        model, pruned, cert = self._certified_pendulum(tmp_path)
        capsys.readouterr()
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum", f"--x0={x0}", *box,
            "--horizon", "5", "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_USAGE
        dim = len(x0.split(","))
        assert capsys.readouterr().err == f"error: x0 has dim {dim} but the dynamics expect 2\n"
        assert not (tmp_path / "s").exists()

    def test_config_horizon_parses_like_the_flag(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        cfg = {
            "model": str(model), "pruned": str(pruned), "certificate": str(cert),
            "dynamics": "pendulum", "x0": "0.5,0", "horizon": "10",
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum",
            "--x0", "0.5,0", "--horizon", "10", "--out", str(tmp_path / "b"),
        ]) == EXIT_OK
        assert _strip_timestamp(tmp_path / "a" / "deviation_report.json") == _strip_timestamp(
            tmp_path / "b" / "deviation_report.json"
        )
        path.write_text(json.dumps({**cfg, "horizon": 2.5}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "c")]) == EXIT_USAGE

    def test_equilibrium_zero_policy_zero_deviation(self, tmp_path):
        zero = MlpPolicy(
            layers=(
                Layer(weight=np.zeros((1, 2)), bias=np.zeros(1),
                      activation=ActivationKind("relu")),
            )
        )
        model = tmp_path / "zero.json"
        save_policy(zero, model)
        cert_out = tmp_path / "cert"
        main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--radius", "1.0", "--samples", "10", "--out", str(cert_out),
        ])
        out = tmp_path / "sim"
        code = main([
            "simulate", "--model", str(model), "--pruned", str(model),
            "--certificate", str(cert_out / "certificate.json"),
            "--dynamics", "pendulum", "--x0", "0,0", "--horizon", "25",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "trajectory_original.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 26
        assert all(float(r["deviation"]) == 0.0 for r in rows)
        assert all(float(r["x0"]) == 0.0 and float(r["x1"]) == 0.0 for r in rows)

    def test_pendulum_pipeline_zero_violations(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        out = tmp_path / "sim"
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum",
            "--x0", "0.5,0", "--horizon", "500", "--action-limit", "5.0",
            "--state-box-lo=-3.2,-8", "--state-box-hi", "3.2,8",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "deviation_report.json").read_text())
        assert report["in_ball_violations"] == 0
        assert report["holds_along_visited_states"] is True

    def test_reproducible_bytes(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        blobs = []
        csv_blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main([
                "simulate", "--model", str(model), "--pruned", str(pruned),
                "--certificate", str(cert), "--dynamics", "pendulum",
                "--x0", "0.5,0", "--horizon", "100", "--out", str(out),
            ])
            blobs.append(_strip_timestamp(out / "deviation_report.json"))
            csv_blobs.append(
                (out / "trajectory_original.csv").read_bytes()
                + (out / "trajectory_pruned.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]
        assert csv_blobs[0] == csv_blobs[1]

    def test_stale_certificate_detected_with_exit_two(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        doctored = json.loads(cert.read_text())
        for row in doctored["layers"]:
            row["delta_spectral"] = 0.0
            row["contribution"] = 0.0
        doctored["budget"] = 0.0
        stale = tmp_path / "stale_certificate.json"
        stale.write_text(json.dumps(doctored))
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(stale), "--dynamics", "pendulum",
            "--x0", "0.5,0", "--horizon", "50", "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_VIOLATION

    def test_certificate_without_additive_fields_still_loads(self, tmp_path):
        # certificates written before mean_dev, tightness, margin and
        # radius_source existed must keep working with simulate and report
        model, pruned, cert = self._certified_pendulum(tmp_path)
        old = json.loads(cert.read_text())
        del old["radius_source"]
        for key in ("mean_dev", "tightness", "margin"):
            del old["audit"][key]
        path = tmp_path / "old_certificate.json"
        path.write_text(json.dumps(old))
        restored = certificate_from_dict(old)
        a = restored.audit
        assert restored.radius_source == "radius"
        assert a.mean_dev == a.max_dev == old["audit"]["max_dev"]
        assert a.tightness == 0.0
        assert a.margin == old["budget"] - old["audit"]["max_dev"]
        assert restored.holds is True
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(path), "--dynamics", "pendulum",
            "--x0", "0.5,0", "--horizon", "50", "--action-limit", "5.0",
            "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_OK
        assert main(["report", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["all_hold"] is True and summary["max_budget"] == old["budget"]

    def test_subnormal_states_keep_their_bounds(self, tmp_path):
        # the fixture has no biases, so a long run decays to subnormal states
        # whose squared norm underflows; every bound cell must still be the
        # per-state bound, not 0.0
        model = FIXTURES / "double_integrator_policy.json"
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, [[a, b] for a in (-1, -0.5, 0.5, 1) for b in (-1, -0.5, 0.5, 1)])
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--layers", "0", "--sparsity", "0.5", "--out", str(tmp_path / "p"),
        ]) == EXIT_OK
        pruned = tmp_path / "p" / "pruned_model.json"
        assert main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", "3", "--samples", "100", "--out", str(tmp_path / "c"),
        ]) == EXIT_OK
        out = tmp_path / "s"
        assert main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(tmp_path / "c" / "certificate.json"),
            "--dynamics", "double_integrator", "--x0=0.5,0", "--horizon", "10000",
            "--out", str(out),
        ]) == EXIT_OK
        p = load_policy(model)
        cert = certificate_from_dict(json.loads((tmp_path / "c" / "certificate.json").read_text()))
        tiny = 0
        for label in ("original", "pruned"):
            with open(out / f"trajectory_{label}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 10001
            for row in rows:
                x = [float(row["x0"]), float(row["x1"])]
                snorm = scaled_norm(x)
                tiny += 0.0 < max(map(abs, x)) < 2.0**-400
                exact = sum(
                    Fraction(dn) * exact_constant(p.weight_spectral_norms, p.bias_norms, k, snorm)
                    for k, dn in cert.delta_norms()
                )
                bound = Fraction(float(row["bound"]))
                assert exact <= bound
                if exact > 2.0**-1000:  # no product of the bound underflowed
                    assert bound <= exact * (1 + Fraction(outward_rounding(p.num_layers)))
        assert tiny > 1000

    def test_csv_columns(self, tmp_path):
        model, pruned, cert = self._certified_pendulum(tmp_path)
        out = tmp_path / "sim"
        main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), "--dynamics", "pendulum",
            "--x0", "0.2,0", "--horizon", "5", "--out", str(out),
        ])
        with open(out / "trajectory_pruned.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "x0", "x1", "u0", "deviation", "bound", "in_ball"]


class TestSimulateWarnings:
    def test_blow_up_emits_no_runtime_warning(self, tmp_path):
        # the original policy's action overflows to inf at t=2
        model = _simple_model(tmp_path, weight=((1e160, 0.0),))
        pruned = _simple_model(tmp_path, weight=((0.0, 0.0),), name="pruned.json")
        main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", "1", "--samples", "10", "--out", str(tmp_path / "cert"),
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "simulate", "--model", str(model), "--pruned", str(pruned),
                "--certificate", str(tmp_path / "cert" / "certificate.json"),
                "--x0=1e-300,0", "--horizon", "5", "--dynamics", "double_integrator",
                "--dt", "1e160", "--out", str(tmp_path / "sim"),
            ])
        assert code == EXIT_USAGE
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_inf_minus_inf_deviation_emits_no_runtime_warning(self, tmp_path, capsys):
        # both actions are +inf at x0, so the deviation there is inf - inf
        model = _simple_model(tmp_path, weight=((1e300, 1e300),))
        pruned = _simple_model(tmp_path, weight=((1e300, 0.0),), name="pruned.json")
        assert main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", "1", "--samples", "10", "--out", str(tmp_path / "cert"),
        ]) == EXIT_OK
        out = tmp_path / "sim"
        assert _usage_error(capsys, [
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(tmp_path / "cert" / "certificate.json"),
            "--x0=1e10,0", "--horizon", "3", "--dynamics", "double_integrator",
            "--out", str(out),
        ]) == "error: original trajectory blew up at t=0"
        report = json.loads((out / "deviation_report.json").read_text())
        assert report["blowup"] == {"trajectory": "original", "t": 0}


class TestSimulateMatchesReference:
    """Trajectory CSVs and deviation report against the per-state reference.

    States, actions, flags, counts and the sentinel row must match exactly:
    the ``u`` cells are the actions the loop applied, which the reference
    also takes from ``forward``.  The ``deviation`` and ``bound`` cells, and
    ``max_in_ball_deviation``, may differ in the last bits: the reference
    evaluates one state at a time (a matrix-vector product), the command a
    loop's distinct states at once (a matrix-matrix product), and the two
    round differently.  They differ by at most 2 ulps on these cases; the
    tolerance allows 64.
    """

    TOL = {"rel": 64 * np.finfo(float).eps, "abs": 64 * np.finfo(float).eps}

    def _certify(self, tmp_path, model, pruned, radius):
        out = tmp_path / "cert"
        main([
            "certify", "--model", str(model), "--pruned", str(pruned),
            "--radius", radius, "--samples", "100", "--seed", "2", "--out", str(out),
        ])
        return out / "certificate.json"

    def _prune(self, tmp_path, model, seed):
        p = load_policy(model)
        calib = tmp_path / "calib.csv"
        rng = np.random.default_rng(seed)
        _write_states_csv(calib, rng.uniform(-1.0, 1.0, size=(16, p.input_dim)))
        out = tmp_path / "pruned"
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            "--sparsity", "0.5", "--out", str(out),
        ]) == EXIT_OK
        return out / "pruned_model.json"

    def _check(self, tmp_path, d, model, pruned, cert, x0, horizon, flags):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--model", str(model), "--pruned", str(pruned),
            "--certificate", str(cert), f"--x0={x0}", "--horizon", str(horizon),
            *flags, "--out", str(out),
        ])
        tables, expected = reference_simulation(
            d,
            load_policy(model),
            load_policy(pruned),
            certificate_from_dict(json.loads(cert.read_text())),
            [float(v) for v in x0.split(",")],
            horizon,
        )
        approx = range(1 + d.state_dim + load_policy(model).output_dim,
                       len(tables["original"][0]) - 1)
        for label, table in tables.items():
            path = out / f"trajectory_{label}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == table[0]
            assert len(rows) == len(table)
            cells = [table[0]]
            for got, want in zip(rows[1:], table[1:]):
                assert len(got) == len(want)
                for i, (g, w) in enumerate(zip(got, want)):
                    if i in approx and w != "nan":
                        assert float(g) == pytest.approx(float(w), **self.TOL)
                    else:
                        assert g == w
                # an approximate cell must still be the repr of its value
                cells.append([repr(float(g)) if i in approx and w != "nan" else w
                              for i, (g, w) in enumerate(zip(got, want))])
            # the bytes: what csv.writer makes of those cells, \r\n line ends included
            rendered = io.StringIO()
            csv.writer(rendered).writerows(cells)
            assert path.read_bytes() == rendered.getvalue().encode()
        report = json.loads((out / "deviation_report.json").read_text())
        report.pop("timestamp")
        assert report.pop("horizon") == horizon
        assert report.pop("max_in_ball_deviation") == pytest.approx(
            expected.pop("max_in_ball_deviation"), **self.TOL
        )
        assert report.pop("dynamics") == flags[1]
        assert report == expected
        return code, expected

    @pytest.mark.parametrize(
        "fixture, d, flags, x0",
        [
            (
                "pendulum_policy.json",
                Pendulum(action_limit=5.0),
                ("--dynamics", "pendulum", "--action-limit", "5.0"),
                "0.5,0",
            ),
            (
                "double_integrator_policy.json",
                DoubleIntegrator(),
                ("--dynamics", "double_integrator"),
                "1.0,0.5",
            ),
        ],
    )
    def test_fixture(self, tmp_path, fixture, d, flags, x0):
        model = FIXTURES / fixture
        pruned = self._prune(tmp_path, model, seed=8)
        # a radius below |x0| puts the first states outside the ball
        cert = self._certify(tmp_path, model, pruned, "0.4")
        code, expected = self._check(tmp_path, d, model, pruned, cert, x0, 300, flags)
        assert expected["in_ball_count"] > 0 and expected["out_of_ball_count"] > 0
        assert code == (EXIT_OK if expected["in_ball_violations"] == 0 else EXIT_VIOLATION)

    @pytest.mark.parametrize(
        "fixture, dynamics, x0",
        [("pendulum_policy.json", "pendulum", "0.5,0"),
         ("double_integrator_policy.json", "double_integrator", "1.0,0.5")],
    )
    def test_bound_cells_are_the_bound_at_each_states_own_norm(self, tmp_path, fixture,
                                                               dynamics, x0):
        # the loop's states are audited as one batch, yet each row's bound is
        # per_state_bounds at the 1-D norm of that row's state, bit for bit
        model = FIXTURES / fixture
        pruned = self._prune(tmp_path, model, seed=8)
        cert = self._certify(tmp_path, model, pruned, "3")
        out = tmp_path / "sim"
        main([
            "simulate", "--model", str(model), "--pruned", str(pruned), "--certificate", str(cert),
            "--dynamics", dynamics, f"--x0={x0}", "--horizon", "500", "--out", str(out),
        ])
        original = load_policy(model)
        delta_norms = certificate_from_dict(json.loads(cert.read_text())).delta_norms()
        for label in ("original", "pruned"):
            with open(out / f"trajectory_{label}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 501
            for row in rows:
                norm = vector_norm([float(row["x0"]), float(row["x1"])])
                bound = per_state_bounds(original, delta_norms, [norm])[0]
                assert row["bound"] == repr(float(bound)), (label, row["t"])

    @pytest.mark.parametrize(
        "fixture, d, flags, x0, horizon, repeats_at",
        [
            # the original loop first repeats a state at row 7,114 and is
            # completed from its cycle
            pytest.param("double_integrator_policy.json", DoubleIntegrator(),
                         ("--dynamics", "double_integrator"), "1.0,0.0", 20000, 7114,
                         id="repeating"),
            # the benchmark's action limit and state box, both of which act
            pytest.param("pendulum_policy.json",
                         Pendulum(action_limit=5.0, state_box=([-3.2, -8.0], [3.2, 8.0])),
                         ("--dynamics", "pendulum", "--action-limit", "5.0",
                          "--state-box-lo=-3.2,-8", "--state-box-hi=3.2,8"), "3.0,7.5", 2000,
                         None, id="clipped"),
        ],
    )
    def test_rows_replay_a_forward_and_step_loop(self, tmp_path, fixture, d, flags, x0, horizon,
                                                 repeats_at):
        # every row's t, state and action cells are the per-step loop's,
        # its bound cell the bound at the 1-D norm of its state, bit for
        # bit, and a repeated state's row copies the cells of the row that
        # first visited it, byte for byte
        model = FIXTURES / fixture
        pruned = self._prune(tmp_path, model, seed=8)
        cert = self._certify(tmp_path, model, pruned, "3")
        out = tmp_path / "sim"
        assert main([
            "simulate", "--model", str(model), "--pruned", str(pruned), "--certificate", str(cert),
            *flags, f"--x0={x0}", "--horizon", str(horizon), "--out", str(out),
        ]) == EXIT_OK
        original = load_policy(model)
        delta_norms = certificate_from_dict(json.loads(cert.read_text())).delta_norms()
        for label, p in (("original", original), ("pruned", load_policy(pruned))):
            with open(out / f"trajectory_{label}.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == horizon + 1
            x = np.array([float(v) for v in x0.split(",")])
            first, first_repeat = {}, None
            for t, row in enumerate(rows):
                u = forward(p, x)
                bound = per_state_bounds(original, delta_norms, [vector_norm(x)])[0]
                cells = [str(t), *map(repr, [*x.tolist(), float(u[0]), float(bound)])]
                assert [*row[:4], row[5]] == cells, (label, t)
                s = first.setdefault(x.tobytes(), t)
                assert row[1:] == rows[s][1:], (label, t, s)
                if s < t and first_repeat is None:
                    first_repeat = t
                x = naive_step(d, x, u)
            if label == "original":
                assert first_repeat == repeats_at
                if d.state_box is not None:
                    # the action clip and the state box both acted along the loop
                    hi = d.state_box[1].tolist()
                    assert any(abs(float(row[3])) > d.action_limit for row in rows)
                    assert any(abs(float(row[1])) == hi[0] or abs(float(row[2])) == hi[1]
                               for row in rows)

    def test_three_layer_linear_system(self, tmp_path):
        rng = np.random.default_rng(12)
        model = tmp_path / "model.json"
        save_policy(random_policy(rng, dims=[3, 6, 5, 2]), model)
        a = 0.9 * np.eye(3)
        b = 0.1 * rng.standard_normal((3, 2))
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"A": a.tolist(), "B": b.tolist()}))
        pruned = self._prune(tmp_path, model, seed=13)
        cert = self._certify(tmp_path, model, pruned, "1.0")
        flags = ("--dynamics", "linear", "--system", str(system))
        code, expected = self._check(
            tmp_path, LinearSystem(a=a, b=b), model, pruned, cert, "0.5,-0.2,0.3", 200, flags
        )
        assert expected["in_ball_count"] == 2 * 201
        assert code == (EXIT_OK if expected["in_ball_violations"] == 0 else EXIT_VIOLATION)

    def test_signed_zero_cells(self, tmp_path):
        # u = relu(velocity): from (-0.0, -0.0) the position stays -0.0 for
        # two rows, and the action and deviation are +0.0
        model = _simple_model(tmp_path, weight=((0.0, 1.0),))
        pruned = _simple_model(tmp_path, weight=((0.0, 0.0),), name="pruned.json")
        cert = self._certify(tmp_path, model, pruned, "1.0")
        flags = ("--dynamics", "double_integrator")
        code, expected = self._check(
            tmp_path, DoubleIntegrator(), model, pruned, cert, "-0.0,-0.0", 3, flags
        )
        with open(tmp_path / "sim" / "trajectory_original.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[1:4] for r in rows[1:3]] == [["-0.0", "-0.0", "0.0"], ["-0.0", "0.0", "0.0"]]
        assert expected["in_ball_count"] == 8
        assert code == EXIT_OK

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_ends_in_sentinel_row(self, tmp_path):
        # u = 1e160 * velocity and dt = 1e160: the original loop's second
        # step overflows; the pruned weight is zero, so that loop stays finite
        model = _simple_model(tmp_path, weight=((0.0, 1e160),))
        pruned = _simple_model(tmp_path, weight=((0.0, 0.0),), name="pruned.json")
        cert = self._certify(tmp_path, model, pruned, "1.0")
        flags = ("--dynamics", "double_integrator", "--dt", "1e160")
        code, expected = self._check(
            tmp_path, DoubleIntegrator(dt=1e160), model, pruned, cert, "0,1e-300", 5, flags
        )
        assert expected["blowup"] == {"trajectory": "original", "t": 1}
        with open(tmp_path / "sim" / "trajectory_original.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1] == ["2"] + ["nan"] * 5 + ["blowup"]
        assert code == EXIT_USAGE

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_action_ends_in_sentinel_row(self, tmp_path):
        # u = relu(1e160 * position) and dt = 1e160: the position reaches
        # 1e180 at t=2, where the original policy's action overflows to inf
        model = _simple_model(tmp_path, weight=((1e160, 0.0),))
        pruned = _simple_model(tmp_path, weight=((0.0, 0.0),), name="pruned.json")
        cert = self._certify(tmp_path, model, pruned, "1.0")
        flags = ("--dynamics", "double_integrator", "--dt", "1e160")
        code, expected = self._check(
            tmp_path, DoubleIntegrator(dt=1e160), model, pruned, cert, "1e-300,0", 5, flags
        )
        assert expected["blowup"] == {"trajectory": "original", "t": 2}
        assert expected["max_divergence_observed_uncertified"] == 1e180
        with open(tmp_path / "sim" / "trajectory_original.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
        assert rows[-1] == ["3"] + ["nan"] * 5 + ["blowup"]
        assert code == EXIT_USAGE


class TestReport:
    def test_merges_certificates(self, tmp_path, random_model):
        model, _ = random_model
        certs = []
        for i in range(2):
            # distinct sample counts, so the two files and their digests differ
            out = tmp_path / f"c{i}"
            main([
                "certify", "--model", str(model), "--pruned", str(model),
                "--radius", "1.0", "--samples", str(10 + i), "--out", str(out),
            ])
            certs.append(str(out / "certificate.json"))
        out = tmp_path / "summary"
        code = main(["report", *certs, "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["count"] == 2
        assert summary["all_hold"] is True
        assert [e["sha256"] for e in summary["certificates"]] == [
            hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in certs
        ]

    def test_a_nan_budget_is_a_usage_error(self, tmp_path, capsys, random_model):
        # certify never writes a NaN budget, so one is a hand-edited file;
        # max skipped a NaN unless it came first, so one order hid it
        model, _ = random_model
        main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--radius", "1.0", "--samples", "10", "--out", str(tmp_path / "ok"),
        ])
        ok, nan = (tmp_path / name / "certificate.json" for name in ("ok", "nan"))
        cert = json.loads(ok.read_text())
        cert["budget"] = "NaN"
        nan.parent.mkdir()
        nan.write_text(json.dumps(cert))
        capsys.readouterr()
        for i, paths in enumerate(((ok, nan), (nan, ok))):
            out = tmp_path / f"summary{i}"
            assert main(["report", *map(str, paths), "--out", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err.splitlines() == [
                f"error: {nan}: budget: must be at least 0.0, got nan"
            ]
            assert not out.exists()

    def test_no_certificates_usage_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_failed_certificate_surfaces_exit_two(self, tmp_path, random_model):
        model, _ = random_model
        out = tmp_path / "c"
        main([
            "certify", "--model", str(model), "--pruned", str(model),
            "--radius", "1.0", "--samples", "10", "--out", str(out),
        ])
        cert = json.loads((out / "certificate.json").read_text())
        cert["holds"] = False
        cert["audit"]["violations"] = 3
        bad = tmp_path / "failed_certificate.json"
        bad.write_text(json.dumps(cert))
        assert main(["report", str(bad), "--out", str(tmp_path / "sum")]) == EXIT_VIOLATION


class TestCertificateFields:
    """Each certificate field goes through the parser of its type: a field
    that breaks it is one usage error naming the file and the field, for
    ``report`` and ``simulate`` alike, and nothing is written."""

    @pytest.fixture(scope="class")
    def certified(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cert")
        model = str(FIXTURES / "pendulum_policy.json")
        calib = tmp / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        assert main(["prune", "--model", model, "--calibration", str(calib),
                     "--sparsity", "0.5", "--out", str(tmp)]) == EXIT_OK
        pruned = str(tmp / "pruned_model.json")
        assert main(["certify", "--model", model, "--pruned", pruned, "--radius", "1",
                     "--samples", "50", "--seed", "3", "--out", str(tmp)]) == EXIT_OK
        return model, pruned, json.loads((tmp / "certificate.json").read_text())

    def _run(self, tmp_path, certified, text, command):
        model, pruned, _ = certified
        path = tmp_path / "doctored_certificate.json"
        path.write_text(text)
        out = tmp_path / "o"
        if command == "report":
            argv = ["report", str(path)]
        else:
            argv = ["simulate", "--model", model, "--pruned", pruned,
                    "--certificate", str(path), "--dynamics", "pendulum",
                    "--x0", "0.5,0", "--horizon", "5"]
        code = main([*argv, "--out", str(out)])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("command", ["report", "simulate"])
    @pytest.mark.parametrize(
        "edit, field, message",
        [
            # int(0.5) read as 0 violations, so report claimed all_hold with exit 0
            pytest.param({"holds": False, "audit": {"violations": 0.5}}, "audit.violations",
                         "expected an integer, got 0.5", id="fractional-violations"),
            # int(0.7) and int(True) silently read as layers 0 and 1
            pytest.param({"layers": [{"k": 0.7}]}, "layers[0].k",
                         "expected an integer, got 0.7", id="fractional-layer"),
            pytest.param({"layers": [{"k": True}]}, "layers[0].k",
                         "expected an integer, got True", id="boolean-layer"),
            pytest.param({"audit": {"samples": 0}}, "audit.samples",
                         "must be at least 1, got 0", id="no-samples"),
            pytest.param({"audit": {"seed": -1}}, "audit.seed",
                         "must be at least 0, got -1", id="negative-seed"),
            pytest.param({"budget": "half"}, "budget",
                         "expected a number, got 'half'", id="text-budget"),
            pytest.param({"budget": -1.0}, "budget",
                         "must be at least 0.0, got -1.0", id="negative-budget"),
            pytest.param({"radius_source": "moon"}, "radius_source",
                         "expected one of radius, states, got 'moon'", id="radius-source"),
            pytest.param({"holds": "yes"}, "holds",
                         "expected true or false, got 'yes'", id="text-holds"),
            # a NaN or negative radius left every visited state outside the
            # ball, so simulate passed vacuously with in_ball_count 0
            pytest.param({"radius": "NaN"}, "radius",
                         "must be at least 0.0, got nan", id="nan-radius"),
            pytest.param({"radius": -1.0}, "radius",
                         "must be at least 0.0, got -1.0", id="negative-radius"),
        ],
    )
    def test_a_mistyped_field_is_named(
        self, tmp_path, capsys, certified, command, edit, field, message
    ):
        doctored = json.loads(json.dumps(certified[2]))
        for key, value in edit.items():
            if key == "layers":
                doctored["layers"][0].update(value[0])
            elif key == "audit":
                doctored["audit"].update(value)
            else:
                doctored[key] = value
        assert self._run(tmp_path, certified, json.dumps(doctored), command) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path / 'doctored_certificate.json'}: {field}: {message}"]

    @pytest.mark.parametrize("command", ["report", "simulate"])
    def test_an_overflowing_sample_count_is_named(self, tmp_path, capsys, certified, command):
        # json reads 1e999 as inf, whose int() raised OverflowError
        text = json.dumps(certified[2]).replace(
            f'"samples": {certified[2]["audit"]["samples"]}', '"samples": 1e999'
        )
        assert "1e999" in text
        assert self._run(tmp_path, certified, text, command) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'doctored_certificate.json'}: "
            "audit.samples: expected an integer, got inf"
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"audit": None}, "missing field 'audit'", id="null-audit"),
            pytest.param({"audit": []}, "audit: expected an object", id="list-audit"),
            pytest.param({"layers": 3}, "layers: expected a list", id="number-layers"),
            pytest.param({"layers": [[]]}, "layers[0]: expected an object", id="list-row"),
        ],
    )
    def test_a_misshapen_certificate_is_named(self, tmp_path, capsys, certified, edit, message):
        doctored = {**certified[2], **edit}
        assert self._run(tmp_path, certified, json.dumps(doctored), "report") == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {tmp_path / 'doctored_certificate.json'}: {message}"

    def test_non_finite_strings_still_read_as_floats(self, tmp_path, certified):
        doctored = json.loads(json.dumps(certified[2]))
        doctored["audit"]["max_dev"] = "NaN"
        doctored["budget"] = "Infinity"
        restored = certificate_from_dict(doctored)
        assert math.isnan(restored.audit.max_dev) and restored.budget == math.inf
        # the per-state count decides
        assert restored.holds is (restored.audit.violations == 0)
        # a NaN budget bounds nothing, so it is refused
        doctored["budget"] = "NaN"
        with pytest.raises(ValueError, match="budget: must be at least 0.0, got nan"):
            certificate_from_dict(doctored)


def _exact(value):
    """``value`` with each float as its exact hex form (a NaN as "nan")."""
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    return value


def _pruned_copy(p: MlpPolicy, rng) -> MlpPolicy:
    return MlpPolicy(layers=tuple(
        Layer(weight=layer.weight * (rng.random(layer.weight.shape) < 0.6),
              bias=layer.bias, activation=layer.activation)
        for layer in p.layers
    ))


class TestCertificateRoundTrip:
    """The certificate's writer and reader walk the same three tables: the
    written keys are the tables' keys plus ``timestamp``, and reading the
    written bytes gives back every field bit for bit, a NaN as a NaN."""

    @pytest.fixture(params=[*range(6), "overflow"])
    def cert(self, request):
        if request.param == "overflow":
            # every output overflows, so max_dev, mean_dev, margin and tightness are NaN
            identity = ActivationKind("identity")
            original, pruned = (
                MlpPolicy(layers=(Layer(weight=[[1e308, w]], bias=[0.0], activation=identity),))
                for w in (1e308, math.nextafter(1e308, 0.0))
            )
            space = StateSpaceSpec(dim=2, radius=3.0, box=([1.0, 1.0], [2.0, 2.0]))
            with np.errstate(over="ignore", invalid="ignore"):
                return certify(original, pruned, space, 100, 0)
        rng = np.random.default_rng(700 + request.param)
        original = random_policy(rng, max_width=8)
        space = StateSpaceSpec(dim=original.input_dim, radius=float(rng.uniform(0.5, 4.0)))
        return certify(original, _pruned_copy(original, rng), space, 200, request.param)

    @staticmethod
    def _written(tmp_path, cert):
        path = tmp_path / "certificate.json"
        _write_json(path, schema.certificate_to_dict(cert))
        return json.loads(path.read_bytes())

    def test_the_written_keys_are_the_tables_keys(self, tmp_path, cert):
        written = self._written(tmp_path, cert)
        assert set(written) == {*schema._CERT, "timestamp"}
        assert set(written["audit"]) == set(schema._CERT_AUDIT)
        assert len(written["layers"]) == len(cert.rows)
        assert all(set(row) == set(schema._CERT_ROW) for row in written["layers"])

    def test_the_written_bytes_read_back_bit_for_bit(self, tmp_path, cert):
        restored = certificate_from_dict(self._written(tmp_path, cert))
        assert _exact(astuple(restored)) == _exact(astuple(cert))
        assert restored.holds is cert.holds


class TestOutputPaths:
    """An output directory or artifact path that cannot be made or written
    is one usage error that names the path, not a traceback."""

    @pytest.fixture
    def certificate(self, tmp_path):
        model = str(FIXTURES / "pendulum_policy.json")
        assert main(["certify", "--model", model, "--pruned", model, "--radius", "1",
                     "--samples", "5", "--out", str(tmp_path / "c")]) == EXIT_OK
        return str(tmp_path / "c" / "certificate.json")

    def test_out_under_a_regular_file(self, tmp_path, capsys, certificate):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        capsys.readouterr()
        out = blocker / "sub"
        assert main(["report", certificate, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}: cannot write (Not a directory)"
        ]

    def test_outdir_variable_names_a_file(self, tmp_path, capsys, certificate, monkeypatch):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        monkeypatch.setenv("PRUNECERT_OUTDIR", str(blocker))
        capsys.readouterr()
        assert main(["report", certificate]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {blocker}: cannot write (File exists)"
        ]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command, artifact",
        [("prune", "prune_plan.json"), ("certify", "certificate.json"),
         ("simulate", "trajectory_original.csv"), ("report", "summary.json")],
    )
    def test_an_artifact_path_that_is_a_directory(
        self, tmp_path, capsys, certificate, command, artifact
    ):
        model = str(FIXTURES / "pendulum_policy.json")
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        argv = {
            "prune": ["--model", model, "--calibration", str(calib), "--sparsity", "0.5"],
            "certify": ["--model", model, "--pruned", model, "--radius", "1", "--samples", "5"],
            "simulate": ["--model", model, "--pruned", model, "--certificate", certificate,
                         "--dynamics", "pendulum", "--x0", "0.5,0", "--horizon", "5"],
            "report": [certificate],
        }[command]
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        capsys.readouterr()
        assert main([command, *argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / artifact}: cannot write (Is a directory)"]

    def test_a_newline_in_a_path_stays_on_the_one_error_line(self, tmp_path, capsys):
        # each character that does not print is escaped, as repr escapes it
        model = str(FIXTURES / "pendulum_policy.json")
        missing = str(tmp_path / "no\nsuch.json")
        assert _usage_error(capsys, ["certify", "--model", missing, "--pruned", model,
                                     "--radius", "1", "--out", str(tmp_path / "c")]) == (
            f"error: {tmp_path}/no\\nsuch.json: No such file or directory"
        )
        (tmp_path / "a_file").write_text("")
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        out = str(tmp_path / "a_file" / "x\ny")
        assert _usage_error(capsys, ["prune", "--model", model, "--calibration", str(calib),
                                     "--sparsity", "0.5", "--out", out]) == (
            f"error: {tmp_path}/a_file/x\\ny: cannot write (Not a directory)"
        )

    def test_config_out_with_a_nul_byte(self, tmp_path, capsys, certificate):
        # the OS refuses the path with a ValueError, not an OSError
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": "\u0000"}))
        assert _usage_error(capsys, ["report", certificate, "--config", str(cfg)]) == (
            "error: \\x00: cannot write (embedded null byte)"
        )


class TestConfigMerging:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path, random_model):
        model, calib = random_model
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": str(model),
            "calibration": str(calib),
            "sparsity": 0.2,
            "damping": "auto",
            "out": str(tmp_path / "from_config"),
        }))
        code = main(["prune", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (tmp_path / "from_config" / "pruned_model.json").exists()
        code = main(["prune", "--config", str(cfg), "--out", str(tmp_path / "flag_wins")])
        assert code == EXIT_OK
        assert (tmp_path / "flag_wins" / "pruned_model.json").exists()

    def test_env_var_default_outdir(self, tmp_path, random_model, monkeypatch):
        model, calib = random_model
        target = tmp_path / "env_out"
        monkeypatch.setenv("PRUNECERT_OUTDIR", str(target))
        code = main(["prune", "--model", str(model), "--calibration", str(calib),
                     "--sparsity", "0.1", "--damping", "auto"])
        assert code == EXIT_OK
        assert (target / "pruned_model.json").exists()

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_derive_seed_stable(self):
        assert derive_seed(0, 2) == derive_seed(0, 2)
        assert derive_seed(0, 1) != derive_seed(0, 2)


class TestConfigValues:
    """Config-file values go through the conversions their flags use."""

    def _run(self, tmp_path, command, cfg, *flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return main([command, "--config", str(path), *flags])

    @pytest.mark.parametrize(
        "cfg, flags",
        [
            (
                {"sparsity": "0.5", "seed": "7", "layers": "0,1", "damping": "0.01"},
                ["--sparsity", "0.5", "--seed", "7", "--layers", "0,1", "--damping", "0.01"],
            ),
            (
                {"epsilon": "0.05", "radius": "2.0", "layers": [0, 1], "compensate": True},
                ["--epsilon", "0.05", "--radius", "2.0", "--layers", "0,1", "--compensate"],
            ),
        ],
    )
    def test_prune_values_parse_like_flags(self, tmp_path, random_model, cfg, flags):
        model, calib = random_model
        base = {"model": str(model), "calibration": str(calib)}
        assert self._run(tmp_path, "prune", {**base, **cfg}, "--out", str(tmp_path / "a")) == EXIT_OK
        assert main([
            "prune", "--model", str(model), "--calibration", str(calib),
            *flags, "--out", str(tmp_path / "b"),
        ]) == EXIT_OK
        for name in ("prune_plan.json", "pruned_model.json"):
            assert _strip_timestamp(tmp_path / "a" / name) == _strip_timestamp(
                tmp_path / "b" / name
            )

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("prune", {"sparsity": "half"}),
            ("prune", {"sparsity": True}),
            ("prune", {"sparsity": 0.5, "compensate": "false"}),
            ("prune", {"sparsity": 0.5, "diagonal": 1}),
            ("prune", {"sparsity": 0.5, "seed": 1.5}),
            ("prune", {"sparsity": 0.5, "layers": [0.5]}),
            ("prune", {"sparsity": 0.5, "damping": True}),
            ("prune", {"sparsity": 0.5, "model": ["model.json"]}),
            ("prune", {"epsilon": "0.1x", "radius": 1.0}),
            ("certify", {"samples": "x", "radius": 1.0}),
            ("certify", {"samples": 100, "radius": [1.0]}),
            ("certify", {"samples": 0, "radius": 1.0}),
            ("certify", {"samples": -3, "radius": 1.0}),
            ("certify", {"seed": -1, "radius": 1.0}),
            ("prune", {"epsilon": "nan", "radius": 1.0}),
        ],
    )
    def test_bad_values_are_usage_errors(self, tmp_path, random_model, capsys, command, cfg):
        model, calib = random_model
        base = {"model": str(model), "calibration": str(calib), "pruned": str(model)}
        code = self._run(tmp_path, command, {**base, **cfg}, "--out", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("certify", ["--samples", "0", "--radius", "1.0"]),
            ("certify", ["--samples", "-3", "--radius", "1.0"]),
            ("certify", ["--seed", "-1", "--radius", "1.0"]),
            ("certify", ["--samples", "2.5", "--radius", "1.0"]),
            ("prune", ["--epsilon", "nan", "--radius", "1"]),
            ("prune", ["--sparsity", "nan"]),
            ("prune", ["--damping", "-1", "--sparsity", "0.5"]),
            ("simulate", ["--dynamics", "pendulum", "--dt", "nan"]),
            ("simulate", ["--dynamics", "pendulum", "--dt", "inf"]),
            ("simulate", ["--dynamics", "pendulum", "--gravity", "nan"]),
            ("simulate", ["--dynamics", "pendulum", "--length", "nan"]),
            ("simulate", ["--dynamics", "pendulum", "--mass", "nan"]),
            ("simulate", ["--dynamics", "pendulum", "--action-limit", "nan"]),
            ("simulate", ["--dynamics", "pendulum", "--action-limit", "-1"]),
            ("simulate", ["--dynamics", "double_integrator", "--dt", "nan"]),
            ("simulate", ["--dynamics", "double_integrator", "--action-limit", "-1"]),
        ],
    )
    def test_bad_flags_are_usage_errors(self, tmp_path, random_model, capsys, command, flags):
        model, calib = random_model
        base = {"prune": ["--calibration", str(calib)]}.get(command, ["--pruned", str(model)])
        if command == "simulate":  # the pendulum fixture, certified against itself
            model = FIXTURES / "pendulum_policy.json"
            cert = tmp_path / "c" / "certificate.json"
            assert main(["certify", "--model", str(model), "--pruned", str(model), "--radius", "1",
                         "--samples", "10", "--out", str(cert.parent)]) == EXIT_OK
            capsys.readouterr()
            base = ["--pruned", str(model), "--certificate", str(cert),
                    "--x0", "0.5,0", "--horizon", "3"]
        code = main([command, "--model", str(model), *base, *flags, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_unknown_key_is_named(self, tmp_path, random_model, capsys):
        model, _ = random_model
        cfg = {"model": str(model), "pruned": str(model), "radius": 1.0, "sample": 50}
        assert self._run(tmp_path, "certify", cfg, "--out", str(tmp_path / "o")) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'sample'" in err[0]
        assert not (tmp_path / "o" / "certificate.json").exists()

    def test_reestimate_is_an_unknown_key(self, tmp_path, random_model, capsys):
        # compensation has one formula, so there is no inverse to re-estimate
        model, calib = random_model
        cfg = {"model": str(model), "calibration": str(calib), "sparsity": 0.5,
               "compensate": True, "reestimate": True}
        assert self._run(tmp_path, "prune", cfg, "--out", str(tmp_path / "o")) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key 'reestimate'" in err[0]
        assert not (tmp_path / "o" / "pruned_model.json").exists()

    def test_allocation_weights_is_an_unknown_key(self, tmp_path, random_model, capsys):
        # the epsilon budget always splits evenly over the layers
        model, calib = random_model
        cfg = {"model": str(model), "calibration": str(calib), "epsilon": 0.5, "radius": 1.0,
               "allocation_weights": [1, 1, 1]}
        assert self._run(tmp_path, "prune", cfg, "--out", str(tmp_path / "o")) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key 'allocation_weights'" in err[0]
        assert not (tmp_path / "o" / "pruned_model.json").exists()

    def test_other_commands_keys_are_not_parsed(self, tmp_path, random_model):
        model, _ = random_model
        cfg = {
            "model": str(model), "pruned": str(model), "radius": 1.0, "samples": 20,
            "sparsity": "half", "epsilon": "nan", "horizon": 0, "paths": "x",
        }
        assert self._run(tmp_path, "certify", cfg, "--out", str(tmp_path / "o")) == EXIT_OK

    def test_one_config_serves_prune_certify_and_simulate(self, tmp_path):
        model = FIXTURES / "pendulum_policy.json"
        calib = tmp_path / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        run = tmp_path / "run"
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "model": str(model), "calibration": str(calib), "layers": "0", "sparsity": 0.5,
            "pruned": str(run / "pruned_model.json"), "radius": 3.0, "samples": 200,
            "certificate": str(run / "certificate.json"), "dynamics": "pendulum",
            "x0": [0.5, 0.0], "horizon": 20, "seed": 3, "out": str(run),
        }))
        for command in ("prune", "certify", "simulate"):
            assert main([command, "--config", str(path)]) == EXIT_OK
        report = json.loads((run / "deviation_report.json").read_text())
        assert (report["horizon"], report["in_ball_violations"]) == (20, 0)
        assert main(["report", "--config", str(path), str(run / "certificate.json"),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        path.write_text(json.dumps({"paths": [str(run / "certificate.json")]}))
        assert main(["report", "--config", str(path), "--out", str(tmp_path / "r2")]) == EXIT_OK
        assert json.loads((tmp_path / "r2" / "summary.json").read_text())["count"] == 1


class TestInputChecks:
    """Each check on a calibration file, a layer list, a config file or the
    dynamics' inputs, and each flag a command does not take, is one usage
    error with its own message, and nothing is written."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("checks")
        model = str(FIXTURES / "pendulum_policy.json")
        _write_states_csv(tmp / "calib.csv", np.random.default_rng(0).uniform(-1, 1, (16, 2)))
        _write_states_csv(tmp / "wide.csv", np.ones((4, 3)))
        (tmp / "nan.csv").write_text("1,2\nnan,1\n")
        (tmp / "empty.json").write_text(json.dumps({"layers": []}))
        (tmp / "list.json").write_text(json.dumps([1, 2]))
        assert main(["certify", "--model", model, "--pruned", model, "--radius", "1",
                     "--samples", "5", "--out", str(tmp)]) == EXIT_OK
        return {"model": model, "dir": str(tmp)}

    PRUNE = ["prune", "--model", "{model}", "--calibration", "{dir}/calib.csv"]
    SIMULATE = ["simulate", "--model", "{model}", "--pruned", "{model}",
                "--certificate", "{dir}/certificate.json", "--x0", "0.5,0", "--horizon", "3"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (PRUNE + ["--calibration", "{dir}/wide.csv", "--sparsity", "0.5"],
             "{dir}/wide.csv: states have 3 columns but the model expects 2"),
            (PRUNE + ["--calibration", "{dir}/nan.csv", "--sparsity", "0.5"],
             "{dir}/nan.csv: states contain non-finite values"),
            (PRUNE + ["--layers", "7", "--sparsity", "0.5"], "layer index 7 out of range 0..1"),
            (PRUNE + ["--config", "{dir}/empty.json", "--sparsity", "0.5"],
             "need at least one layer to rank"),
            (PRUNE + ["--config", "{dir}/empty.json", "--epsilon", "0.5", "--radius", "1"],
             "need at least one layer"),
            (["certify", "--config", "{dir}/list.json", "--model", "{model}", "--pruned", "{model}",
              "--radius", "1"], "{dir}/list.json: config must be a JSON object"),
            # the certificate is read first, so a real one reaches the check
            (SIMULATE + ["--dynamics", "linear"],
             "linear dynamics need --system (JSON with A and B)"),
            # rollouts and reports draw nothing, so they take no seed
            (SIMULATE + ["--dynamics", "pendulum", "--seed", "3"],
             "unrecognized arguments: --seed 3"),
            (["report", "{dir}/certificate.json", "--seed", "3"],
             "unrecognized arguments: --seed 3"),
        ],
        ids=["csv-columns", "csv-nan", "layer-range", "no-layers-sparsity", "no-layers-epsilon",
             "config-list", "linear-without-system", "simulate-seed", "report-seed"],
    )
    def test_is_one_usage_error(self, paths, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
        assert _usage_error(capsys, argv) == "error: " + message.format(**paths)
        assert not out.exists()


# (command, key) for every option a command cannot run without
REQUIRED_PAIRS = [
    (command, key)
    for key, (_, default, commands, _) in cli.OPTIONS.items()
    if default is cli.REQUIRED
    for command in commands
]


def _argv(command, options, out):
    argv = [command, "--out", str(out)]
    for key, value in options.items():
        argv += [value] if key == "paths" else [f"--{key.replace('_', '-')}", value]
    return argv


class TestRequiredOptions:
    """Each command's full option set runs; dropping a required option, or
    adding one the chosen dynamics do not take, is one usage error that
    names the flag, and nothing is written.  So is a size too big to
    allocate."""

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        model = str(FIXTURES / "pendulum_policy.json")
        calib = tmp / "calib.csv"
        _write_states_csv(calib, np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2)))
        cert = tmp / "certificate.json"
        assert main(["certify", "--model", model, "--pruned", model, "--radius", "3",
                     "--samples", "50", "--out", str(tmp)]) == EXIT_OK
        system = tmp / "system.json"
        system.write_text(json.dumps({"A": [[1.0, 0.01], [0.0, 1.0]], "B": [[0.0], [0.01]]}))
        return {
            "prune": {"model": model, "calibration": str(calib), "sparsity": "0.5"},
            "certify": {"model": model, "pruned": model, "radius": "3", "samples": "50"},
            "simulate": {"model": model, "pruned": model, "certificate": str(cert),
                         "dynamics": "pendulum", "x0": "0.5,0", "horizon": "5"},
            "report": {"paths": str(cert)},
            "system": str(system),
        }

    def test_the_required_options(self):
        assert sorted(REQUIRED_PAIRS) == sorted([
            ("prune", "model"), ("prune", "calibration"),
            ("certify", "model"), ("certify", "pruned"),
            ("simulate", "model"), ("simulate", "pruned"), ("simulate", "certificate"),
            ("simulate", "dynamics"), ("simulate", "x0"), ("simulate", "horizon"),
            ("report", "paths"),
        ])

    @pytest.mark.parametrize("command", ["prune", "certify", "simulate", "report"])
    def test_full_options_run(self, full, tmp_path, command):
        assert main(_argv(command, full[command], tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("command, key", REQUIRED_PAIRS)
    def test_missing_required_option(self, full, tmp_path, capsys, command, key):
        options = {k: v for k, v in full[command].items() if k != key}
        out = tmp_path / "o"
        assert main(_argv(command, options, out)) == EXIT_USAGE
        what = "at least one certificate file" if key == "paths" else f"--{key}"
        assert capsys.readouterr().err.splitlines() == [f"error: {command} needs {what}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("simulate", "horizon"), ("certify", "samples")])
    def test_a_size_too_big_to_allocate(self, full, tmp_path, capsys, command, key):
        # 10^15 rows of states lie beyond any address space, so numpy's
        # allocation fails at once; its MemoryError printed a traceback
        out = tmp_path / "o"
        argv = _argv(command, {**full[command], key: str(10**15)}, out)
        assert _usage_error(capsys, argv).startswith("error: Unable to allocate ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "dynamics, key, value",
        [("linear", "dt", "0.1"), ("pendulum", "system", "system.json"),
         ("double_integrator", "gravity", "9.81")],
    )
    def test_option_the_dynamics_do_not_take(
        self, full, tmp_path, capsys, dynamics, key, value
    ):
        options = {**full["simulate"], "dynamics": dynamics}
        if dynamics == "linear":
            options["system"] = full["system"]
        assert main(_argv("simulate", options, tmp_path / "ok")) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(_argv("simulate", {**options, key: value}, out)) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --dynamics {dynamics} takes no --{key}"]
        assert not out.exists()

    def test_a_mistyped_model_field_is_named(self, full, tmp_path, capsys):
        model = json.loads((FIXTURES / "pendulum_policy.json").read_text())
        model["layers"][0]["activation"]["alpha"] = True
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model))
        out = tmp_path / "o"
        assert main(_argv("certify", {**full["certify"], "pruned": str(bad)}, out)) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: model.layers[0].activation.alpha: expected a number, got True"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, field",
        [("prune", "model", "weights"), ("certify", "model", "bias"),
         ("certify", "pruned", "weights")],
    )
    def test_an_integer_past_the_float_range_is_named(
        self, full, tmp_path, capsys, command, key, field
    ):
        # 10^400 read as a JSON integer and overflowed float() with an
        # OverflowError traceback
        model = json.loads((FIXTURES / "pendulum_policy.json").read_text())
        layer = model["layers"][1]
        layer[field][0] = 10**400 if field == "bias" else [10**400, *layer[field][0][1:]]
        bad = tmp_path / "huge_model.json"
        bad.write_text(json.dumps(model))
        out = tmp_path / "o"
        assert _usage_error(capsys, _argv(command, {**full[command], key: str(bad)}, out)) == (
            f"error: {bad}: model.layers[1].{field}: an integer lies past the float range"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "system, message",
        [
            ({"A": [[1.0, True], [0.0, 1.0]], "B": [[0.0], [0.01]]}, "A: expected a number, got True"),
            ({"A": [[1.0, 0.01], [0.0, 1.0]], "B": [["0"], [0.01]]}, "B: expected a number, got '0'"),
            ({"A": [[1.0, 0.01], [0.0, 1.0]], "B": [[False], [None]]},
             "B: expected a number, got False"),
            ({"A": [[1.0, 0.01], [0.0]], "B": [[0.0], [0.01]]}, "A: rows must all have equal length"),
            ({"A": [[1.0, 0.01], [0.0, 1.0]]}, "missing field 'B'"),
        ],
        ids=["boolean-A", "string-B", "boolean-B", "ragged-A", "missing-B"],
    )
    def test_a_mistyped_system_field_is_named(self, full, tmp_path, capsys, system, message):
        # a JSON boolean or numeric string in A or B read as a float before
        bad = tmp_path / "bad_system.json"
        bad.write_text(json.dumps(system))
        options = {**full["simulate"], "dynamics": "linear", "system": str(bad)}
        out = tmp_path / "o"
        assert main(_argv("simulate", options, out)) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "system, field",
        [({"A": [[1.0, 0.01], [0.0, 10**400]], "B": [[0.0], [0.01]]}, "A"),
         ({"A": [[1.0, 0.01], [0.0, 1.0]], "B": [[0.0], [-(10**400)]]}, "B")],
    )
    def test_a_system_integer_past_the_float_range_is_named(
        self, full, tmp_path, capsys, system, field
    ):
        # 10^400 in A or B overflowed float() with an OverflowError traceback
        bad = tmp_path / "huge_system.json"
        bad.write_text(json.dumps(system))
        options = {**full["simulate"], "dynamics": "linear", "system": str(bad)}
        out = tmp_path / "o"
        assert _usage_error(capsys, _argv("simulate", options, out)) == (
            f"error: {bad}: {field}: an integer lies past the float range"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, text",
        [
            ("certify", "model", "{broken"),
            ("certify", "pruned", '{"layers": []}'),
            ("prune", "calibration", "1,x\n"),
            ("prune", "calibration", ""),
            ("prune", "calibration", None),
            ("simulate", "certificate", '{"layers": []}'),
            # 200,000 open brackets overflowed json's recursion limit with a traceback
            pytest.param("certify", "model", "[" * 200_000, id="certify-model-deep"),
            pytest.param("certify", "config", "[" * 200_000, id="certify-config-deep"),
        ],
    )
    def test_malformed_file_is_named_once(self, full, tmp_path, capsys, command, key, text):
        bad = tmp_path / "bad_input"
        if text is not None:
            bad.write_text(text)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(_argv(command, {**full[command], key: str(bad)}, out)) == EXIT_USAGE
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}")
        assert err[0].count("bad_input") == 1
        assert not out.exists()


class TestHelp:
    COMMANDS = ("prune", "certify", "simulate", "report")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_exactly_the_commands_table_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        own = {key for key, row in cli.OPTIONS.items() if command in row[2]}
        flags = {f"--{key.replace('_', '-')}" for key in own - {"paths"}}
        assert set(re.findall(r"--[a-z][a-z0-9-]*", text)) == flags | {"--help", "--config"}
        assert ("paths" in own) == ("paths" in text)

    def test_verify_is_not_a_command(self, tmp_path, capsys):
        model = str(FIXTURES / "pendulum_policy.json")
        assert main(["verify", "--model", model, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid choice: 'verify'" in err[0]
        assert not any(tmp_path.iterdir())

    def test_every_option_belongs_to_a_command(self):
        assert len(cli.OPTIONS) == 29
        for key, (_, _, commands, _) in cli.OPTIONS.items():
            assert commands and set(commands) <= set(self.COMMANDS), key


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "prunecert", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "prunecert" in result.stdout

    def test_import_leaves_hashlib_to_report(self):
        # hashlib loads OpenSSL, about 3 MB of peak memory that only report's
        # digests need
        code = "import sys, prunecert.cli; print('hashlib' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
