"""Tests of the benchmark itself: input generation, tracing, output checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = inputs.generate_job(ROOT, workload, 5, 1, tmp_path / "a")
    b = inputs.generate_job(ROOT, workload, 5, 1, tmp_path / "b")
    c = inputs.generate_job(ROOT, workload, 6, 1, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    def args(spec):
        return [x.replace(str(spec.dir), "<dir>") for x in spec.prune_args + spec.simulate_args]

    assert args(a) == args(b)
    assert (a.seed, a.epsilon, a.expected_removed) == (b.seed, b.epsilon, b.expected_removed)


def test_x0_is_passed_as_plain_floats(tmp_path):
    spec = inputs.generate_job(ROOT, "wide-sparsity", 0, 0, tmp_path)
    (x0,) = [a for a in spec.simulate_args if a.startswith("--x0=")]
    assert "np." not in x0
    assert len([float(v) for v in x0[len("--x0="):].split(",")]) == 8


def _bindings() -> dict[tuple[str, str], int]:
    """id of every attribute of every prunecert module and public class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "prunecert" and not name.startswith("prunecert."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(f"{name}.{key}", attr)] = id(raw)
    return out


def test_tracer_rebinds_every_import_and_restores_them():
    from prunecert import cli, controlsim, policy, pruner

    before = _bindings()
    original_rank = pruner.rank_weights
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert cli.rank_weights is pruner.rank_weights is not original_rank
            assert controlsim.forward is policy.forward
            assert controlsim.forward.__wrapped__ is not None
            assert pruner.PrunePlan.from_policies.__func__.__wrapped__ is not None
            1 / 0
    assert _bindings() == before
    assert cli.rank_weights is original_rank


def test_tracer_records_nested_spans_and_counters(tmp_path):
    from prunecert import cli

    spec = inputs.generate_job(ROOT, "fixture-rollouts", 0, 0, tmp_path / "job")
    # a 50-step horizon keeps the traced job short
    spec = dataclasses.replace(
        spec, simulate_args=spec.simulate_args[:-3] + ("--horizon", "50", spec.simulate_args[-1])
    )
    tracer = tracing.Tracer()
    job = run.run_job(cli, spec, tmp_path / "out", tracer)
    assert job.ok, job.failure or job.problems
    t = job.trace
    assert t["cli.main.calls"] == 4
    assert t["pruner.rank_weights.entries"] == 4
    assert t["controlsim.step.calls"] == 100
    layers = sum(t[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(t["trace.root_s"], rel=1e-9)
    assert t["trace.root_s"] <= job.wall


def test_self_time_subtracts_the_union_of_children():
    #   0: [0, 10]  root
    #   1: [1, 3]   child of 0
    #   2: [2, 5]   child of 0, overlaps 1
    #   3: [8, 12]  child of 0, runs past its parent's end
    #   4: [2, 4]   child of 2
    starts = [0.0, 1.0, 2.0, 8.0, 2.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [10 - 4 - 2, 2, 1, 4, 2]


def test_summarize_counts_norms_inside_prune_to_budget_only():
    spans = tracing.Spans(
        names=[
            "cli.main", "pruner.prune_to_budget", "linalg.spectral_norm",
            "linalg.spectral_norm", "pruner.PrunePlan.from_policies", "linalg.spectral_norm",
        ],
        starts=[0.0, 1.0, 2.0, 3.0, 6.0, 7.0],
        ends=[10.0, 5.0, 2.5, 3.5, 8.0, 7.5],
        parents=[-1, 0, 1, 1, 0, 4],
        failed=[False] * 6,
        counts={1: 2},
    )
    s = tracing.summarize(spans)
    assert s["pruner.prune_to_budget.norms"] == 2
    assert s["pruner.prune_to_budget.removed"] == 2
    assert s["linalg.spectral_norm.calls"] == 3
    assert s["linalg.self_s"] == pytest.approx(1.5)
    assert s["cli.self_s"] == pytest.approx(10 - 4 - 2)
    assert s["trace.root_s"] == 10


def test_check_outputs_flags_a_budget_that_does_not_re_add(tmp_path):
    from prunecert import cli

    spec = inputs.generate_job(ROOT, "fixture-rollouts", 0, 0, tmp_path / "job")
    out = tmp_path / "out"
    job = run.run_job(cli, spec, out, None)
    assert job.ok, job.failure or job.problems
    assert set(job.digests) == set(run.ARTIFACTS)
    cert_path = out / "certificate.json"
    cert = json.loads(cert_path.read_text())
    cert["budget"] = cert["budget"] * 2 + 1.0
    cert_path.write_text(json.dumps(cert))
    problems = run.check_outputs(spec, out)
    assert any("sum of contributions" in p for p in problems)


class _Unsound:
    """The real CLI, except that one artifact is made unsound the way the CLI
    itself reports it: the field is flipped and the command exits 2."""

    def __init__(self, command, artifact, key, value):
        from prunecert import cli

        self.cli, self.command, self.artifact, self.key, self.value = cli, command, artifact, key, value

    def main(self, argv):
        code = self.cli.main(argv)
        if argv[0] != self.command:
            return code
        path = Path(argv[argv.index("--out") + 1]) / self.artifact
        doc = json.loads(path.read_text())
        doc[self.key] = self.value
        path.write_text(json.dumps(doc))
        return run.EXIT_VIOLATION


@pytest.mark.parametrize(
    "command, artifact, key, value, check",
    [
        ("certify", "certificate.json", "holds", False, "certificate: holds is not true"),
        ("simulate", "deviation_report.json", "in_ball_violations", 3, "deviation report: 3 in-ball"),
    ],
)
def test_an_unsound_output_makes_the_run_not_correct(tmp_path, command, artifact, key, value, check):
    spec = inputs.generate_job(ROOT, "fixture-rollouts", 0, 0, tmp_path / "job")
    spec = dataclasses.replace(
        spec, simulate_args=spec.simulate_args[:-3] + ("--horizon", "50", spec.simulate_args[-1])
    )
    job = run.run_job(_Unsound(command, artifact, key, value), spec, tmp_path / "out", None)
    assert job.failure is None
    assert any(p.startswith(f"{command}: exit 2") for p in job.problems)
    assert any(p.startswith(check) for p in job.problems)
    line = run.result_line([job], {})
    assert line["correct"] is False
    assert line["failed"] == 1


def test_a_crashing_command_is_failed_but_not_incorrect(tmp_path):
    class Crashing:
        def main(self, argv):
            raise RuntimeError("boom")

    spec = inputs.generate_job(ROOT, "fixture-rollouts", 0, 0, tmp_path / "job")
    job = run.run_job(Crashing(), spec, tmp_path / "out", None)
    assert job.failure.startswith("prune: ")
    line = run.result_line([job], {})
    assert (line["correct"], line["failed"]) == (True, 1)


def test_digest_ignores_the_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": 1.5, "timestamp": "2024-01-01T00:00:00+00:00"}))
    b.write_text(json.dumps({"timestamp": "2025-06-30T12:00:00+00:00", "x": 1.5}))
    assert run.artifact_digest(a) == run.artifact_digest(b)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_a_run_attempts_a_fixed_number_of_jobs(workload, trace):
    # the count depends on the arguments only, so a seed always attempts
    # and fails the same jobs, however fast the machine runs
    n = run.job_count(workload, 36, trace)
    assert n >= 2
    assert n == run.job_count(workload, 36, trace)
    assert run.job_count(workload, 0.1, trace) == 2


@pytest.mark.parametrize("n_jobs, probes", [(3, 15), (23, 15), (29, 15), (2, 1)])
def test_every_setup_probe_runs_and_they_are_spread_over_the_jobs(n_jobs, probes):
    slots = run.probe_slots(n_jobs, probes)
    assert len(slots) == probes
    assert slots == sorted(slots)
    assert slots[0] == 0 and slots[-1] < n_jobs
    per_job = [slots.count(i) for i in range(n_jobs)]
    assert max(per_job) - min(per_job) <= 1


def test_runner_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(ROOT / "bench", bench, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "wide-sparsity",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
