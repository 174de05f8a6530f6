"""Benchmark of prunecert's CLI pipeline: prune -> certify -> simulate -> report.

Run from the repository root:

    python3 bench/run.py --workload wide-sparsity --seed 0 --seconds 30 --trace 0

One process runs one workload, single-threaded (BLAS thread variables are
forced to 1 before numpy loads).  It generates each job's inputs from the
seed, drives ``prunecert.cli.main`` in-process for the four commands, and
checks every artifact.  ``--trace 0`` times the jobs untraced and reports
the end-to-end metrics; ``--trace 1`` runs each job untraced and traced,
with spans around every public prunecert function, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
a fuller record (environment, every job, artifact digests) goes to
``.bench_results/``.  See ``bench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("prune", "certify", "simulate", "report")
ARTIFACTS = (
    "pruned_model.json",
    "prune_plan.json",
    "certificate.json",
    "trajectory_original.csv",
    "trajectory_pruned.csv",
    "deviation_report.json",
    "summary.json",
)
# set-up probes per untraced run, spread evenly over its jobs
SETUP_REPEATS = 15
# jobs per second of ``--seconds`` in an untraced run, set-up probes
# included, as measured on a 2-core x86-64 VM.  A run takes a fixed number
# of jobs rather than as many as fit in the window, so that one seed always
# attempts, and fails, the same jobs.
JOBS_PER_SECOND = {"fixture-rollouts": 0.65, "wide-sparsity": 0.11, "budget-inverse": 0.8}
# a traced run takes each job twice, once traced
TRACED_COST = 2.5
# the exit code with which a command reports a certificate or deviation that
# does not hold; it still writes its artifacts
EXIT_VIOLATION = 2
# epsilon mode: the certified budget may exceed epsilon by rounding only
EPSILON_ROUNDING = 1e-12

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("prune_s", "s"),
    ("certify_s", "s"),
    ("simulate_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("trace.pipeline_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("cli.self_s", "s"),
    ("pruner.self_s", "s"),
    ("certifier.self_s", "s"),
    ("controlsim.self_s", "s"),
    ("policy.self_s", "s"),
    ("linalg.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("pruner.rank_weights.self_s", "s"),
    ("pruner.rank_weights.entries", "count"),
    ("policy.save_policy.self_s", "s"),
    ("policy.load_policy.self_s", "s"),
    ("linalg.spectral_norm.calls", "count"),
    ("linalg.spectral_norm.self_s", "s"),
    ("linalg.spectral_norm.failed", "count"),
    ("pruner.prune_to_budget.self_s", "s"),
    ("pruner.prune_to_budget.norms_per_removal", "ratio"),
    ("pruner.obs_compensate.calls", "count"),
    ("pruner.apply_plan.self_s", "s"),
    ("pruner.collect_calibration.self_s", "s"),
    ("linalg.damped_inverse.self_s", "s"),
    ("pruner.PrunePlan.from_policies.self_s", "s"),
    ("certifier.audit_bound.self_s", "s"),
    ("certifier.multi_layer_budget.self_s", "s"),
    ("certifier.admissible_magnitude.self_s", "s"),
    ("policy.forward_batch.self_s", "s"),
    ("policy.forward_batch.columns", "count"),
    ("controlsim.rollout.self_s", "s"),
    ("controlsim.step.calls", "count"),
    ("controlsim.step.self_s", "s"),
    ("controlsim.deviation_audit.self_s", "s"),
    ("policy.forward.calls", "count"),
    ("policy.forward.self_s", "s"),
    ("linalg.as_vector.calls", "count"),
    ("linalg.as_vector.self_s", "s"),
)

# a fresh interpreter that gets one job ready: the set-up a user pays
SETUP_PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import numpy, prunecert.cli, inputs; "
    "inputs.generate_job(Path(sys.argv[3]), sys.argv[4], int(sys.argv[5]), 0, Path(sys.argv[6]))"
)


@dataclass
class JobRun:
    """Outcome of one pass of a job through the four commands."""

    index: int
    seed: int
    label: str
    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    trace: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.problems

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def command_argvs(spec, out: Path) -> dict[str, list[str]]:
    model = str(spec.dir / "model.json")
    pruned = str(out / "pruned_model.json")
    cert = str(out / "certificate.json")
    return {
        "prune": ["prune", "--model", model, *spec.prune_args, "--out", str(out)],
        "certify": [
            "certify", "--model", model, "--pruned", pruned, *spec.certify_args, "--out", str(out),
        ],
        "simulate": [
            "simulate", "--model", model, "--pruned", pruned, "--certificate", cert,
            *spec.simulate_args, "--out", str(out),
        ],
        "report": ["report", cert, "--out", str(out)],
    }


def artifact_digest(path: Path) -> str:
    """SHA-256 of an artifact, with a top-level JSON ``timestamp`` dropped."""
    data = path.read_bytes()
    if path.suffix == ".json" and b'"timestamp"' in data:
        doc = json.loads(data)
        doc.pop("timestamp", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def check_outputs(spec, out: Path) -> list[str]:
    """Every way the job's artifacts contradict what the CLI promises."""
    plan = json.loads((out / "prune_plan.json").read_text())
    cert = json.loads((out / "certificate.json").read_text())
    dev = json.loads((out / "deviation_report.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    problems = []
    if cert["holds"] is not True:
        problems.append("certificate: holds is not true")
    if cert["audit"]["violations"] != 0:
        problems.append(f"certificate: {cert['audit']['violations']} audit violations")
    total = 0.0
    for row in cert["layers"]:
        total = total + row["contribution"]
    if total != cert["budget"]:
        problems.append(f"certificate: budget {cert['budget']!r} != sum of contributions {total!r}")
    if dev["in_ball_violations"] != 0:
        problems.append(f"deviation report: {dev['in_ball_violations']} in-ball violations")
    if spec.expected_removed is not None and plan["pruned_weights"] != spec.expected_removed:
        problems.append(
            f"plan: removed {plan['pruned_weights']} weights, expected {spec.expected_removed}"
        )
    if spec.epsilon is not None and not cert["budget"] <= spec.epsilon * (1 + EPSILON_ROUNDING):
        problems.append(f"certificate: budget {cert['budget']!r} exceeds epsilon {spec.epsilon!r}")
    if summary["all_hold"] is not True or summary["total_violations"] != 0:
        problems.append("summary: not every certificate holds")
    return problems


def run_job(cli, spec, out: Path, tracer: tracing.Tracer | None) -> JobRun:
    """Take one job through the pipeline; any failure ends the job, never the run."""
    traced = tracer is not None
    job = JobRun(index=spec.index, seed=spec.seed, label=spec.label, traced=traced)
    shutil.rmtree(out, ignore_errors=True)
    argvs = command_argvs(spec, out)
    with tracer if traced else nullcontext():
        for name in COMMANDS:
            # each user command starts in a fresh process with no garbage from
            # the last one; collecting here keeps collections that earlier
            # jobs' garbage would trigger out of this command's time
            gc.collect()
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = cli.main(argvs[name])
                except Exception:  # a crashing command is a failed job, recorded
                    job.times[name] = time.perf_counter() - start
                    job.failure = f"{name}: {traceback.format_exc()}"
                    break
                job.times[name] = time.perf_counter() - start
            if code == EXIT_VIOLATION:
                # an unsound output, not a crash: the job goes on so that
                # its artifacts are checked, and the run is not correct
                job.problems.append(f"{name}: exit {code} (a certificate or deviation check failed)")
            elif code != 0:
                job.failure = f"{name}: exit {code}: {sink.getvalue()[-2000:]}"
                break
    if traced:
        job.trace = tracing.summarize(tracer.take())
    if out.is_dir():
        job.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    if job.failure is None:
        try:
            job.problems += check_outputs(spec, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            job.problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        job.digests = {n: artifact_digest(out / n) for n in ARTIFACTS if (out / n).is_file()}
    return job


def measure_setup(workload: str, seed: int, probe: Path) -> float:
    """Wall time of a fresh interpreter that imports prunecert and makes job 0's inputs.

    No ``timeout``: with one, ``subprocess`` polls the child every 50 ms and
    the times come out in 50 ms steps.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH),
         str(ROOT), workload, str(seed), str(probe)],
        check=True,
    )
    elapsed = time.perf_counter() - start
    shutil.rmtree(probe, ignore_errors=True)
    return elapsed


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np, workload: str, seed: int, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def mean_per_kind(jobs: list[JobRun], key) -> float:
    """Mean per job kind (``label``), averaged over the kinds.

    Per kind, because budget-inverse alternates zero-only and compensated
    jobs whose times form two clusters, and failures remove jobs of one kind
    only.  A mean, not a median, because on a shared machine whose speed
    switches between two levels every few seconds the job times are bimodal
    too: a median jumps between the levels with the mix of a run, while a
    mean moves in proportion to it.
    """
    by_label: dict[str, list[float]] = {}
    for j in jobs:
        by_label.setdefault(j.label, []).append(key(j))
    return statistics.fmean(statistics.fmean(v) for v in by_label.values())


def end_to_end(jobs: list[JobRun], setup_times: list[float]) -> dict[str, float]:
    ok = [j for j in jobs if j.ok]
    values = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": mean_per_kind(ok, lambda j: j.wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ("prune", "certify", "simulate"):
        values[f"{name}_s"] = mean_per_kind(ok, lambda j: j.times[name])
    return values


def per_layer(pairs: list[tuple[JobRun, JobRun]]) -> dict[str, float]:
    """Means over traced jobs, so layer self times add up to the pipeline time."""
    n = len(pairs)
    totals: dict[str, float] = {}
    for _, traced in pairs:
        for key, value in traced.trace.items():
            totals[key] = totals.get(key, 0.0) + value
    values = {name: totals.get(name, 0.0) / n for name, _ in PER_LAYER}
    values["trace.pipeline_s"] = sum(t.wall for _, t in pairs) / n
    values["trace.untraced_s"] = values["trace.pipeline_s"] - totals.get("trace.root_s", 0.0) / n
    values["trace.overhead_s"] = values["trace.pipeline_s"] - sum(u.wall for u, _ in pairs) / n
    values["cli.bytes_written"] = sum(t.bytes_written for _, t in pairs) / n
    removed = totals.get("pruner.prune_to_budget.removed", 0.0)
    norms = totals.get("pruner.prune_to_budget.norms", 0.0)
    values["pruner.prune_to_budget.norms_per_removal"] = norms / removed if removed else 0.0
    return values


def job_count(workload: str, seconds: float, trace: bool) -> int:
    """Jobs in one run: a function of the arguments alone, at least two."""
    n = JOBS_PER_SECOND[workload] * seconds
    return max(2, round(n / TRACED_COST if trace else n))


def probe_slots(n_jobs: int, probes: int) -> list[int]:
    """Index of the job before which each set-up probe runs, evenly spread."""
    return [i * n_jobs // probes for i in range(probes)]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="fixture-rollouts, wide-sparsity or budget-inverse")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "prunecert" / "cli.py").is_file():
        print(f"error: no prunecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import inputs
    from prunecert import cli

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}", file=sys.stderr)
        return 2

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}_{os.getpid()}"
    n_jobs = job_count(args.workload, args.seconds, bool(args.trace))
    # set-up is an end-to-end metric only; its probes are spread over the
    # jobs so that they sample the machine's slow and fast phases alike
    slots = probe_slots(n_jobs, 0 if args.trace else SETUP_REPEATS)
    try:
        setup_times: list[float] = []
        tracer = tracing.Tracer()
        jobs: list[JobRun] = []
        pairs: list[tuple[JobRun, JobRun]] = []
        for index in range(n_jobs):
            for _ in range(slots.count(index)):
                setup_times.append(measure_setup(args.workload, args.seed, work / "setup"))
            job_dir = work / f"job{index}"
            spec = inputs.generate_job(ROOT, args.workload, args.seed, index, job_dir)
            out = job_dir / "out"
            if args.trace:
                # alternate which pass runs first so warm caches favour neither
                order = (False, True) if index % 2 == 0 else (True, False)
                runs = {t: run_job(cli, spec, out, tracer if t else None) for t in order}
                pairs.append((runs[False], runs[True]))
                jobs.extend(runs[t] for t in order)
            else:
                jobs.append(run_job(cli, spec, out, None))
            shutil.rmtree(job_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(jobs)
    failed = [j for j in jobs if not j.ok]
    if len(failed) == attempted:
        print("error: every job failed; no timing to report", file=sys.stderr)
        for j in failed:
            print(f"  job {j.index} (seed {j.seed}): {j.failure or j.problems}", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(pairs), dict(PER_LAYER)
    else:
        values, units = end_to_end(jobs, setup_times), dict(END_TO_END)
    ok = [j for j in jobs if j.ok]
    kinds = {j.label: sum(1 for o in ok if o.label == j.label) for j in jobs}
    record = {
        "environment": environment(np, args.workload, args.seed, bool(args.trace)),
        "setup_runs_s": setup_times,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "successful_per_kind": kinds,
        "failed_ratio": len(failed) / attempted,
        "jobs": [vars(j) for j in jobs],
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{tag}: {attempted} job passes attempted, {len(failed)} failed, "
          f"failed_ratio {len(failed) / attempted:.4f}; successful passes per kind {kinds}")
    for k, unit in units.items():
        print(f"  {k:44s} {values[k]:.6g} {unit}")
    for j in failed:
        reason = (j.failure or "; ".join(j.problems)).strip().splitlines()[-1]
        print(f"  failed job {j.index} (seed {j.seed}, {j.label}): {reason}")
    print(json.dumps(result_line(jobs, record["metrics"])))
    return 0


def result_line(jobs: list[JobRun], metrics: dict) -> dict:
    """The last line of output.  Not correct when any job's outputs fail a check."""
    return {
        "correct": not any(j.problems for j in jobs),
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if not j.ok),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
