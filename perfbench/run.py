"""fpsynth benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk-diffusion --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports fpsynth from `src/` and
writes only under `.perfbench_out/`. The last line of stdout is the result
(`correct`, `attempted`, `failed`, `metrics`); the line before it is the run
record: environment, inputs, every timing sample and every check. Both are
also saved under `.perfbench_out/results/`.

Workloads (see NOTES.md for the measured profile of each):

* desk-diffusion: `run_experiment` on the paper's default 10x10 desk grid
  with 20 APs, 50% unseen, diffusion augmenter and kNN. The headline
  experiment; the denoiser, Adam and the sampler dominate it.
* survey-interp: a seeded ~10 MB wide-format survey file (400 locations x
  10 samples x 200 APs, about half the readings "not detected") run with
  `data.source=file`, the interpolator augmenter and kNN. It makes no
  denoiser call, so it isolates the dataset layer, kNN and the baselines.
* staged-cli: the README's stage-by-stage flow, one `fpsynth` process per
  stage, with 100 APs, 10 diffusion epochs and the feedforward localizer.
  It pays interpreter start-up six times, goes through the file codec and
  the checkpoint, and is the only workload that trains `nets.Mlp`.

With `--trace 0` a run repeats the workload's experiments until `--seconds`
is used up and reports the end-to-end metrics. The repeats cycle over the
workload's experiment seeds (three for desk-diffusion, one otherwise, all
derived from `--seed`), and one seed always runs twice so that its reports
can be compared byte for byte. With `--trace 1` a run alternates an untraced
and a traced repeat of the first experiment seed and reports the per-layer
metrics of the traced ones; `trace.overhead_s` is the difference of their
median wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCH = HERE / "launch.py"

# name -> (config overrides, maps per run). A run cycles its repeats over
# `maps` experiment seeds derived from the workload seed and averages the error
# metrics over them. desk-diffusion's median error jumps between grid-spacing
# modes from one world to the next (its spread over ten seeds reached 22% of
# the median with one map per run), and its repeats are short enough to afford
# three maps in a run.
WORKLOADS = {
    "desk-diffusion": ([], 3),
    "survey-interp": (
        ["data.source=file", "data.file.path={survey}", "augmenter.kind=interpolator"], 1),
    "staged-cli": (
        ["synth.ap_count=100", "diffusion.epochs=10", "localizer.variant=feedforward"], 1),
}
SETUP_PROBES = 9
PROCESS_TIMEOUT_S = 150

# A fresh interpreter that imports fpsynth the way the CLI does, resolves the
# workload's config and prints the system-wide monotonic clock.
SETUP_PROBE = (
    "import sys, time\n"
    "import fpsynth.cli\n"
    "fpsynth.cli.resolve_config(None, sys.argv[2:], int(sys.argv[1]))\n"
    "print(repr(time.monotonic()))\n"
)


@dataclass
class Repeat:
    traced: bool
    seed: int = -1  # the experiment seed
    wall_s: float = math.nan
    cpu_s: float = math.nan
    report: bytes | None = None
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def child_env(**extra) -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


# ---------------------------------------------------------------------------
# Environment record


def _openblas_runtime() -> dict:
    """Thread count and runtime configuration of the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        out = {}
        for key, restype, names in (
            ("blas_threads", ctypes.c_int, ("scipy_openblas_get_num_threads64_",
                                            "openblas_get_num_threads64_", "openblas_get_num_threads")),
            ("blas_runtime", ctypes.c_char_p, ("scipy_openblas_get_config64_",
                                               "openblas_get_config64_", "openblas_get_config")),
        ):
            fn = next((getattr(handle, n) for n in names if hasattr(handle, n)), None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                value = fn()
                out[key] = value.decode() if isinstance(value, bytes) else int(value)
        if out:
            return out
    return {}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """Everything a timing depends on; results with different machine_id are not comparable."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        **_openblas_runtime(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    env["machine_id"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]
    return env


# ---------------------------------------------------------------------------
# Output checks


def report_problems(data: bytes) -> list[str]:
    """A report is finite, and its CDF is nondecreasing and ends at 1.0."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ["report: not UTF-8"]
    if len(lines) < 4 or lines[0] != "mean_error_m,median_error_m" or lines[2] != "error_m,cumulative_fraction":
        return ["report: unexpected layout"]
    try:
        rows = [tuple(float(v) for v in line.split(",")) for line in [lines[1], *lines[3:]]]
    except ValueError:
        return ["report: unparsable row"]
    if any(len(row) != 2 for row in rows):
        return ["report: a row without exactly two values"]
    problems = []
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("report: non-finite value")
    cdf = rows[1:]
    if any(b[0] < a[0] or b[1] < a[1] for a, b in zip(cdf, cdf[1:])):
        problems.append("report: CDF decreases")
    if cdf[-1][1] != 1.0:
        problems.append(f"report: CDF ends at {cdf[-1][1]!r}, not 1.0")
    return problems


def report_errors(data: bytes) -> tuple[float, float]:
    mean, median = data.decode("utf-8").splitlines()[1].split(",")
    return float(mean), float(median)


# ---------------------------------------------------------------------------
# One repeat of a workload


def in_process_repeat(cfg, report_path: Path, rep: Repeat) -> None:
    import fpsynth.pipeline as pipeline
    from fpsynth.localizer import save_report
    from tracing import Tracer

    tracer = Tracer(run=report_path.stem) if rep.traced else None
    if tracer:
        tracer.install()
    try:
        c0, w0 = cpu_seconds(), time.perf_counter()
        result = pipeline.run_experiment(cfg)
        rep.wall_s, rep.cpu_s = time.perf_counter() - w0, cpu_seconds() - c0
    finally:
        if tracer:
            tracer.uninstall()
            rep.spans = tracer.spans
    save_report(result.report, report_path)
    rep.report = report_path.read_bytes()


def run_cli(command: str, args: list[str], cwd: Path, env: dict[str, str]) -> None:
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), command, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fpsynth {command} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")


def staged_steps(data_handoff: bool) -> list[tuple[str, list[str]]]:
    """The README's stage-by-stage flow; with data_handoff, split and augment read data.csv."""
    data = ["--data", "data.csv"] if data_handoff else []
    return [
        ("synth-env", ["-o", "data.csv"]),
        ("split", ["-o", "split.csv", *data]),
        ("augment", ["--split", "split.csv", "-o", "aug.csv", *data]),
        ("train-diffusion", ["--data", "aug.csv", "--split", "split.csv", "-o", "model.ckpt",
                             "--trace", "loss.csv"]),
        ("generate", ["--model", "model.ckpt", "--split", "split.csv", "-o", "gen.csv"]),
        ("evaluate", ["--train", "aug.csv", "--train", "gen.csv", "-o", "report.csv"]),
    ]


def staged_repeat(cfg_args: list[str], wd: Path, rep: Repeat, data_handoff=False) -> None:
    from tracing import Tracer, load_spans

    wd.mkdir(parents=True)
    tracer = Tracer(run=wd.name) if rep.traced else None
    c0, w0 = cpu_seconds(), time.perf_counter()
    for command, args in staged_steps(data_handoff):
        if tracer is None:
            run_cli(command, args + cfg_args, wd, child_env())
            continue
        span_file = wd / f"spans-{command}.json"
        with tracer.span(f"process.{command}") as span:
            env = child_env(PERFBENCH_TRACE_FILE=str(span_file), PERFBENCH_TRACE_PARENT=span["id"])
            run_cli(command, args + cfg_args, wd, env)
        tracer.spans.extend(load_spans(span_file))
    rep.wall_s, rep.cpu_s = time.perf_counter() - w0, cpu_seconds() - c0
    rep.report = (wd / "report.csv").read_bytes()
    if tracer:
        rep.spans = tracer.spans


def measure(run_one, seconds: float, traced: bool, min_rounds: int) -> list[Repeat]:
    """Repeat until the next round would overrun `seconds`; untraced/traced pairs when traced."""
    kinds = (False, True) if traced else (False,)
    reps: list[Repeat] = []
    t0 = time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        for kind in kinds:
            rep = Repeat(traced=kind)
            try:
                run_one(rep, len(reps))
            except Exception as e:  # a failed repeat is counted, not fatal
                rep.problems.append(f"raised {type(e).__name__}: {e}")
            reps.append(rep)
        rounds = len(reps) // len(kinds)
        round_s = time.perf_counter() - round_t0
        if rounds >= min_rounds and time.perf_counter() - t0 + round_s > seconds:
            return reps


def probe_setup(cfg_args: list[str], seed: int) -> float:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(seed), *cfg_args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip()) - t0


def timing(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "samples": values}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "fpsynth" / "__init__.py").is_file():
        print(f"perfbench: no fpsynth package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name, seed = args.workload, args.seed
    tag = f"{name}-seed{seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record: dict = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    try:
        reps, metrics = run_workload(name, seed, args.seconds, bool(args.trace), work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reps if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_workload(name, seed, seconds, traced, work: Path, record: dict):
    """Make the inputs, measure, check; returns the repeats and the metrics to print."""
    import survey
    from fpsynth.config import resolve_config

    # Inputs are made before anything is timed.
    template, maps = WORKLOADS[name]
    seeds = [seed * maps + i for i in range(maps)]
    record["experiment_seeds"] = seeds
    survey_path = work / "survey.csv"
    if name == "survey-interp":
        record["input"] = survey.write_survey(survey_path, seed)
    overrides = [o.format(survey=survey_path) for o in template]
    cfg_args = {s: [x for o in overrides for x in ("--set", o)] + ["--seed", str(s)] for s in seeds}
    cfgs = {s: resolve_config(None, overrides, s) for s in seeds}
    setup = [] if traced else [probe_setup(overrides, seed) for _ in range(SETUP_PROBES)]

    def run_one(rep, k):
        # A traced run compares traced with untraced repeats of one experiment.
        rep.seed = seeds[0] if traced else seeds[k % maps]
        if name == "staged-cli":
            staged_repeat(cfg_args[rep.seed], work / f"staged-{k}", rep)
        else:
            in_process_repeat(cfgs[rep.seed], work / f"report-{k}.csv", rep)

    # Untraced runs repeat one experiment seed to compare the bytes of its reports.
    reps = measure(run_one, seconds, traced, min_rounds=1 if traced else maps + 1)
    # for staged-cli: the largest stage process
    rusage = resource.RUSAGE_CHILDREN if name == "staged-cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0

    record["checks"] = check_repeats(reps)
    if name == "staged-cli":
        record["checks"].update(check_staged(reps, cfg_args, work))
    failed = sum(1 for r in reps if r.problems)
    record["error_rate"] = failed / len(reps)
    record["problems"] = [p for r in reps for p in r.problems]
    untraced = [r for r in reps if not r.traced and not r.problems]
    if traced:
        traced_ok = [r for r in reps if r.traced and not r.problems]
        return reps, traced_metrics(traced_ok, untraced, name, seed, record) if traced_ok else {}
    if not untraced:
        return reps, {}
    record["timings"] = {
        "wall_s": timing([r.wall_s for r in untraced]),
        "cpu_s": timing([r.cpu_s for r in untraced]),
        "setup_s": timing(setup),
    }
    errors = {}
    for r in untraced:
        errors.setdefault(r.seed, report_errors(r.report))
    record["errors_by_seed"] = errors
    mean_err = statistics.fmean(mean for mean, _ in errors.values())
    median_err = statistics.fmean(median for _, median in errors.values())
    return reps, {
        "wall_s": (record["timings"]["wall_s"]["median"], "s"),
        "cpu_s": (record["timings"]["cpu_s"]["median"], "s"),
        "setup_s": (record["timings"]["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mean_error_m": (mean_err, "m"),
        "median_error_m": (median_err, "m"),
        "pass_rate": (1.0 - record["error_rate"], "ratio"),
    }


def check_repeats(reps: list[Repeat]) -> dict:
    """Every report is valid and byte-identical to the first repeat of its experiment seed."""
    first: dict[int, bytes] = {}
    identical = True
    for r in reps:
        if r.report is None:
            continue
        r.problems += report_problems(r.report)
        if r.report != first.setdefault(r.seed, r.report):
            r.problems.append("report bytes differ from the first repeat of this seed")
            identical = False
    return {"repeats_identical": identical}


def check_staged(reps: list[Repeat], cfg_args: dict[int, list[str]], work: Path) -> dict:
    """Staged reports equal `fpsynth pipeline`; check.file_handoff is reported, not counted."""
    mono: dict[int, bytes] = {}
    equal = True
    for seed in sorted({r.seed for r in reps}):
        mono_dir = work / f"pipeline-{seed}"
        mono_dir.mkdir()
        try:
            run_cli("pipeline", ["-o", "report.csv", *cfg_args[seed]], mono_dir, child_env())
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            problem = f"fpsynth pipeline failed, staged report unverified: {e}"
        else:
            mono[seed] = (mono_dir / "report.csv").read_bytes()
            problem = "staged report bytes differ from fpsynth pipeline"
        for r in reps:
            if r.seed == seed and r.report is not None and r.report != mono.get(seed):
                r.problems.append(problem)
                equal = False

    seed = min(cfg_args)
    rep = Repeat(traced=False, seed=seed)
    try:
        staged_repeat(cfg_args[seed], work / "handoff", rep, data_handoff=True)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        rep.problems.append(str(e))
    if rep.report is not None:
        rep.problems += report_problems(rep.report)
    handoff = {
        "passed": not rep.problems and rep.report == mono.get(seed),
        "counted_in_error_rate": False,
        "known_defect": "run_experiment does not canonicalize the data stage; see NOTES.md",
    }
    if rep.problems:
        handoff["error"] = "; ".join(rep.problems)
    else:
        handoff["handoff_mean_error_m"] = report_errors(rep.report)[0]
    if seed in mono and not report_problems(mono[seed]):
        handoff["pipeline_mean_error_m"] = report_errors(mono[seed])[0]
    return {"staged_equals_pipeline": equal, "check.file_handoff": handoff}


def traced_metrics(traced_ok, untraced, name, seed, record) -> dict:
    from tracing import layer_metrics, self_times

    per_rep = [layer_metrics(r.spans) for r in traced_ok]
    metrics = {k: (statistics.median(m[k][0] for m in per_rep), u) for k, (_, u) in per_rep[0].items()}
    traced_wall = statistics.median(r.wall_s for r in traced_ok)
    untraced_wall = statistics.median(r.wall_s for r in untraced) if untraced else math.nan
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    selfs = self_times(traced_ok[0].spans)
    record["self_s"] = dict(sorted(selfs.items(), key=lambda kv: -kv[1])[:30])
    record["timings"] = {
        "traced_wall_s": timing([r.wall_s for r in traced_ok]),
        "untraced_wall_s": timing([r.wall_s for r in untraced]),
    }
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{name}-seed{seed}.json"
    trace_file.write_text(json.dumps([s for r in traced_ok for s in r.spans]), encoding="utf-8")
    record["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
