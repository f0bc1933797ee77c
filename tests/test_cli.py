import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpsynth import nets
from fpsynth.cli import main
from fpsynth.localizer import load_report


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ok(argv):
    assert main(argv) == 0


MAIN = ("-c", "import sys; from fpsynth.cli import main; sys.exit(main(sys.argv[1:]))")


def run_process(argv, entry=MAIN, **env):
    """`fpsynth argv` in a fresh interpreter that imports this checkout's src/.

    A keyword sets that environment variable; None unsets it.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in dict(os.environ, **env).items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True, text=True)


class TestSubcommandSmoke:
    def test_synth_env(self, tiny_config_file, tmp_path):
        out = tmp_path / "data.csv"
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(out)])
        text = out.read_text()
        assert text.startswith("AP")
        assert len(text.splitlines()) == 1 + 25 * 3

    def test_synth_env_test_draw_differs(self, tiny_config_file, tmp_path):
        a, b = tmp_path / "train.csv", tmp_path / "test.csv"
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(a)])
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(b), "--test"])
        assert a.read_text() != b.read_text()

    def test_pipeline_default_config_smoke(self, tiny_config_file, tmp_path):
        out = tmp_path / "report.csv"
        run_ok(["pipeline", "-c", tiny_config_file, "-o", str(out)])
        report = load_report(out)
        assert report.mean_error_m >= 0.0

    def test_sweep(self, tiny_config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(
            ["sweep", "-c", tiny_config_file, "--fractions", "0,0.2", "-o", str(out),
             "--set", "augmenter.kind=none"]
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("unseen_fraction")
        assert len(lines) == 3

    def test_split_and_augment_accept_data_file(self, tiny_config_file, tmp_path):
        data = tmp_path / "data.csv"
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(data)])
        split = tmp_path / "split.csv"
        run_ok(["split", "-c", tiny_config_file, "--data", str(data), "-o", str(split)])
        aug = tmp_path / "aug.csv"
        run_ok(["augment", "-c", tiny_config_file, "--data", str(data),
                "--split", str(split), "-o", str(aug)])
        assert aug.read_text().startswith("AP")

    def test_bundled_default_config(self, tmp_path):
        # the shipped configs/default.cfg runs the full benchmark end to end
        from pathlib import Path

        bundled = Path(__file__).parent.parent / "configs" / "default.cfg"
        out = tmp_path / "report.csv"
        run_ok(["pipeline", "-c", str(bundled), "-o", str(out)])
        assert load_report(out).mean_error_m >= 0.0

    def test_bundled_default_matches_builtin_defaults(self):
        from pathlib import Path

        from fpsynth.config import ExperimentConfig, build_experiment_config, load_config_file

        bundled = Path(__file__).parent.parent / "configs" / "default.cfg"
        assert build_experiment_config(load_config_file(bundled)) == ExperimentConfig()


class TestFailureModes:
    def test_unknown_config_key_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("split.strateggy = density\n")
        code = main(["pipeline", "-c", str(cfg), "-o", str(tmp_path / "r.csv")])
        assert code != 0
        err = capsys.readouterr().err
        assert "split.strateggy" in err

    def test_unknown_override_key(self, tiny_config_file, tmp_path, capsys):
        code = main(
            ["pipeline", "-c", tiny_config_file, "-o", str(tmp_path / "r.csv"),
             "--set", "nope.key=1"]
        )
        assert code != 0
        assert "nope.key" in capsys.readouterr().err

    # a range check written `x <= 0` passes NaN: these ran to a report before
    @pytest.mark.parametrize(
        "setting",
        [
            "synth.shadowing_sigma_db=nan",
            "synth.path_loss_exponent=nan",
            "overhead.minutes_per_location=nan",
            "diffusion.sigma_w=inf",
        ],
    )
    def test_non_finite_float_is_a_config_error(self, setting, tiny_config_file, tmp_path, capsys):
        key = setting.split("=")[0]
        out = tmp_path / "r.csv"
        assert main(["pipeline", "-c", tiny_config_file, "-o", str(out), "--set", setting]) == 2
        assert f"config key {key!r}: bad value" in capsys.readouterr().err
        assert not out.exists()

    # retired settings: the grid split, split.batch_per_iteration (always 1)
    # and the hard vicinity kernel
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("split.strategy=grid", "unknown split.strategy 'grid'"),
            ("split.batch_per_iteration=1", "unknown config key 'split.batch_per_iteration'"),
            ("diffusion.kernel=gaussian", "unknown config key 'diffusion.kernel'"),
        ],
        ids=["grid-split", "batch-per-iteration", "kernel"],
    )
    def test_retired_setting_is_a_config_error(self, setting, message, tmp_path, capsys):
        out = tmp_path / "split.csv"
        assert main(["split", "--set", setting, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error [split] {message}\n"
        assert not out.exists()

    def test_stage_tagged_failure(self, tiny_config_file, tmp_path, capsys):
        code = main(
            ["pipeline", "-c", tiny_config_file, "-o", str(tmp_path / "r.csv"),
             "--set", "split.unseen_fraction=0.9"]
        )
        assert code != 0
        assert "[split]" in capsys.readouterr().err

    def test_truncated_checkpoint_is_a_stage_tagged_error(self, tiny_config_file, tmp_path, capsys):
        c = tiny_config_file
        split, model = tmp_path / "split.csv", tmp_path / "model.ckpt"
        run_ok(["split", "-c", c, "-o", str(split)])
        run_ok(["augment", "-c", c, "--split", str(split), "-o", str(tmp_path / "aug.csv")])
        run_ok(["train-diffusion", "-c", c, "--data", str(tmp_path / "aug.csv"), "--split",
                str(split), "-o", str(model), "--trace", str(tmp_path / "trace.csv")])
        model.write_bytes(model.read_bytes()[:-5])
        capsys.readouterr()
        code = main(["generate", "-c", c, "--model", str(model), "--split", str(split),
                     "-o", str(tmp_path / "gen.csv")])
        assert code == 2
        assert "error [generate]" in capsys.readouterr().err
        assert not (tmp_path / "gen.csv").exists()

    def test_diverged_training_is_a_stage_tagged_error(self, tiny_config_file, tmp_path):
        # stderr is the error line alone: no numpy warning before it
        c = tiny_config_file
        split, aug = tmp_path / "split.csv", tmp_path / "aug.csv"
        model, trace = tmp_path / "model.ckpt", tmp_path / "trace.csv"
        run_ok(["split", "-c", c, "-o", str(split)])
        run_ok(["augment", "-c", c, "--split", str(split), "-o", str(aug)])
        proc = run_process(["train-diffusion", "-c", c, "--data", str(aug), "--split", str(split),
                            "-o", str(model), "--trace", str(trace),
                            "--set", "diffusion.learning_rate=1e300"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error [train-diffusion] training diverged")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not model.exists() and not trace.exists()

    def test_diverged_localizer_fit_is_a_stage_tagged_error(self, tiny_config_file, tmp_path):
        report = tmp_path / "r.csv"
        proc = run_process(["pipeline", "-c", tiny_config_file, "-o", str(report),
                            "--set", "localizer.variant=feedforward",
                            "--set", "localizer.learning_rate=1e300"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error [evaluate] feedforward localizer training diverged")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not report.exists()

    def test_one_seen_location_needs_an_explicit_sigma_w(self, tiny_config_file, tmp_path, capsys):
        # the automatic sigma_w is a nearest-neighbour distance, which one
        # seen location does not have
        data, split = tmp_path / "data.csv", tmp_path / "split.csv"
        model = tmp_path / "model.ckpt"
        data.write_text("AP001,AP002,X,Y\n-50,-60,0,0\n-52,100,0,0\n")
        split.write_text("x,y,role\n0.0,0.0,seen\n1.0,1.0,unseen\n")
        argv = ["train-diffusion", "-c", tiny_config_file, "--data", str(data), "--split",
                str(split), "-o", str(model), "--trace", str(tmp_path / "trace.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error [train-diffusion]")
        assert not model.exists()
        run_ok(argv + ["--set", "diffusion.sigma_w=1.0"])
        assert model.exists()

    @pytest.mark.parametrize("flag", ["--data", "-c", "--split", "--model", "data.file.path"])
    def test_missing_input_file_is_an_error_not_a_traceback(
        self, flag, tiny_config_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.file")
        c, out = tiny_config_file, str(tmp_path / "out")
        argv = {
            "--data": ["split", "-c", c, "--data", missing, "-o", out],
            "-c": ["split", "-c", missing, "-o", out],
            "--split": ["augment", "-c", c, "--split", missing, "-o", out],
            "--model": ["generate", "-c", c, "--model", missing, "--split", missing, "-o", out],
            "data.file.path": ["split", "-c", c, "--set", "data.source=file",
                               "--set", f"data.file.path={missing}", "-o", out],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{argv[0]}]")
        assert "missing.file" in err

    @pytest.mark.parametrize(
        "which, raw, where",
        [
            ("dataset", b"seed = 1\n\xff\xfe\n", None),
            ("config", b"seed = 1\n\xff\xfe\n", ""),
            ("split", b"x,y,role\n0,0,se\xffen\n", ""),
            ("dataset", b"AP001,AP\xe9,X,Y\n-50,100,0,0\n", "line 1: "),
            ("dataset", b"AP001,X,Y\n-50,0,0\n-50,1\xe9,0\n", "line 3: "),
        ],
        ids=["dataset", "config", "split", "dataset-header", "dataset-body"],
    )
    def test_non_utf8_input_is_an_error_not_a_traceback(
        self, which, raw, where, tiny_config_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.file"
        bad.write_bytes(raw)
        c = str(bad) if which == "config" else tiny_config_file
        command = "augment" if which == "split" else "split"
        argv = [command, "-c", c, "-o", str(tmp_path / "out")]
        if which == "dataset":
            argv += ["--data", str(bad)]
        if which == "split":
            argv += ["--split", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]")
        if where is not None:
            assert err == f"error [{command}] {bad}: {where}not valid UTF-8\n"

    def test_output_in_missing_directory_is_an_error_not_a_traceback(
        self, tiny_config_file, tmp_path, capsys
    ):
        out = tmp_path / "no_such_dir" / "data.csv"
        assert main(["synth-env", "-c", tiny_config_file, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [synth-env]")
        assert "no_such_dir" in err


class TestSeedFlag:
    def test_seed_changes_stochastic_outputs(self, tiny_config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(a)])
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(b), "--seed", "99"])
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("how", [["--seed", "-1"], ["--set", "seed=-1"]], ids=["flag", "set"])
    def test_negative_seed_is_a_config_error(self, how, tiny_config_file, tmp_path, capsys):
        argv = ["synth-env", "-c", tiny_config_file, "-o", str(tmp_path / "a.csv"), *how]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [synth-env]")
        assert "seed" in err
        assert not (tmp_path / "a.csv").exists()


class TestDeterminism:
    def test_all_subcommands_byte_identical(self, tiny_config_file, tmp_path):
        c = tiny_config_file

        def twice(build_argv, names):
            outs = []
            for tag in ("x", "y"):
                paths = {n: tmp_path / f"{tag}_{n}" for n in names}
                run_ok(build_argv(paths))
                outs.append({n: p.read_bytes() for n, p in paths.items()})
            assert outs[0] == outs[1]
            return {n: tmp_path / f"x_{n}" for n in names}

        twice(lambda p: ["synth-env", "-c", c, "-o", str(p["data.csv"])], ["data.csv"])
        split = twice(lambda p: ["split", "-c", c, "-o", str(p["split.csv"])], ["split.csv"])[
            "split.csv"
        ]
        aug = twice(
            lambda p: ["augment", "-c", c, "--split", str(split), "-o", str(p["aug.csv"])],
            ["aug.csv"],
        )["aug.csv"]
        trained = twice(
            lambda p: [
                "train-diffusion", "-c", c, "--data", str(aug), "--split", str(split),
                "-o", str(p["model.ckpt"]), "--trace", str(p["trace.csv"]),
            ],
            ["model.ckpt", "trace.csv"],
        )
        model = trained["model.ckpt"]
        gen = twice(
            lambda p: [
                "generate", "-c", c, "--model", str(model), "--split", str(split),
                "-o", str(p["gen.csv"]),
            ],
            ["gen.csv"],
        )["gen.csv"]
        twice(
            lambda p: [
                "evaluate", "-c", c, "--train", str(aug), "--train", str(gen),
                "-o", str(p["report.csv"]),
            ],
            ["report.csv"],
        )
        twice(lambda p: ["pipeline", "-c", c, "-o", str(p["pipe.csv"])], ["pipe.csv"])
        twice(
            lambda p: ["sweep", "-c", c, "--fractions", "0,0.2", "-o", str(p["sweep.csv"]),
                       "--set", "augmenter.kind=interpolator"],
            ["sweep.csv"],
        )

    @pytest.mark.skipif(
        usable_cpus() < 2,
        reason="OpenBLAS caps its threads at the CPU count, so one CPU runs both sides on one thread",
    )
    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        # at 100 APs a threaded BLAS would split the denoiser's products
        # differently; every network product runs on one thread, so the
        # model's bits do not depend on the core count
        common = ["--set", "synth.ap_count=100", "--set", "diffusion.epochs=2", "--seed", "0"]
        data, split, aug = tmp_path / "data.csv", tmp_path / "split.csv", tmp_path / "aug.csv"
        run_ok(["synth-env", *common, "-o", str(data)])
        run_ok(["split", *common, "--data", str(data), "-o", str(split)])
        run_ok(["augment", *common, "--data", str(data), "--split", str(split), "-o", str(aug)])
        checkpoints = []
        for threads in ("1", "2"):
            ckpt = tmp_path / f"model_{threads}.ckpt"
            run_process(
                ["train-diffusion", *common, "--data", str(aug), "--split", str(split),
                 "-o", str(ckpt), "--trace", str(tmp_path / "trace.csv")],
                OPENBLAS_NUM_THREADS=threads,
            ).check_returncode()
            checkpoints.append(ckpt.read_bytes())
        assert checkpoints[0] == checkpoints[1]


class TestComposition:
    @pytest.mark.parametrize("handoff", ["config-source", "data-file", "file-source"])
    def test_staged_equals_pipeline(self, handoff, tiny_config_file, tmp_path):
        # config-source: split and augment build the synthetic pool themselves;
        # data-file: they read synth-env's file via --data;
        # file-source: the config's source is that file (data.source=file)
        data = tmp_path / "data.csv"
        run_ok(["synth-env", "-c", tiny_config_file, "-o", str(data)])
        cfg = ["-c", tiny_config_file]
        if handoff == "file-source":
            cfg += ["--set", "data.source=file", "--set", f"data.file.path={data}",
                  "--set", "data.file.test_fraction=0.34"]
        pool = ["--data", str(data)] if handoff == "data-file" else []
        split = tmp_path / "split.csv"
        aug = tmp_path / "aug.csv"
        model = tmp_path / "model.ckpt"
        trace = tmp_path / "trace.csv"
        gen = tmp_path / "gen.csv"
        staged = tmp_path / "staged.csv"
        mono = tmp_path / "mono.csv"

        run_ok(["split", *cfg, *pool, "-o", str(split)])
        run_ok(["augment", *cfg, *pool, "--split", str(split), "-o", str(aug)])
        run_ok(
            ["train-diffusion", *cfg, "--data", str(aug), "--split", str(split),
             "-o", str(model), "--trace", str(trace)]
        )
        run_ok(["generate", *cfg, "--model", str(model), "--split", str(split), "-o", str(gen)])
        run_ok(["evaluate", *cfg, "--train", str(aug), "--train", str(gen), "-o", str(staged)])
        run_ok(["pipeline", *cfg, "-o", str(mono)])

        a = load_report(staged)
        b = load_report(mono)
        assert a.mean_error_m == pytest.approx(b.mean_error_m, abs=1e-6)
        assert a.median_error_m == pytest.approx(b.median_error_m, abs=1e-6)
        cdf_a, cdf_b = np.array(a.error_cdf), np.array(b.error_cdf)
        assert cdf_a.shape == cdf_b.shape
        assert np.allclose(cdf_a, cdf_b, atol=1e-6)
        # the pipeline canonicalizes through the file codec wherever the
        # staged run writes a file, so the staged run reproduces the
        # monolithic one exactly, not just within tolerance
        assert staged.read_bytes() == mono.read_bytes()

    def test_python_m_runs_the_cli(self, tiny_config_file, tmp_path):
        out = tmp_path / "split.csv"
        proc = run_process(["split", "-c", tiny_config_file, "-o", str(out)],
                           entry=("-m", "fpsynth.cli"))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("x,y,role\n")


def python_prints(code, **env) -> str:
    proc = run_process([], entry=("-c", code), **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_loads_no_numpy():
    assert python_prints("import sys, fpsynth\nprint('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(
    not nets._openblas_threads() or usable_cpus() < 2,
    reason="needs numpy's OpenBLAS thread API and two CPUs, under which OpenBLAS starts one thread",
)
class TestCliThreading:
    # a fresh interpreter, so numpy loads after whatever the import under test did
    THREADS_AFTER_CLI_IMPORT = (
        "import fpsynth.cli\nfrom fpsynth import nets\nprint(nets._openblas_threads()[0]())"
    )

    def test_cli_starts_openblas_with_one_thread(self):
        assert python_prints(self.THREADS_AFTER_CLI_IMPORT, OPENBLAS_NUM_THREADS=None) == "1"

    def test_a_set_thread_count_wins(self):
        assert python_prints(self.THREADS_AFTER_CLI_IMPORT, OPENBLAS_NUM_THREADS="2") == "2"


SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


class TestScripts:
    @pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
    def test_help_exits_zero(self, script):
        # no test imports the scripts, so this is what notices a renamed import
        proc = run_process(["--help"], entry=(str(script),))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")

    def test_compare_augmenters_writes_each_arms_pipeline_report(self, tiny_config_file, tmp_path):
        argv = ["-c", tiny_config_file, "--seed", "5", "--outdir", str(tmp_path / "reports")]
        proc = run_process(argv, entry=(str(SCRIPT_DIR / "compare_augmenters.py"),))
        assert proc.returncode == 0, proc.stderr
        for arm in ("diffusion", "interpolator", "none"):
            want = tmp_path / f"{arm}.csv"
            run_ok(["pipeline", "-c", tiny_config_file, "--set", f"augmenter.kind={arm}",
                    "-o", str(want)])
            assert (tmp_path / "reports" / f"report_{arm}.csv").read_bytes() == want.read_bytes()

    def test_overhead_tradeoff_writes_the_sweeps_rows(self, tiny_config_file, tmp_path):
        out = tmp_path / "tradeoff.csv"
        argv = ["-c", tiny_config_file, "--fractions", "0,0.4", "--seeds", "2", "-o", str(out)]
        proc = run_process(argv, entry=(str(SCRIPT_DIR / "overhead_tradeoff.py"),))
        assert proc.returncode == 0, proc.stderr
        sweeps = []  # per seed: one row per fraction
        for seed in (0, 1):
            path = tmp_path / f"sweep_{seed}.csv"
            run_ok(["sweep", "-c", tiny_config_file, "--seed", str(seed),
                    "--fractions", "0,0.4", "-o", str(path)])
            sweeps.append([row.split(",") for row in path.read_text().splitlines()[1:]])
        header, *rows = out.read_text().splitlines()
        assert header == (
            "unseen_fraction,n_seen,collection_overhead_min,mean_error_m_median,"
            "mean_error_m_per_seed"
        )
        assert len(rows) == 2
        for i, row in enumerate(rows):
            fraction, n_seen, _, overhead, _, _ = sweeps[0][i]
            errors = [float(sweep[i][4]) for sweep in sweeps]
            per_seed = ";".join(f"{e:.4f}" for e in errors)
            assert row == f"{fraction},{n_seen},{overhead},{float(np.median(errors))!r},{per_seed}"
