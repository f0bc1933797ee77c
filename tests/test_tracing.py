"""The benchmark's tracer contract.

`perfbench/tracing.py` patches fpsynth functions and methods by name for the
benchmark's traced runs. A rename or a move in `src/` that breaks one of those
names, or a tracer that leaves a patch behind or changes a result, shows here.
"""

import importlib.util
from pathlib import Path

import fpsynth.pipeline as pipeline
from conftest import TINY_CONFIG
from fpsynth import cli, diffusion
from fpsynth.config import build_experiment_config, parse_flat_config
from fpsynth.localizer import FeedforwardLocalizer, KnnLocalizer, save_report
from fpsynth.nets import AdamOptimizer, DenoiserNetwork, Mlp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> list[dict]:
    """Copies of every namespace the tracer may patch."""
    owners = (cli, diffusion, pipeline, DenoiserNetwork, Mlp, AdamOptimizer, KnnLocalizer,
              FeedforwardLocalizer)
    return [dict(vars(owner)) for owner in owners] + [dict(cli._COMMANDS)]


def _report_bytes(cfg, path) -> bytes:
    save_report(pipeline.run_experiment(cfg).report, path)
    return path.read_bytes()


def test_traced_run_restores_every_patch_and_changes_no_byte(tmp_path):
    cfg = build_experiment_config({**parse_flat_config(TINY_CONFIG), "diffusion.epochs": "1"})
    untraced = _report_bytes(cfg, tmp_path / "untraced.csv")
    before, original = _namespaces(), pipeline.run_experiment

    tracer = _tracing_module().Tracer(run="contract")
    try:  # an install that fails part way still restores what it patched
        tracer.install()
        assert pipeline.run_experiment is not original
        traced = _report_bytes(cfg, tmp_path / "traced.csv")
    finally:
        tracer.uninstall()

    after = _namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
    names = {span["name"] for span in tracer.spans}
    assert {
        "nets.DenoiserNetwork.forward_cached",
        "nets.AdamOptimizer.step",
        "diffusion.train",
    } <= names
    assert traced == untraced
