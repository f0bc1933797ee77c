"""End-to-end runs on a world where many APs go undetected.

The default synthetic world detects every AP at every location, so the zero
entries and the (0, detect_floor) gap never reach the later stages there.
Raising the detection threshold to -55 dBm leaves about half the readings
undetected.
"""

import numpy as np
import pytest

import fpsynth.pipeline as pipeline
from conftest import TINY_CONFIG
from fpsynth.cli import main
from fpsynth.config import resolve_config


@pytest.fixture
def sparse_config_file(tmp_path):
    path = tmp_path / "sparse.cfg"
    path.write_text(TINY_CONFIG + "synth.detection_threshold_dbm = -55\n")
    return str(path)


def _in_codomain(ds) -> bool:
    v = ds.rss
    f = ds.norm_params.detect_floor
    return bool(np.all((v == 0.0) | ((v >= f) & (v <= 1.0))))


def test_detection_rate_is_partial(sparse_config_file):
    train_pool, test_set = pipeline.build_data(resolve_config(sparse_config_file))
    for ds in (train_pool, test_set):
        rate = float(np.mean(ds.rss > 0.0))
        assert 0.3 <= rate <= 0.8


@pytest.mark.parametrize("augmenter", ["interpolator", "diffusion"])
def test_every_stage_keeps_the_codomain(sparse_config_file, monkeypatch, augmenter):
    datasets = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            datasets.setdefault(name, []).extend(out if isinstance(out, tuple) else [out])
            return out

        monkeypatch.setattr(pipeline, name, wrapped)

    for name in ("build_data", "augment_seen", "canonicalize_dataset", "generate_unseen_map",
                 "_interpolated_map", "merge_datasets"):
        spy(name, getattr(pipeline, name))
    cfg = resolve_config(sparse_config_file, [f"augmenter.kind={augmenter}"])
    result = pipeline.run_experiment(cfg)
    assert np.isfinite(result.report.mean_error_m)

    generator = "generate_unseen_map" if augmenter == "diffusion" else "_interpolated_map"
    for name in ("build_data", "augment_seen", "canonicalize_dataset", generator, "merge_datasets"):
        assert datasets[name], name
        for ds in datasets[name]:
            assert _in_codomain(ds), name
    merged = datasets["merge_datasets"][0].rss
    assert 0.0 < float(np.mean(merged > 0.0)) < 1.0

    # replicas follow their originals, grouped per source; none revives a zero
    (aug,) = datasets["augment_seen"]
    r = cfg.augment.replicas_per_sample
    n = len(aug) // (1 + r)
    rss = aug.rss
    originals, replicas = rss[:n], rss[n:].reshape(n, r, -1)
    assert np.any(originals == 0.0)
    assert np.all(replicas[np.broadcast_to(originals[:, None, :] == 0.0, replicas.shape)] == 0.0)


def test_staged_equals_pipeline(sparse_config_file, tmp_path):
    c = sparse_config_file
    split, aug, model = tmp_path / "split.csv", tmp_path / "aug.csv", tmp_path / "model.ckpt"
    gen, staged, mono = tmp_path / "gen.csv", tmp_path / "staged.csv", tmp_path / "mono.csv"
    for argv in (
        ["split", "-c", c, "-o", str(split)],
        ["augment", "-c", c, "--split", str(split), "-o", str(aug)],
        ["train-diffusion", "-c", c, "--data", str(aug), "--split", str(split), "-o", str(model),
         "--trace", str(tmp_path / "trace.csv")],
        ["generate", "-c", c, "--model", str(model), "--split", str(split), "-o", str(gen)],
        ["evaluate", "-c", c, "--train", str(aug), "--train", str(gen), "-o", str(staged)],
        ["pipeline", "-c", c, "-o", str(mono)],
    ):
        assert main(argv) == 0
    assert staged.read_bytes() == mono.read_bytes()
