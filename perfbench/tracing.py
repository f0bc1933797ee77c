"""In-memory span tracing for the benchmark's traced runs.

`Tracer.install()` replaces fpsynth functions and methods with timing
wrappers at the names their callers look up:

* every function bound in the `fpsynth.pipeline` and `fpsynth.cli`
  namespaces, including the ones they import from other modules, and the
  subcommand table `fpsynth.cli._COMMANDS`;
* `fpsynth.diffusion.sample`, looked up by `generate_unseen_map`;
* the hot methods `DenoiserNetwork.forward_cached/backward`,
  `Mlp.forward_cached/backward`, `AdamOptimizer.step` and the localizers'
  `predict`.

A span is (id, name, start, end, parent, run) plus a few counts taken from
the call's arguments or result. Times are `time.monotonic()`, which is one
clock for all processes on the machine, so spans written by the staged CLI
processes line up with the spans of the benchmark process. No file under
`src/` is changed and nothing is written until `dump()`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import types
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _layer_products(shapes) -> tuple[int, int]:
    """(sum of out*in over all layers, the same without the first layer)."""
    prods = [o * i for o, i in shapes]
    return sum(prods), sum(prods[1:])


def _net_shapes(net):
    if hasattr(net, "arch"):
        return net.arch.layer_shapes
    dims = net.dims
    return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


# Counts recorded per span, computed from (args, kwargs, result). GEMM flops
# and kNN bytes are computed from shapes, not measured.
def _forward_counts(args, kwargs, result):
    rows = len(_arg(args, kwargs, 1, "x"))
    total, _ = _layer_products(_net_shapes(args[0]))
    return {"rows": rows, "flops": 2 * rows * total}


def _backward_counts(args, kwargs, result):
    rows = len(_arg(args, kwargs, 2, "dout"))
    total, inner = _layer_products(_net_shapes(args[0]))
    # weight gradients for every layer, input gradients for all but the first
    return {"rows": rows, "flops": 2 * rows * (total + inner)}


def _knn_counts(args, kwargs, result):
    return {"bytes": int(args[0].rss.size) * 8}


def _len_result(args, kwargs, result):
    return {"rows": len(result)}


def _split_counts(args, kwargs, result):
    return {"locations": len(result.seen) + len(result.unseen)}


def _file_size(index, name):
    def counts(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return counts


_COUNTS = {
    "nets.DenoiserNetwork.forward_cached": _forward_counts,
    "nets.DenoiserNetwork.backward": _backward_counts,
    "nets.Mlp.forward_cached": _forward_counts,
    "nets.Mlp.backward": _backward_counts,
    "localizer.KnnLocalizer.predict": _knn_counts,
    "dataset.load_dataset": _len_result,
    "dataset.save_dataset": _file_size(1, "path"),
    "diffusion.save_checkpoint": _file_size(2, "path"),
    "synthesizer.augment_seen": _len_result,
    "pipeline.compute_split": _split_counts,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('fpsynth.')}.{fn.__qualname__}"


class Tracer:
    """Records spans in memory; `install()` patches fpsynth, `uninstall()` restores it."""

    def __init__(self, run: str, root_parent: str | None = None):
        self.run = run
        self.root_parent = root_parent
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the span record."""
        rec = {
            "id": f"{self.run}/{len(self.spans)}",
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": self._stack[-1] if self._stack else self.root_parent,
            "run": self.run,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def wrap(self, name: str, fn):
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec.update(counts(args, kwargs, result))
                return result

        return traced

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        import fpsynth.cli as cli
        import fpsynth.diffusion as diffusion
        import fpsynth.pipeline as pipeline
        from fpsynth.localizer import FeedforwardLocalizer, KnnLocalizer
        from fpsynth.nets import AdamOptimizer, DenoiserNetwork, Mlp

        wrapped: dict[object, object] = {}
        for key, fn in cli._COMMANDS.items():
            wrapped[fn] = self.wrap(f"cli.{key}", fn)
            self._patch(cli._COMMANDS, key, wrapped[fn])
        for mod in (pipeline, cli):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("fpsynth."):
                    if obj not in wrapped:
                        wrapped[obj] = self.wrap(_span_name(obj), obj)
                    self._patch(mod, attr, wrapped[obj])
        self._patch(diffusion, "sample", self.wrap("diffusion.sample", diffusion.sample))
        for cls, method in (
            (DenoiserNetwork, "forward_cached"),
            (DenoiserNetwork, "backward"),
            (Mlp, "forward_cached"),
            (Mlp, "backward"),
            (AdamOptimizer, "step"),
            (KnnLocalizer, "predict"),
            (FeedforwardLocalizer, "predict"),
        ):
            fn = vars(cls)[method]
            self._patch(cls, method, self.wrap(_span_name(fn), fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the durations of direct children."""
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


STAGES = ("synth-env", "split", "augment", "train-diffusion", "generate", "evaluate")


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced experiment run, as name -> (value, unit)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def secs(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def total(key, *names):
        return sum(s.get(key, 0) for n in names for s in by_name.get(n, ()))

    fwd, bwd = "nets.DenoiserNetwork.forward_cached", "nets.DenoiserNetwork.backward"
    mlp_fwd, mlp_bwd = "nets.Mlp.forward_cached", "nets.Mlp.backward"
    predicts = ("localizer.KnnLocalizer.predict", "localizer.FeedforwardLocalizer.predict")
    fwd_calls, fwd_rows = calls(fwd), total("rows", fwd)
    train_s, train_steps = secs("diffusion.train"), calls(bwd)
    query_s = [s["end"] - s["start"] for n in predicts for s in by_name.get(n, ())]
    m = {
        "nets.denoiser_forward_calls": (fwd_calls, "count"),
        "nets.denoiser_forward_rows": (fwd_rows, "count"),
        "nets.denoiser_rows_per_call": (fwd_rows / fwd_calls if fwd_calls else 0.0, "rows"),
        "nets.denoiser_forward_s": (secs(fwd), "s"),
        "nets.denoiser_backward_s": (secs(bwd), "s"),
        "nets.adam_steps": (calls("nets.AdamOptimizer.step"), "count"),
        "nets.adam_s": (secs("nets.AdamOptimizer.step"), "s"),
        "nets.gemm_flops": (total("flops", fwd, bwd, mlp_fwd, mlp_bwd), "computed_flop"),
        "nets.mlp_steps": (calls(mlp_bwd), "count"),
        "nets.mlp_forward_s": (secs(mlp_fwd), "s"),
        "nets.mlp_backward_s": (secs(mlp_bwd), "s"),
        "diffusion.train_s": (train_s, "s"),
        "diffusion.train_steps": (train_steps, "count"),
        "diffusion.step_ms": (1e3 * train_s / train_steps if train_steps else 0.0, "ms"),
        "diffusion.generate_s": (secs("diffusion.generate_unseen_map"), "s"),
        "diffusion.sample_calls": (calls("diffusion.sample"), "count"),
        "diffusion.checkpoint_s": (
            secs("diffusion.save_checkpoint", "diffusion.load_checkpoint"),
            "s",
        ),
        "diffusion.checkpoint_bytes": (total("bytes", "diffusion.save_checkpoint"), "B"),
        "localizer.fit_s": (secs("localizer.fit_localizer"), "s"),
        "localizer.queries": (len(query_s), "count"),
        "localizer.predict_s": (sum(query_s), "s"),
        "localizer.query_us_p50": (1e6 * statistics.median(query_s) if query_s else 0.0, "us"),
        "localizer.knn_bytes_scanned": (total("bytes", predicts[0]), "computed_B"),
        "baselines.interpolate_calls": (calls("baselines.knn_spatial_interpolate"), "count"),
        "baselines.interpolate_s": (secs("baselines.knn_spatial_interpolate"), "s"),
        "dataset.build_s": (secs("pipeline.build_data"), "s"),
        "dataset.load_s": (secs("dataset.load_dataset"), "s"),
        "dataset.load_rows": (total("rows", "dataset.load_dataset"), "count"),
        "dataset.save_s": (secs("dataset.save_dataset"), "s"),
        "dataset.save_bytes": (total("bytes", "dataset.save_dataset"), "B"),
        "dataset.canonicalize_s": (secs("dataset.canonicalize_dataset"), "s"),
        "dataset.merge_s": (secs("dataset.merge_datasets"), "s"),
        "initializer.split_s": (secs("pipeline.compute_split"), "s"),
        "initializer.locations": (total("locations", "pipeline.compute_split"), "count"),
        "synthesizer.augment_s": (secs("synthesizer.augment_seen"), "s"),
        "synthesizer.rows_out": (total("rows", "synthesizer.augment_seen"), "count"),
        "config.resolve_s": (secs("config.resolve_config"), "s"),
    }
    for stage in STAGES:
        m[f"cli.{stage}_s"] = (secs(f"cli.{stage}"), "s")
    return m
