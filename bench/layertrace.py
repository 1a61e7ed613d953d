"""Outside-in per-layer tracing for the cellgraph benchmark.

The tracer replaces public functions with timing wrappers in every loaded
``cellgraph`` module that binds them, so callers that look a name up at call
time (module globals) reach the wrapper while the program itself runs
unmodified. Spans stay in memory; self time is a span's duration minus the
time its child spans cover. ``process_time`` is process-wide, so a CPU/wall
ratio near the core count shows where BLAS already uses every core.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


class TraceError(Exception):
    """A traced public name no longer exists in the program."""


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    self_cpu_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


@dataclass(frozen=True)
class Target:
    """One public function to wrap, recorded under ``layer``.

    ``count(stats, result)`` adds work counts taken from the returned object.
    An opaque span records no child spans: nested traced calls are charged to
    it, for example the per-sample kNN calls inside the spatial graph build.
    """

    layer: str
    module: str
    attr: str
    count: object = None
    opaque: bool = False


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_edges(stats, graph):
    stats.counts["edges"] += graph.n_edges


def _count_epochs(stats, model):
    stats.counts["epochs"] += len(model.history)


def _count_tsne_iters(stats, emb):
    stats.counts["iters"] += len(emb.diagnostics["kl_curve"])


TARGETS = (
    Target("synth.generate", "synth", "generate_synthetic_dataset"),
    Target("dataset.save", "dataset", "save_dataset"),
    Target("dataset.load", "dataset", "load_dataset"),
    Target("dataset.read_csv", "dataset", "read_feature_csv"),
    Target("dataset.write_csv", "dataset", "write_feature_csv"),
    Target("expression.profile", "expression", "expression_profile"),
    Target("radiomics.table", "radiomics", "radiomic_feature_table"),
    Target("radiomics.glrlm", "radiomics", "glrlm"),
    Target("radiomics.glrlm_features", "radiomics", "glrlm_features"),
    Target("radiomics.glcm", "radiomics", "glcm"),
    Target("radiomics.glcm_features", "radiomics", "glcm_features"),
    Target("radiomics.first_order", "radiomics", "first_order_features"),
    Target("radiomics.shape", "radiomics", "shape_features"),
    Target("radiomics.quantize", "radiomics", "quantize"),
    Target("dimred.pca", "dimred", "pca"),
    Target("dimred.tsne", "dimred", "tsne", count=_count_tsne_iters),
    Target("dimred.umap", "dimred", "umap"),
    Target("graphs.knn_feature", "graphs", "knn_feature_graph", count=_count_edges),
    Target("graphs.knn_spatial", "graphs", "spatial_knn_graph", count=_count_edges, opaque=True),
    Target("graphs.normalize", "graphs", "normalize_adjacency"),
    Target("graphs.edge_io", "graphs", "write_edge_list"),
    Target("graphs.edge_io", "graphs", "read_edge_list"),
    Target("grand.train", "grand", "train_grand", count=_count_epochs),
    Target("grand.predict", "grand", "predict_grand"),
    Target("grand.checkpoint_io", "grand", "save_checkpoint"),
    Target("grand.checkpoint_io", "grand", "load_checkpoint"),
    Target("grand.checkpoint_io", "grand", "save_history_csv"),
    Target("trees.gb_train", "trees", "train_gradient_boosting"),
    Target("trees.rf_train", "trees", "train_random_forest"),
    Target("trees.predict", "trees", "predict_tabular"),
    Target("trees.model_io", "trees", "save_model"),
    Target("trees.model_io", "trees", "load_model"),
    Target("harness.standardize", "harness", "standardize_features"),
    Target("harness.split", "harness", "stratified_split"),
    Target("harness.split", "harness", "case_stratified_split"),
    Target("harness.metrics", "harness", "compute_metrics"),
    Target("experiment.run", "experiment", "run_experiment"),
)


class Tracer:
    """Collects spans in memory while wrappers are installed.

    Single-threaded by design: traced runs use ``threads=1``.
    """

    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self.spans = []  # (name, depth, start s, end s), in completion order
        self._stack = []  # open frames: [name, child wall, child cpu]
        self._opaque = 0
        self._installed = []  # (module, attr, original) to restore
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        if self._opaque:
            yield self.stats[name]
            return
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        self._opaque += opaque
        rss0 = maxrss_mb()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield self.stats[name]
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            self._opaque -= opaque
            self._stack.pop()
            dw, dc = w1 - w0, c1 - c0
            st = self.stats[name]
            st.calls += 1
            st.self_s += dw - frame[1]
            st.self_cpu_s += dc - frame[2]
            growth = maxrss_mb() - rss0
            st.counts["rss_growth_mb"] = max(st.counts["rss_growth_mb"], growth)
            if self._stack:
                self._stack[-1][1] += dw
                self._stack[-1][2] += dc
            self.spans.append((name, len(self._stack), w0 - self._t0, w1 - self._t0))

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raise TraceError if a public name is gone."""
        for target in targets:
            module = importlib.import_module(f"cellgraph.{target.module}")
            original = getattr(module, target.attr, None)
            if original is None or not callable(original):
                raise TraceError(
                    f"cellgraph.{target.module}.{target.attr} no longer exists; "
                    f"update the benchmark's trace targets"
                )
            wrapper = self._wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "cellgraph" or mod_name.startswith("cellgraph.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(target.layer, opaque=target.opaque) as stats:
                result = fn(*args, **kwargs)
            if target.count is not None and not tracer._opaque:
                target.count(stats, result)
            return result

        return wrapper
