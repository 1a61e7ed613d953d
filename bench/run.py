"""Cellgraph benchmark: run one workload end to end, check it, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
A run repeats, closed-loop and one job at a time, a set-up of the
workload's dataset followed by the timed body at ``threads=1`` and at
``threads=nproc``, until ``--seconds`` are used, and reports medians. With
``--trace 1`` it runs the body once more with every layer's public functions
wrapped from outside (see ``layertrace.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``. Inputs, outputs and run records stay
under ``.bench_work/`` and ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import TARGETS, Tracer, TraceError, maxrss_mb
from workloads import WORKLOADS, derive_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Relative on purpose: report.json embeds the data directory, so a fixed
# relative path keeps report bytes comparable across checkouts.
WORK = Path(".bench_work")
OUT = Path(".bench_out")
NPROC = os.cpu_count() or 1  # the CLI's default experiment thread count
# Timings are scaled to a machine on which reference_s() takes this long. On
# a shared host the speed of the same job drifts by a quarter over tens of
# minutes; the reference kernel, measured before every job of the same run,
# drifts with it, so the scaled medians stay steadier across runs. The
# unscaled medians are printed and kept in the run record.
REFERENCE_S = 0.07
CLI_STAGES = ("extract", "reduce", "graph", "train", "evaluate", "baseline", "experiment", "report")
TRACED_LAYERS = {t.layer for t in TARGETS} | {f"cli.{stage}" for stage in CLI_STAGES}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad spec)."""


@dataclass
class Job:
    """One execution of a workload's timed body."""

    threads: int
    wall_s: float
    report: bytes
    attempted: int
    errors: list
    out_dir: Path


@dataclass
class RunState:
    reference_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def import_program():
    src = ROOT / "src"
    if not (src / "cellgraph" / "__init__.py").is_file():
        raise BenchError(f"program source not found: {src / 'cellgraph'}")
    sys.path.insert(0, str(src))
    import cellgraph

    if Path(cellgraph.__file__).resolve().parent != (src / "cellgraph").resolve():
        raise BenchError(f"imported cellgraph from {cellgraph.__file__}, not from {src}")
    import cellgraph.cli  # noqa: F401 - load every module before tracing patches them


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy; recorded, never changed."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "machine": platform.machine(),
        "src_lines": src_lines(),
    }


def reference_s() -> float:
    """Time a fixed mix of interpreter and numpy work that no program change touches."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    counts = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    a = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    for _ in range(120):
        a = np.tanh(a @ a.T * 1e-2) + np.sort(a, axis=1) * 1e-3
    return time.perf_counter() - t0


class Bench:
    def __init__(self, workload, seed: int, tracer=None):
        from cellgraph import cli, dataset, experiment, synth

        self.wl = workload
        self.cli, self.dataset, self.experiment, self.synth = cli, dataset, experiment, synth
        self.synth_seed = derive_seed(seed, "synth")
        self.exp_seed = derive_seed(seed, "experiment")
        self.base = WORK / workload.name
        self.data_dir = self.base / "data"
        self.tracer = tracer
        self.state = RunState()

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    # -- set-up: generate and save the dataset the jobs read ---------------

    def setup(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        config = self.synth.SynthConfig(**self.wl.synth, seed=self.synth_seed)
        t0 = time.perf_counter()
        data, _ = self.synth.generate_synthetic_dataset(config)
        self.dataset.save_dataset(data, str(self.data_dir))
        self.state.setup_s.append(time.perf_counter() - t0)
        config_dir = self.base / "config"
        config_dir.mkdir(parents=True, exist_ok=True)
        for stage, raw in self.wl.stage_configs.items():
            (config_dir / f"{stage}.json").write_text(json.dumps(raw))
        (config_dir / "experiment.json").write_text(json.dumps(self.wl.experiment))

    # -- timed bodies -------------------------------------------------------

    def job(self, threads: int) -> Job:
        self.state.reference_s.append(reference_s())
        if self.wl.kind == "cli_chain":
            job = self._cli_chain(threads)
        else:
            job = self._experiment(threads)
        self.state.jobs.append(job)
        return job

    def _experiment(self, threads: int) -> Job:
        out = self.base / f"out_t{threads}"
        shutil.rmtree(out, ignore_errors=True)
        config = self.experiment.ExperimentConfig.from_dict(
            {**self.wl.experiment, "data_dir": str(self.data_dir), "seed": self.exp_seed, "threads": threads}
        )
        t0 = time.perf_counter()
        report = self.experiment.run_experiment(config, str(out))
        wall = time.perf_counter() - t0
        failed = [f"{k}: {c.get('reason')}" for k, c in sorted(report.cells.items()) if c["status"] != "ok"]
        return Job(threads, wall, (out / "report.json").read_bytes(), len(report.cells), failed, out)

    def _cli_chain(self, threads: int) -> Job:
        w = self.base / f"chain_t{threads}"
        shutil.rmtree(w, ignore_errors=True)
        w.mkdir(parents=True)
        cfg = self.base / "config"
        seed = ["--seed", str(self.exp_seed)]
        # README order; `experiment` without --threads uses every core, as users run it.
        experiment = seed + ["--config", str(cfg / "experiment.json"), "experiment", "--data", str(self.data_dir),
                             "--out", str(w / "results")]
        if threads == 1:
            experiment += ["--threads", "1"]
        stages = [
            ("extract", ["--config", str(cfg / "extract.json"), "extract", "--data", str(self.data_dir),
                         "--features", "radiomics", "--out", str(w / "radiomics.csv")]),
            ("extract", ["extract", "--data", str(self.data_dir), "--features", "expression", "--out", str(w / "expression.csv")]),
            ("reduce", seed + ["reduce", "--method", "umap", "--dim", "16", "--in", str(w / "radiomics.csv"),
                               "--out", str(w / "embedding.csv")]),
            ("graph", ["graph", "--features", str(w / "embedding.csv"), "--kind", "feature", "--k", "5",
                       "--out", str(w / "feature.edges")]),
            ("graph", ["graph", "--features", str(w / "embedding.csv"), "--kind", "spatial", "--k", "5",
                       "--out", str(w / "spatial.edges")]),
            ("train", seed + ["--config", str(cfg / "train.json"), "train", "--graph", str(w / "feature.edges"),
                              "--features", str(w / "embedding.csv"), "--labels", str(w / "radiomics.csv"),
                              "--out", str(w / "grand.ckpt"), "--history", str(w / "history.csv")]),
            ("evaluate", ["evaluate", "--model", str(w / "grand.ckpt"), "--graph", str(w / "feature.edges"),
                          "--features", str(w / "embedding.csv"), "--labels", str(w / "radiomics.csv"),
                          "--predictions", str(w / "grand_predictions.csv"), "--out", str(w / "grand_metrics.json")]),
            ("baseline", seed + ["--config", str(cfg / "baseline.json"), "baseline", "--model", "random_forest",
                                 "--features", str(w / "radiomics.csv"), "--labels", str(w / "radiomics.csv"),
                                 "--out", str(w / "forest.bin")]),
            ("evaluate", ["evaluate", "--model", str(w / "forest.bin"), "--features", str(w / "radiomics.csv"),
                          "--labels", str(w / "radiomics.csv"), "--out", str(w / "forest_metrics.json")]),
            ("experiment", experiment),
            ("report", ["report", "--report", str(w / "results" / "report.json"), "--out", str(w / "charts")]),
        ]
        errors = []
        t0 = time.perf_counter()
        for name, argv in stages:
            err = io.StringIO()
            with self._span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            if code != 0:
                errors.append(f"{name} exited {code}: {err.getvalue().strip()}")
        wall = time.perf_counter() - t0
        report_path = w / "results" / "report.json"
        report = report_path.read_bytes() if report_path.is_file() else b""
        return Job(threads, wall, report, len(stages), errors, w)


# -- checks and metrics -----------------------------------------------------


def quality(report: bytes, problems: list) -> dict:
    """Quality metrics of one report.json; adds a problem for every failed check."""
    cells = json.loads(report)["cells"] if report else {}
    if not cells:
        problems.append("report has no grid cells")
        return {}
    f1s, aucs, by_model = [], [], {}
    for key, cell in sorted(cells.items()):
        if cell["status"] != "ok":
            problems.append(f"cell {key} is {cell['status']}: {cell.get('reason')}")
            continue
        f1, auc = cell["metrics"]["f1"], cell["metrics"]["roc_auc"]
        for name, value in (("f1", f1), ("roc_auc", auc)):
            if value is None or not 0.0 <= value <= 1.0:
                problems.append(f"cell {key}: {name} = {value} is not in [0, 1]")
        f1s.append(f1)
        aucs.append(auc if auc is not None else 0.0)
        by_model.setdefault(key.split("|")[2], []).append(f1)
    if not f1s:
        return {}
    return {
        "experiment.f1_mean": statistics.fmean(f1s),
        # worst model family, averaged over its feature x reduction cells
        "experiment.f1_min_model": min(statistics.fmean(v) for v in by_model.values()),
        "experiment.f1_min_cell": min(f1s),
        "experiment.auc_mean": statistics.fmean(aucs),
        "experiment.saturated_cells": float(sum(1 for f in f1s if f == 1.0)),
    }


def check_jobs(state: RunState) -> None:
    reports = {job.report for job in state.jobs}
    if len(reports) > 1:
        threads = sorted({job.threads for job in state.jobs})
        state.problems.append(f"report.json differs between jobs (threads {threads})")
    for job in state.jobs:
        state.problems.extend(job.errors)


def end_to_end(state: RunState) -> tuple:
    """(metric values, samples) for the gated metrics of an untraced run."""
    walls1 = [j.wall_s for j in state.jobs if j.threads == 1]
    wallsn = [j.wall_s for j in state.jobs if j.threads == NPROC]
    samples = {"setup_s": state.setup_s, "wall_s": walls1, "wall_s_parallel": wallsn}
    scale = REFERENCE_S / statistics.median(state.reference_s)
    values = {name: statistics.median(v) * scale for name, v in samples.items()}
    values.update({f"unscaled.{name}": statistics.median(v) for name, v in samples.items()})
    values["bench.reference_ms"] = 1000.0 * statistics.median(state.reference_s)
    values["peak_rss_mb"] = maxrss_mb()
    values.update(quality(state.jobs[0].report, state.problems))
    return values, samples


def per_layer(tracer, traced: Job, plain1: Job, plainn: Job, state: RunState) -> dict:
    values = {}
    for layer, st in tracer.stats.items():
        values[f"{layer}.self_s"] = st.self_s
        values[f"{layer}.calls"] = float(st.calls)
        values[f"{layer}.cpu_s"] = st.self_cpu_s
    stats = tracer.stats
    tsne, umap, train = stats["dimred.tsne"], stats["dimred.umap"], stats["grand.train"]
    values["dimred.tsne.iter_ms"] = 1000.0 * tsne.self_s / tsne.counts["iters"] if tsne.counts["iters"] else 0.0
    values["dimred.umap.rss_growth_mb"] = umap.counts["rss_growth_mb"]
    values["graphs.edges"] = stats["graphs.knn_feature"].counts["edges"] + stats["graphs.knn_spatial"].counts["edges"]
    values["grand.epochs"] = train.counts["epochs"]
    values["grand.epoch_ms"] = 1000.0 * train.self_s / train.counts["epochs"] if train.counts["epochs"] else 0.0
    values["dataset.bytes_written"] = float(dir_bytes(traced.out_dir))
    values["experiment.unattributed_s"] = stats["experiment.run"].self_s
    values["experiment.parallel_speedup"] = plain1.wall_s / plainn.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain1.wall_s
    values["src.lines"] = float(src_lines())
    values["bench.reference_ms"] = 1000.0 * statistics.median(state.reference_s)
    values.update(quality(traced.report, state.problems))
    return values


def select(declared: list, values: dict) -> dict:
    """Exactly the declared metrics; a layer never called reads 0, a typo fails."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        else:
            layer, _, stat = name.rpartition(".")
            if layer not in TRACED_LAYERS or stat not in ("self_s", "calls", "cpu_s"):
                raise BenchError(f"metric {name} is declared but never produced")
            value = 0.0
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    if not trace:
        bench = Bench(workload, seed)
        t_start = time.perf_counter()
        while True:
            t_iter = time.perf_counter()
            # set up before every pair, so setup_s samples the whole window
            bench.setup()
            bench.job(1)
            bench.job(NPROC)
            # start another pair only if it is likely to end inside the window
            if time.perf_counter() - t_start + (time.perf_counter() - t_iter) > seconds:
                break
        check_jobs(bench.state)
        values, samples = end_to_end(bench.state)
        return bench.state, select(spec["end_to_end"], values), samples, values, None

    tracer = Tracer()
    bench = Bench(workload, seed, tracer=tracer)
    tracer.install()
    try:
        with tracer.span("setup"):
            bench.setup()
        traced = bench.job(1)
    finally:
        tracer.uninstall()
    bench.tracer = None
    plain1 = bench.job(1)
    plainn = bench.job(NPROC)
    check_jobs(bench.state)
    values = per_layer(tracer, traced, plain1, plainn, bench.state)
    samples = {"wall_s": [plain1.wall_s], "wall_s_parallel": [plainn.wall_s], "wall_s_traced": [traced.wall_s]}
    return bench.state, select(spec["per_layer"], values), samples, values, tracer


def print_report(workload, args, env, metrics, samples, values, state, sha, tracer) -> None:
    attempted = sum(j.attempted for j in state.jobs)
    failed = sum(len(j.errors) for j in state.jobs)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']} "
          f"({env['blas_threads']} threads)  nproc {env['nproc']}  src lines {env['src_lines']}")
    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'max':>12s} {'n':>3s} {'unscaled median':>16s}")
    for name, m in metrics.items():
        if name in samples and tracer is None:
            v, scale = samples[name], m["value"] / statistics.median(samples[name])
            print(f"{name:34s} {m['unit']:6s} {m['value']:12.4f} {max(v) * scale:12.4f} {len(v):3d} "
                  f"{statistics.median(v):16.4f}")
        else:
            print(f"{name:34s} {m['unit']:6s} {m['value']:12.4f} {'':>12s} {1:3d}")
    print(f"reference kernel: median {values['bench.reference_ms']:.1f} ms; timings above are scaled "
          f"to {1000 * REFERENCE_S:.0f} ms")
    if tracer is None:
        print("not gated (quality is deterministic for a seed; see the traced run for the per-layer figures):")
        for name in sorted(k for k in values if k.startswith("experiment.")):
            print(f"  {name:32s} {values[name]:12.4f}")
    rate = failed / attempted if attempted else 0.0
    print(f"{'failure_rate':34s} {'ratio':6s} {rate:12.4f}   ({failed} of {attempted} operations failed)")
    print(f"report.json sha256: {sha}")
    if tracer is not None:
        top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:12]
        print("largest self times (traced run):")
        for layer, st in top:
            ratio = st.self_cpu_s / st.self_s if st.self_s > 0 else 0.0
            print(f"  {layer:30s} {st.self_s:9.3f} s  {st.calls:7d} calls  cpu/wall {ratio:4.2f}")
    for problem in state.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        os.chdir(ROOT)
        spec = load_spec()
        import_program()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        env = environment()
        try:
            state, metrics, samples, values, tracer = run(workload, args.seed, args.seconds, bool(args.trace), spec)
        finally:
            shutil.rmtree(WORK / workload.name, ignore_errors=True)
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sha = hashlib.sha256(state.jobs[0].report).hexdigest()
    print_report(workload, args, env, metrics, samples, values, state, sha, tracer)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "report_sha256": sha, "metrics": metrics,
        "all_values": values, "samples": samples, "problems": state.problems,
        "spans": tracer.spans if tracer is not None else [],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    attempted = sum(j.attempted for j in state.jobs)
    failed = sum(len(j.errors) for j in state.jobs)
    correct = not state.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
