import importlib
import importlib.util
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists_and_is_callable():
    # The benchmark's tracer raises TraceError for a traced name that is gone;
    # this catches a deletion before a benchmark run does.
    layertrace = _load_bench_module("layertrace")
    missing = [
        f"cellgraph.{t.module}.{t.attr}"
        for t in layertrace.TARGETS
        if not callable(getattr(importlib.import_module(f"cellgraph.{t.module}"), t.attr, None))
    ]
    assert layertrace.TARGETS and missing == []


def test_every_bench_config_is_accepted():
    # Nested experiment configs are read when the config is built, so a bench
    # config the library refuses would fail every benchmark job. The bench
    # adds data_dir, seed and threads (1 and nproc) to each config at run time.
    from cellgraph.experiment import ExperimentConfig
    from cellgraph.grand import GrandConfig
    from cellgraph.radiomics import RadiomicsConfig
    from cellgraph.synth import SynthConfig
    from cellgraph.trees import ForestConfig

    stage_classes = {"extract": RadiomicsConfig, "train": GrandConfig, "baseline": ForestConfig}
    bench_workloads = _load_bench_module("workloads")
    workloads = bench_workloads.WORKLOADS
    for workload in workloads.values():
        SynthConfig.from_dict(workload.synth)
        ExperimentConfig.from_dict(workload.experiment)
        for threads in (1, os.cpu_count() or 1):
            ExperimentConfig.from_dict({**workload.experiment, "data_dir": ".bench_work/data",
                                        "seed": bench_workloads.derive_seed(1, "experiment"), "threads": threads})
        for stage, raw in workload.stage_configs.items():
            stage_classes[stage].from_dict(raw)
    assert workloads
