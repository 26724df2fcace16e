"""The benchmark's workloads still run against this tree.

``bench/`` measures the library through its public names and trace fields,
so deleting one of them breaks the benchmark, not the library's own tests.
Each workload is built as the benchmark builds it and one op per kind of
input goes through ``run_op`` and ``Ledger.record``; every op must pass its
check.  The bench files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


program = _load_bench_module("program")
workloads = _load_bench_module("workloads")


@pytest.fixture(scope="module")
def jk():
    return program.load(ROOT)


def run_ops(jk, workload, indices) -> None:
    workload.build(jk)
    ledger = workloads.Ledger(workload)
    for idx in indices:
        try:
            result, error = workload.run_op(jk, idx), None
        except Exception as exc:  # the benchmark counts a raising op as failed
            result, error = None, exc
        outcome = ledger.record(idx, result, error)
        assert outcome.ok, f"{workload.name} input {idx}: {outcome.reason}\n{''.join(ledger.tracebacks)}"


def test_scan_d5(jk, tmp_path):
    workload = workloads.ScanWorkload(1, tmp_path, ROOT)
    run_ops(jk, workload, [workload.schedule(0)])


def test_dense_d300(jk, tmp_path):
    workload = workloads.DenseWorkload(1, tmp_path, ROOT)
    run_ops(jk, workload, [workload.schedule(0)])


def test_cli_configs_shipped(jk, tmp_path):
    workload = workloads.CliWorkload(1, tmp_path, ROOT)
    run_ops(jk, workload, range(len(workloads.SHIPPED)))
