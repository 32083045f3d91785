"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and once traced at its smallest size
(twenty jobs), so the whole file takes a few minutes.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, read_spans  # noqa: E402

import extmod  # noqa: E402
import extmod.cli as cli  # noqa: E402
from extmod.modules import FlashShape, default_params, make_flash  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# what each workload is meant to load (> 0) and to bypass (== 0)
BUSY_EVERYWHERE = ("cli.self_s", "linalg.self_s", "linalg.calls", "linalg.elim_calls",
                   "linalg.elim_cells", "linalg.coerce_calls", "modules.validate_calls",
                   "decompose.summands")
BUSY = {
    "paper_check": ("suite.self_s", "operators.self_s", "operators.traces",
                    "operators.trace_steps", "operators.trace_repeat_frac"),
    "decompose": ("textio.self_s", "textio.bytes", "modules.scramble_s",
                  "decompose.verify_s", "linalg.matmul_cells"),
    "cross_check": ("textio.bytes", "decompose.verify_s", "decompose.oracle_s",
                    "decompose.split_free_s", "decompose.retraction_vars"),
}
IDLE = {
    "paper_check": ("textio.self_s", "textio.bytes", "modules.scramble_s",
                    "decompose.verify_s", "decompose.oracle_s",
                    "decompose.split_free_s", "decompose.retraction_vars"),
    "decompose": ("suite.self_s", "operators.traces", "operators.trace_steps",
                  "decompose.oracle_s", "decompose.split_free_s",
                  "decompose.retraction_vars"),
    "cross_check": ("suite.self_s", "operators.traces", "operators.trace_steps"),
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def results(request):
    """(workload, untraced result, traced result) at the smallest run size."""
    out = [request.param]
    for trace in ("0", "1"):
        proc = _bench("--workload", request.param, "--seed", "7", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def test_every_metric_printed_with_unit(results):
    _, plain, traced = results
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= workloads.MIN_JOBS
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_predicted_idle_and_busy_layers(results):
    workload, _, traced = results
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    for name in BUSY_EVERYWHERE + BUSY[workload]:
        assert values[name] > 0, name
    for name in IDLE[workload]:
        assert values[name] == 0, name


def test_self_times_fit_in_the_traced_wall_time(results):
    _, _, traced = results
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    self_times = [values[f"{layer}.self_s"] for layer in LAYERS]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= values["trace.wall_s"]


def test_wrong_answers_and_crashes_count_as_failures(tmp_path):
    jobs = workloads.make_jobs("decompose", 3, 0, str(tmp_path / "job"))[:11]
    first = jobs[0]
    terms = re.findall(r"L\(\d+,\d,\d\)@\d+", first.calls[0][1])
    wrong = terms[1:]  # one generating summand missing from the expectation
    jobs[0] = workloads.Job(first.kind, first.calls, lambda outs: workloads._multiset_problem(
        json.loads(outs[1]), wrong))
    jobs[1] = workloads.Job("bad expression", (("build", "L(1,0,1)@0 +"),),
                            lambda outs: None)
    with redirect_stderr(io.StringIO()) as err:
        times, failed = run._run_jobs(jobs, cli)
    assert failed == 2, err.getvalue()
    metrics = run._summarize(times, failed, [1.0])
    assert metrics["ok_frac"]["value"] == pytest.approx(9 / 11)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the sampled idempotent oracle over Q can miss a split "
                          "and fail its own assertion; cross_check runs no Q oracle")
def test_oracle_over_q_on_a_scrambled_sum(tmp_path):
    doc = str(tmp_path / "m.txt")
    expr = ("randomize(L(0,1,1)@1 + L(2,1,0)@2 + L(2,0,1)@5 + L(0,1,0)@3 "
            "+ L(0,0,1)@1, 287157568)")
    assert cli.main(["build", expr, "--field", "0", "-o", doc]) == 0
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["--report", "json", "decompose", doc, "--certify",
                         "--oracle", "--oracle-bound", "19"])
    assert code == 0 and json.loads(out.getvalue())["oracle_agrees"] is True


def test_tracer_sees_calls_between_layers_and_restores_them(tmp_path):
    from extmod import linalg, operators

    namespaces = (extmod, operators, linalg, linalg.Matrix, linalg.Field)

    def bindings():
        return {(ns, name): value for ns in namespaces for name, value in vars(ns).items()}

    before = bindings()
    module = make_flash(FlashShape.l(3, 0, 1), default_params())
    with Tracer() as tracer:
        assert operators.preimage_space is linalg.preimage_space
        assert hasattr(operators.preimage_space, "__wrapped__")
        tracer.job = 0
        operators.filtration_trace(module, 4)
        tracer.end_job(1.0)
    assert bindings() == before
    values = tracer.metrics()
    assert values["operators.traces"] == 1
    assert values["operators.trace_steps"] >= 4
    assert values["linalg.calls"] > 0 and values["linalg.elim_calls"] > 0
    path = tmp_path / "spans.gz"
    tracer.write(path)
    names, columns = read_spans(path)
    assert len(columns["start"]) == values["trace.spans"]
    linalg_spans = [i for i, n in enumerate(columns["name"])
                    if names[n].startswith("linalg.")]
    # a linalg call made through operators' own `from .linalg import` binding
    assert any(names[columns["name"][columns["parent"][i]]].startswith("operators.")
               for i in linalg_spans)


def _inputs(jobs: list[workloads.Job]) -> list[str]:
    # the output paths name the job's slot, not its input
    return [" ".join(a for call in job.calls for a in call if "/" not in a) for job in jobs]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_lists_are_seeded_and_never_repeat_an_input(workload):
    first = _inputs(workloads.make_jobs(workload, 1, 30, "w/j"))
    assert first == _inputs(workloads.make_jobs(workload, 1, 30, "w/j"))
    assert first != _inputs(workloads.make_jobs(workload, 2, 30, "w/j"))
    assert len(set(first)) == len(first) >= workloads.MIN_JOBS


def test_exits_2_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "decompose", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
