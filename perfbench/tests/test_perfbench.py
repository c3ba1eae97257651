"""Tests of the benchmark harness itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import random
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Workloads cut down to a few seconds in total, writing under tmp_path."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(workloads, "DECKS", 2)
    monkeypatch.setattr(workloads, "TRACE_DECKS", 1)
    monkeypatch.setattr(workloads, "TOOLS_SIZES", (2, 3))
    monkeypatch.setattr(run, "SETUP_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_AFTER", 1)
    monkeypatch.setattr(run, "COLD_SAMPLES", 2)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(workloads, "WORKLOADS", {
        "exhaustive2": workloads.SweepWorkload("exhaustive1", size=1, count=None, workers=1),
        "random3": workloads.SweepWorkload("random3", size=3, count=30, workers=2),
        "tools": workloads.ToolsWorkload(),
    })


def _relative_calls(state) -> list:
    prefix = str(state.workdir)
    return [[a.replace(prefix, "") for a in c["argv"]] for c in state.calls]


def test_same_seed_same_inputs(pkg, small, tmp_path):
    tools = workloads.ToolsWorkload()
    a = tools.setup(pkg, 7, tmp_path / "a")
    b = tools.setup(pkg, 7, tmp_path / "b")
    c = tools.setup(pkg, 8, tmp_path / "c")
    assert _relative_calls(a) == _relative_calls(b) != _relative_calls(c)
    assert [p.read_bytes() for p in sorted(a.workdir.iterdir())] == [
        p.read_bytes() for p in sorted(b.workdir.iterdir())
    ]
    sweep = workloads.SweepWorkload("random3", size=3, count=25, workers=1)
    assert sweep.setup(pkg, 7, tmp_path) == sweep.setup(pkg, 7, tmp_path)


def test_same_seed_same_report(pkg, tmp_path):
    sweep = workloads.SweepWorkload("random3", size=3, count=25, workers=1)
    digests = [
        workloads.report_digest(pkg.correspondence.sweep(sweep.setup(pkg, 7, tmp_path)[0]).to_json())
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_ranked_frames_satisfy_every_property(pkg):
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            frame = pkg.model.load_frame(inputs.ranked_frame(rng, n))
            for prop in pkg.properties.PropertyId:
                assert pkg.properties.check_property(frame, prop) is None
            assert workloads.direct_model(pkg, inputs.ranked_frame(rng, n)).frame.n == n


def test_malformed_inputs_raise_the_documented_errors(pkg):
    rng = random.Random(5)
    for kind in inputs.FRAME_ISSUE_KINDS:
        data = inputs.malformed_frame(rng, inputs.uniform_frame(rng, 3), kind)
        with pytest.raises(pkg.model.FrameValidationError) as info:
            pkg.model.load_model(data)
        assert kind in {issue.kind for issue in info.value.issues}
    for _ in range(50):
        text, error = inputs.malformed_formula(rng)
        with pytest.raises(pkg.parser.ParseError) as info:
            pkg.parser.parse(text)
        is_strat = isinstance(info.value, pkg.parser.StratificationError)
        assert is_strat == (error == "StratificationError"), text


def test_generated_formulas_parse_to_their_trees(pkg):
    rng = random.Random(11)
    for _ in range(200):
        tree = inputs.formula_tree(rng)
        assert pkg.parser.parse(inputs.render(tree, rng)) == workloads.build_formula(pkg, tree)


def test_tracing_restores_every_wrapped_function(pkg):
    owners = [pkg.correspondence, pkg.axioms, pkg.revision, pkg.cli,
              pkg.axioms.SchemaEvaluator, pkg.correspondence.Report]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    abandoned = False
    try:
        workloads.install_tracing(tracer, pkg)
        assert any(dict(vars(o)) != b for o, b in zip(owners, before))
        pkg.correspondence.sweep(pkg.correspondence.SweepConfig(size=1))
        raise RuntimeError("abandon the traced run")
    except RuntimeError:
        abandoned = True
    finally:
        tracer.restore()
    assert abandoned and len(tracer) > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[key] is saved[key] for key in saved), owner


def test_self_times_account_for_the_root_span():
    tracer = Tracer()
    root = tracer.name_id("bench")

    class Box:
        @staticmethod
        def work(depth):
            return depth and Box.work(depth - 1)

    tracer.patch(Box, "work", "model.work")
    idx = tracer.open(root)
    Box.work(3)
    tracer.close(idx)
    tracer.restore()
    summary = tracer.summary()
    assert summary["model.work"]["calls"] == 4
    assert sum(r["self_ns"] for r in summary.values()) == summary["bench"]["total_ns"]


def test_host_speed_rescaling():
    assert hostspeed.scale([hostspeed.REFERENCE_S]) == pytest.approx(1.0)
    assert hostspeed.scale([hostspeed.REFERENCE_S * 2, hostspeed.REFERENCE_S * 2]) == pytest.approx(0.5)
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.02) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert sampler.stolen >= sum(sampler.samples)


def test_checks_reject_wrong_outputs(pkg, small, tmp_path, monkeypatch):
    state = workloads.ToolsWorkload().setup(pkg, 2, tmp_path)
    checker = workloads.ToolsChecker(pkg, state)
    by_command = {}
    for call in state.calls:
        by_command.setdefault(call["argv"][0] if "error" not in call else "error", call)
    for command, call in by_command.items():
        code, out, err, _ = workloads.ToolsWorkload.call(pkg, call["argv"])
        assert checker.check(call, code, out, err) == [], call["argv"]
        flipped = {0: 1, 1: 0, 2: 0}[code]
        assert checker.check(call, flipped, out, err), call["argv"]
    sweep = workloads.SweepWorkload("random3", size=3, count=20, workers=1)
    cfg = sweep.setup(pkg, 2, tmp_path)[0]
    report = pkg.correspondence.sweep(cfg).to_json()
    assert sweep.check(cfg, report) == []
    monkeypatch.setitem(workloads.REPORT_DIGESTS, (cfg.mode, cfg.size, cfg.count, cfg.seed), "0" * 64)
    assert sweep.check(cfg, report) == ["report differs from the recorded digest"]
    report["per_axiom"]["P7"]["pf"] += 1
    assert len(sweep.check(cfg, report)) == 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["exhaustive2", "random3", "tools"])
def test_every_metric_is_emitted_with_its_unit(small, workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tools", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
