"""Tests of the benchmark itself: span arithmetic, patching, oracle.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from tracing import Recorder, patch_function, patch_method, summarize  # noqa: E402


def ticking_clock():
    """A clock that advances one second per reading."""
    ticks = iter(range(10_000))
    return lambda: float(next(ticks))


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        (1, 0, "outer", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 4.0, 8.0),
        (4, 3, "c", 5.0, 6.0),
    ]
    spans.insert(0, (0, -1, "root", 0.0, 10.0))
    stats = summarize(spans)
    assert stats["outer"].self_s == pytest.approx(10 - 2 - 4)
    assert stats["a"].self_s == pytest.approx(2)
    assert stats["b"].self_s == pytest.approx(4 - 1)
    assert stats["c"].self_s == pytest.approx(1)
    assert stats["root"].self_s == pytest.approx(0)
    total_self = sum(entry.self_s for entry in stats.values())
    assert total_self == pytest.approx(10)


def test_recorder_on_a_toy_nested_call():
    recorder = Recorder(clock=ticking_clock())
    inner = recorder.wrap("inner", lambda x: x + 1)

    def body(x):
        return inner(x) + inner(x)

    outer = recorder.wrap("outer", body)
    assert outer(1) == 4
    # Readings: outer start 0, inner 1..2, inner 3..4, outer end 5.
    stats = summarize(recorder.spans)
    assert stats["outer"].calls == 1
    assert stats["outer"].inclusive_s == 5
    assert stats["outer"].self_s == 5 - 1 - 1
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == 2
    parents = {name: parent for _, parent, name, _, _ in recorder.spans}
    outer_id = next(s[0] for s in recorder.spans if s[2] == "outer")
    assert parents["inner"] == outer_id and parents["outer"] == -1


def test_same_name_nesting_counts_one_call_and_no_double_time():
    recorder = Recorder(clock=ticking_clock())

    def countdown(n):
        return 0 if n == 0 else wrapped(n - 1)

    wrapped = recorder.wrap("rec", countdown)
    wrapped(2)
    stats = summarize(recorder.spans)
    # Three nested spans: 0..5, 1..4, 2..3.
    assert stats["rec"].calls == 1
    assert stats["rec"].inclusive_s == 5
    assert stats["rec"].self_s == 5


def test_recorder_writes_its_spans_once(tmp_path):
    recorder = Recorder(clock=ticking_clock())
    recorder.wrap("outer", recorder.wrap("inner", lambda: None))()
    recorder.write(tmp_path / "spans.tsv")
    rows = [line.split("\t") for line in (tmp_path / "spans.tsv").read_text().splitlines()]
    assert [(r[2], float(r[3]), float(r[4])) for r in rows] == [
        ("inner", 1.0, 2.0), ("outer", 0.0, 3.0),
    ]


def test_recorder_keeps_spans_when_the_call_raises():
    recorder = Recorder(clock=ticking_clock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert [s[2] for s in recorder.spans] == ["boom"]


# -- patching ------------------------------------------------------------------


def test_patch_function_reaches_every_alias(monkeypatch):
    home = types.ModuleType("pbtoy.home")
    user = types.ModuleType("pbtoy.user")

    def parse(text):
        return text.upper()

    home.parse = parse
    user.parse = parse  # as after ``from .home import parse``
    user.call = lambda text: user.parse(text)
    for module in (home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = Recorder()
    wrapper = recorder.wrap("toy.parse", parse)
    assert patch_function(parse, wrapper, "pbtoy") == 2
    assert user.call("a") == "A" and home.parse("b") == "B"
    assert [s[2] for s in recorder.spans] == ["toy.parse", "toy.parse"]


def test_patch_method_is_seen_through_super():
    class Base:
        def rules_for(self, agent):
            return agent

    class Memo(Base):
        def rules_for(self, agent):
            return super().rules_for(agent)

    recorder = Recorder()
    patch_method(Base, "rules_for", recorder.wrap("rules", Base.rules_for))
    assert Memo().rules_for("x") == "x"
    assert len(recorder.spans) == 1
    with pytest.raises(AttributeError):
        patch_method(Memo, "verdict", lambda self: None)


def test_every_instrument_resolves_to_a_function():
    import importlib

    for _, module_name, qualname, _ in layers.INSTRUMENTS:
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        target = vars(owner)[attr]
        assert callable(getattr(target, "__func__", target)), qualname


# -- oracle --------------------------------------------------------------------


def reference_outputs(workload, ref):
    """Outputs a correct sample of *workload* would report."""
    texts = dict(ref.get("battery", {}))
    if workload == "strata-cold":
        texts = dict(ref["strata"])
    outputs = {"texts": texts}
    if workload == "battery-fork-armed":
        outputs["artifacts"] = dict(ref["artifacts"])
        outputs["logstore"] = {"shards": 8, "records": 12577, "uas": 725}
    if workload == "rerun-edit":
        texts[oracle.EDITED] = ref["figure2_edit"]
        outputs["dispositions"] = {key: "hit" for key in oracle.BATTERY_KEYS}
        outputs["dispositions"]["figure2"] = "run:invalidated"
    return outputs


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_oracle_accepts_the_reference(workload):
    ref = oracle.reference(ROOT, oracle.DEFAULT_SEED)
    assert oracle.check(workload, reference_outputs(workload, ref), ref) == []


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_planted_mismatch_raises_error_rate(workload):
    ref = oracle.reference(ROOT, oracle.DEFAULT_SEED)
    planted = reference_outputs(workload, ref)
    victim = sorted(planted["texts"])[0]
    planted["texts"][victim] = "0" * 64
    bench = run.Run(ROOT, workload, oracle.DEFAULT_SEED, 1.0, False)
    bench._judge({"outputs": reference_outputs(workload, ref)}, ref, False)
    assert bench.failed == 0 and report.exit_code([bench]) == 0
    bench._judge({"outputs": planted}, ref, False)
    assert bench.failed == 1
    assert bench.attempted == 2 * oracle.UNITS[workload]
    assert "error_rate" in run.table_lines(bench)[-1]
    assert run.result_line(bench)["correct"] is False
    assert report.exit_code([bench]) == 1


def test_crashed_sample_fails_every_unit():
    bench = run.Run(ROOT, "strata-cold", oracle.DEFAULT_SEED, 1.0, False)
    assert bench._judge({"error": "sample-1 exited 1"}, {}, False) is False
    assert bench.failed == bench.attempted == oracle.UNITS["strata-cold"]


def test_unrecorded_seed_learns_from_the_first_sample():
    ref = {}
    outputs = {"texts": {rid: rid for rid in oracle.STRATA_IDS}}
    oracle.learn("strata-cold", outputs, ref)
    assert oracle.check("strata-cold", outputs, ref) == []
    outputs["texts"]["figure3@top-10k"] = "drift"
    assert len(oracle.check("strata-cold", outputs, ref)) == 1


def test_fork_workload_fails_a_damaged_log_store():
    ref = oracle.reference(ROOT, oracle.DEFAULT_SEED)
    outputs = reference_outputs("battery-fork-armed", ref)
    outputs["logstore"] = {"error": "UA table digest mismatch"}
    assert len(oracle.check("battery-fork-armed", outputs, ref)) == 1


# -- contract ------------------------------------------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.BENCHMARKED)


def test_refuses_a_directory_without_the_program(tmp_path):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "battery-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
