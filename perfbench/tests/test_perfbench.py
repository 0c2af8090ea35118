"""Self-tests of the benchmark: transparent wrappers, a closing ledger,
the host-speed sampler, seed handling and the metric-name contract.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cases
import hostspeed
import ledger
import metrics
import reference
from worker import run_case

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bug_case(fault: str, seed: int = 0):
    return next(case for case in cases.build_cases(cases.BUG, seed)
                if case.fault == fault)


@pytest.mark.parametrize("case", [
    cases.build_cases("linux_boot_like", 3)[0],
    _bug_case("cache_line_corruption"),
    # Overrides the monitor's end_of_cycle_state on the instance.
    _bug_case("vs_dirty_wrong"),
], ids=lambda case: case.label)
def test_traced_run_equals_untraced_run(case):
    plain = run_case(case)
    traced = run_case(case, ledger.SpanRecorder("test"))
    assert plain["verdict"] in ("pass", "mismatch")
    assert traced["verdict"] == plain["verdict"]
    assert traced["record"] == plain["record"]
    assert traced["modeled"] == plain["modeled"]
    # The wrappers must not change the capture path the run selects.
    assert traced["labels"] == plain["labels"]
    # Every active core-cycle reaches the monitor's end-of-cycle call,
    # through the class wrapper or a fault's instance override.
    assert traced["trace"]["calls"]["monitor.end_of_cycle_state"] > 0


def test_ledger_closes_on_a_traced_debug_run():
    case = _bug_case("cache_line_corruption")
    out = run_case(case, ledger.SpanRecorder("test"))
    assert out["verdict"] == "mismatch"
    trace = out["trace"]
    book = trace["ledger"]
    assert book["framework.loop_s"] >= 0.0
    assert sum(book.values()) == pytest.approx(trace["wall"], rel=1e-9)
    # The debug path reads the replay buffer: replay engages.
    assert book["replay.s"] > 0.0
    assert trace["calls"]["replay.replay"] == 1


def _recorder_from(spans):
    """A recorder holding hand-made (layer, parent, start, end) spans."""
    rec = ledger.SpanRecorder("synthetic")
    for layer, parent, start, end in spans:
        rec.layer.append(layer)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_excludes_nested_spans():
    rec = _recorder_from([
        (ledger.DUT_CYCLE, -1, 0.0, 10.0),
        (ledger.ISA, 0, 1.0, 4.0),
        (ledger.DUT_MONITOR, 0, 5.0, 6.0),
        (ledger.CHECKER, -1, 12.0, 15.0),
        (ledger.REF, 3, 13.0, 14.5),
    ])
    book = ledger.ledger(rec, wall_s=20.0)
    assert book["dut.cycle_s"] == pytest.approx(6.0)
    assert book["isa.s"] == pytest.approx(3.0)
    assert book["dut.monitor_s"] == pytest.approx(1.0)
    assert book["checker.s"] == pytest.approx(1.5)
    assert book["ref.s"] == pytest.approx(1.5)
    assert book["framework.loop_s"] == pytest.approx(7.0)
    assert sum(book.values()) == pytest.approx(20.0)


def test_ledger_rejects_spans_that_overrun_the_run():
    rec = _recorder_from([(ledger.ISA, -1, 0.0, 2.0)])
    with pytest.raises(ledger.LedgerError):
        ledger.ledger(rec, wall_s=1.0)
    child_outlives_parent = _recorder_from([
        (ledger.DUT_CYCLE, -1, 0.0, 1.0), (ledger.ISA, 0, 0.0, 3.0)])
    with pytest.raises(ledger.LedgerError):
        ledger.ledger(child_outlives_parent, wall_s=5.0)


def test_recorder_wrap_records_nested_spans():
    rec = ledger.SpanRecorder("wrap")

    def inner():
        time.sleep(0.002)
        return [1, 2, 3]

    traced_inner = rec.wrap(inner, ledger.ISA, "inner",
                            size=lambda _a, result: len(result))
    outer = rec.wrap(lambda: traced_inner(), ledger.DUT_CYCLE, "outer")
    assert outer() == [1, 2, 3]
    assert list(rec.parent) == [-1, 0]
    assert rec.count("inner") == 1 and rec.size("inner") == 3
    selfs = rec.self_times()
    assert selfs[ledger.ISA] >= 0.002
    assert sum(selfs) == pytest.approx(rec.root_time())


def test_spans_round_trip(tmp_path):
    rec = _recorder_from([(ledger.DUT_CYCLE, -1, 0.5, 1.5),
                          (ledger.ISA, 0, 0.75, 1.0)])
    path = tmp_path / "spans"
    ledger.write_spans(path, [rec, rec])
    back = ledger.read_spans(path)
    assert [r.run_id for r in back] == ["synthetic", "synthetic"]
    for copy in back:
        assert list(copy.layer) == list(rec.layer)
        assert list(copy.parent) == list(rec.parent)
        assert list(copy.start) == list(rec.start)
        assert list(copy.end) == list(rec.end)


def test_host_sampler_samples_during_an_interval_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.HostSampler(every=0.02, length=0.002)
    with sampler:
        start = sampler.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        end = sampler.mark()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Samples were taken while the loop ran, and their time is counted.
    assert end[0] - start[0] >= 3
    assert end[1] - start[1] >= 0.002 * (end[0] - start[0])
    # One sample on entry, one on exit: every interval has one either side.
    assert start[0] == 1 and len(sampler.rates) == end[0] + 1
    sampler.rates[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sampler.rate_over((1, 1)) == pytest.approx(1.5)
    assert sampler.rate_over((2, 4)) == pytest.approx(3.5)


def test_seed_changes_dut_rng_and_triggers_not_images():
    for workload in cases.WORKLOADS:
        images = [[case.image for case in cases.build_cases(workload, seed)]
                  for seed in (0, 1)]
        assert images[0] == images[1]
    assert cases.fault_triggers(0) != cases.fault_triggers(1)
    assert cases.fault_triggers(5) == cases.fault_triggers(5)
    low, high = cases.TRIGGER_RANGE
    assert all(low <= trigger <= high
               for _name, trigger in cases.fault_triggers(0))
    retired = []
    for seed in (0, 1):
        case = cases.build_cases("alu_hotloop", seed)[0]
        cosim = cases.make_cosim(case)
        cosim.run(max_cycles=3000)
        retired.append(cosim.dut.cores[0].retired)
    assert retired[0] != retired[1]


def _as_cases(records, verdict_of=lambda record: record[0]):
    return [{"label": f"case{index}", "program": "-", "image": "-",
             "verdict": verdict_of(record), "record": record}
            for index, record in enumerate(records)]


def test_unrecorded_seed_is_checked_against_the_recorded_envelope():
    ref = reference.load()
    bug = ref[cases.BUG]["records"]
    unrecorded = max(int(seed) for seed in bug) + 1
    good = bug["0"]
    assert reference.pass_failures(cases.BUG, unrecorded, _as_cases(good),
                                   None, ref) == []
    # A class that every recorded seed detected must be detected; a
    # detection must name the recorded component.
    index = next(i for i, record in enumerate(good)
                 if record[2] == "dcache")
    escaped = list(good)
    escaped[index] = ["pass", None, None]
    wrong_component = list(good)
    wrong_component[index] = ["mismatch", good[index][1], "l1tlb"]
    for records in (escaped, wrong_component):
        assert len(reference.pass_failures(
            cases.BUG, unrecorded, _as_cases(records), None, ref)) == 1
    clean = ref["alu_hotloop"]["records"]["0"]
    doubled = [clean[0], clean[1] * 2] + clean[2:]
    for record, failures in ((clean, 0), (doubled, 1)):
        checked = _as_cases([record], lambda _r: "pass")
        for case in checked:
            case["uart"] = ref["alu_hotloop"]["uart"]
        assert len(reference.pass_failures(
            "alu_hotloop", unrecorded, checked, None, ref)) == failures


def test_every_fault_class_is_armed():
    from repro.dut import FAULT_CATALOGUE

    armed = {case.fault for case in cases.build_cases(cases.BUG, 0)}
    assert armed == {spec.name for spec in FAULT_CATALOGUE}


def test_metric_names_and_counts_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == [(name, unit) for name, unit, _c, _d in metrics.END_TO_END]
    assert layers == list(metrics.PER_LAYER)
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [name for name, _unit in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert ("setup_s", "s") in e2e
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert set(ledger.LAYERS) <= set(names)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alu_hotloop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
