"""Metric definitions and their computation from the worker's output.

Host metrics measure this simulator on the machine that runs it, in
wall-clock seconds (``time.perf_counter``), so work moved into another
process or thread, or time spent waiting, is charged as a user sees it;
each is stated at the reference host speed of :mod:`hostspeed` (wall
time scaled by the host speed sampled while it ran), because the shared
host's own speed swings by a quarter within a minute.  The unscaled wall
time and the simulating process's CPU time are printed next to them for
context.  Modeled metrics come from the LogGP model (``RunResult.breakdown``)
applied to the run's counters and are the same for every run of a seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from hostspeed import REFERENCE_RATE
from ledger import LAYERS

#: (name, unit, clock, definition) of every end-to-end metric.
END_TO_END = (
    ("cycles_per_s", "1/s", "host",
     "DUT cycles per wall second of CoSimulation.run at the reference "
     "host speed, tracing off; median over passes of the timed cases' "
     "cycles over their run time"),
    ("setup_s", "s", "host",
     "cold-process wall time until the first cycle at the reference host "
     "speed: import repro, workload assembly, construction of a pass's "
     "CoSimulations; median of probes"),
    ("peak_rss_mb", "MB", "host",
     "high-water RSS of the process that runs only this workload"),
    ("modeled_khz_palladium", "kHz", "modeled",
     "RunResult.breakdown(PALLADIUM, 57.6, nonblocking) speed over the "
     "timed cases of a pass"),
    ("modeled_khz_fpga", "kHz", "modeled",
     "the same on FPGA_VU19P"),
    ("report_s_p50", "s", "host",
     "wall time at the reference host speed from run() to the verdict of "
     "a timed case (bug_localize: a detection with its DebugReport); "
     "median over all passes"),
    ("report_s_p90", "s", "host",
     "90th percentile of the same samples"),
    ("verdict_ok_frac", "ratio", "count",
     "runs with the expected verdict and the reference's simulated results "
     "/ runs attempted (1 - failed_frac)"),
)

#: (name, unit) of every per-layer metric, reported by a traced run.
PER_LAYER = (
    ("framework.loop_s", "s"),
    ("framework.cycles", "count"),
    ("framework.active_cycle_frac", "ratio"),
    ("isa.steps", "count"),
    ("isa.s", "s"),
    ("isa.jit_step_frac", "ratio"),
    ("dut.cycle_s", "s"),
    ("dut.uarch_s", "s"),
    ("dut.uarch_calls", "count"),
    ("dut.monitor_s", "s"),
    ("dut.events", "count"),
    ("dut.icache_hit_frac", "ratio"),
    ("dut.dcache_hit_frac", "ratio"),
    ("capture.s", "s"),
    ("capture.fast_cycle_frac", "ratio"),
    ("fusion.s", "s"),
    ("fusion.events_in", "count"),
    ("fusion.items_out", "count"),
    ("fusion.ratio", "ratio"),
    ("pack.s", "s"),
    ("pack.transfers", "count"),
    ("pack.utilization", "ratio"),
    ("unpack.s", "s"),
    ("unpack.items", "count"),
    ("channel.send_s", "s"),
    ("channel.recv_s", "s"),
    ("channel.recv_empty_frac", "ratio"),
    ("channel.invokes", "count"),
    ("channel.bytes", "B"),
    ("channel.bytes_per_invoke", "B"),
    ("channel.max_occupancy", "count"),
    ("channel.backpressure_events", "count"),
    ("checker.s", "s"),
    ("checker.items", "count"),
    ("checker.fast_frac", "ratio"),
    ("checker.detected_frac", "ratio"),
    ("ref.steps", "count"),
    ("ref.s", "s"),
    ("replay.push_s", "s"),
    ("replay.pushed_events", "count"),
    ("replay.checkpoint_s", "s"),
    ("replay.checkpoints", "count"),
    ("replay.s", "s"),
    ("replay.replayed_events", "count"),
    ("replay.reverted_records", "count"),
    ("replay.localized_frac", "ratio"),
    ("setup.import_s", "s"),
    ("setup.assemble_s", "s"),
    ("setup.init_s", "s"),
) + tuple(
    (f"modeled.{platform}.{phase}_frac", "ratio")
    for platform in ("palladium", "fpga")
    for phase in ("dut", "startup", "transmission", "software")
) + (
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("calib.rate", "Mop/s"),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _ran(cases: List[dict]) -> List[dict]:
    """Cases that reached a verdict (a case that raised has no timings)."""
    return [case for case in cases if "wall" in case]


def _modeled_khz(cases: List[dict], platform: str) -> float:
    cycles = sum(case["cycles"] for case in cases)
    total_us = sum(case["modeled"][platform]["total_us"] for case in cases)
    return _ratio(cycles * 1000.0, total_us)


def at_reference_speed(seconds: float, probe: dict) -> float:
    """A set-up probe's wall time at the reference host speed."""
    return seconds * probe["host_rate"] / REFERENCE_RATE


def setup_seconds(probe: dict) -> float:
    return at_reference_speed(
        probe["import_s"] + probe["assemble_s"] + probe["init_s"], probe)


def _timed(cases: List[dict]) -> List[dict]:
    """The cases whose run times are measured: clean runs that pass, and
    on the debug workload the detections (the debug path; an escaped
    fault is checked but is not a debug-path sample)."""
    return [case for case in _ran(cases) if case["verdict"] == (
        "mismatch" if "localized" in case else "pass")]


def _report_times(out: dict) -> List[float]:
    return [case["host_s"] for p in out["passes"]
            for case in _timed(p["cases"])]


def _speeds(out: dict, clock: str) -> List[float]:
    """Per untraced pass: the timed cases' cycles over their ``clock``
    time (``host_s``, ``wall`` or ``cpu``)."""
    return [_ratio(sum(c["cycles"] for c in cases),
                   sum(c[clock] for c in cases))
            for cases in (_timed(p["cases"]) for p in out["passes"])]


def end_to_end(out: dict, probes: List[dict], verdict_ok_frac: float
               ) -> Dict[str, float]:
    """The end-to-end metrics of a ``measure`` run."""
    passes = [_timed(p["cases"]) for p in out["passes"]]
    reports = _report_times(out)
    return {
        "cycles_per_s": statistics.median(_speeds(out, "host_s")),
        "setup_s": statistics.median(setup_seconds(p) for p in probes),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "modeled_khz_palladium": _modeled_khz(passes[0], "palladium"),
        "modeled_khz_fpga": _modeled_khz(passes[0], "fpga"),
        "report_s_p50": statistics.median(reports) if reports else 0.0,
        "report_s_p90": p90(reports) if reports else 0.0,
        "verdict_ok_frac": verdict_ok_frac,
    }


def context_cycles_per_s(out: dict, clock: str) -> float:
    """``cycles_per_s`` on unscaled wall time (``wall``) or the process's
    CPU time (``cpu``), printed for context."""
    return statistics.median(_speeds(out, clock))


def host_rates(out: dict) -> List[float]:
    """Every host-speed sample of the run's untraced passes."""
    return [rate for p in out["passes"] for rate in p["host_rates"]]


def report_samples(out: dict) -> int:
    return len(_report_times(out))


def per_layer(out: dict, probes: List[dict]) -> Dict[str, float]:
    """The per-layer metrics of a ``trace`` run, taken from the traced
    pass with the median wall time (so its ledger closes exactly)."""
    traced = sorted(out["traced_passes"],
                    key=lambda p: sum(c.get("wall", 0.0) for c in p["cases"]))
    cases = _ran(traced[(len(traced) - 1) // 2]["cases"])
    traces = [case["trace"] for case in cases]

    def total(field: str, key: str) -> int:
        return sum(t[field].get(key, 0) for t in traces)

    def calls(key: str) -> int:
        return total("calls", key)

    def sizes(key: str) -> int:
        return total("sizes", key)

    values = {name: sum(t["ledger"][name] for t in traces)
               for name in LAYERS + ("framework.loop_s",)}
    cycles = sum(case["cycles"] for case in cases)
    core_cycles = sum(case["cycles"] * case["cores"] for case in cases)
    jit_steps = sizes("isa.jit_block")
    isa_steps = calls("isa.step") + jit_steps
    hits = {name: [sum(t["caches"][name][i] for t in traces) for i in (0, 1)]
            for name in ("icache", "dcache")}
    channel = {key: sum(t["channel"][key] for t in traces)
               for key in ("invokes", "bytes", "backpressure_events")}
    pack_bytes = sum(t["pack"]["bytes"] for t in traces)
    bubbles = sum(t["pack"]["bubble_bytes"] for t in traces)
    items = calls("checker.process_item") + sizes("checker.process_top")
    faults = [case for case in cases if "localized" in case]
    detected = [case for case in faults if case["verdict"] == "mismatch"]
    events_in = sizes("fusion.on_cycle")
    items_out = sizes("fusion.items_out")
    values.update({
        "framework.cycles": cycles,
        "framework.active_cycle_frac": _ratio(
            calls("monitor.end_of_cycle_state"), core_cycles),
        "isa.steps": isa_steps,
        "isa.jit_step_frac": _ratio(jit_steps, isa_steps),
        "dut.uarch_calls": calls("uarch.cache") + calls("uarch.tlb")
        + calls("uarch.sbuffer"),
        "dut.events": sum(t["events"] for t in traces),
        "dut.icache_hit_frac": _ratio(hits["icache"][0], sum(hits["icache"])),
        "dut.dcache_hit_frac": _ratio(hits["dcache"][0], sum(hits["dcache"])),
        "capture.fast_cycle_frac": _ratio(calls("capture.begin_bundle"),
                                          core_cycles),
        "fusion.events_in": events_in,
        "fusion.items_out": items_out,
        "fusion.ratio": _ratio(events_in, items_out),
        "pack.transfers": sizes("pack.pack_cycle") + sizes("pack.flush")
        + sizes("pack.end_append"),
        "pack.utilization": 1.0 - _ratio(bubbles, pack_bytes)
        if pack_bytes else 0.0,
        "unpack.items": sizes("unpack"),
        "channel.recv_empty_frac": _ratio(sizes("channel.recv"),
                                          calls("channel.recv")),
        "channel.invokes": channel["invokes"],
        "channel.bytes": channel["bytes"],
        "channel.bytes_per_invoke": _ratio(channel["bytes"],
                                           channel["invokes"]),
        "channel.max_occupancy": max(t["channel"]["max_occupancy"]
                                     for t in traces),
        "channel.backpressure_events": channel["backpressure_events"],
        "checker.items": items,
        "checker.fast_frac": 1.0 - _ratio(calls("checker.complete"), items)
        if items else 0.0,
        "checker.detected_frac": _ratio(len(detected), len(faults)),
        "ref.steps": calls("ref.step") + calls("ref.sync_interrupt"),
        "replay.pushed_events": sizes("replay.push"),
        "replay.checkpoints": calls("replay.checkpoint"),
        "replay.replayed_events": sum(t["replay"]["replayed_events"]
                                      for t in traces),
        "replay.reverted_records": sum(t["replay"]["reverted_records"]
                                       for t in traces),
        "replay.localized_frac": _ratio(
            sum(1 for case in detected if case["localized"]), len(detected)),
    })
    for phase in ("import_s", "assemble_s", "init_s"):
        values[f"setup.{phase}"] = statistics.median(
            at_reference_speed(p[phase], p) for p in probes)
    timed = _timed(cases)
    for platform in ("palladium", "fpga"):
        total_us = sum(c["modeled"][platform]["total_us"] for c in timed)
        for phase in ("dut", "startup", "transmission", "software"):
            values[f"modeled.{platform}.{phase}_frac"] = _ratio(
                sum(c["modeled"][platform][f"{phase}_us"] for c in timed),
                total_us)
    untraced = statistics.median(
        sum(c.get("wall", 0.0) for c in p["cases"]) for p in out["passes"])
    traced_walls = [sum(c.get("wall", 0.0) for c in p["cases"])
                    for p in out["traced_passes"]]
    values["trace.overhead_frac"] = _ratio(statistics.median(traced_walls),
                                            untraced) - 1.0
    values["trace.wall_s"] = sum(t["wall"] for t in traces)
    values["calib.rate"] = statistics.median(host_rates(out)) / 1e6
    return values
