"""The measuring process: one workload, one seed, one simulation thread.

Run by ``run.py`` as a child process, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py setup   <workload> <seed>
    python3 perfbench/worker.py measure <workload> <seed> <seconds> <probes>
    python3 perfbench/worker.py trace   <workload> <seed> <seconds> <probes> \
        <spans>

``setup`` times a cold start (import, assembly, construction) and exits.
``measure`` runs untraced passes back to back (a closed loop) for about
``seconds``.  ``trace`` alternates untraced and traced passes for about
``seconds`` and writes the traced passes' spans to ``<spans>``.  Both
run ``<probes>`` ``setup`` processes between passes, spread over the
run, and wait for each.  Each mode prints one JSON object as its only
output line.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import build_cases, image_digest, make_cosim  # noqa: E402
from hostspeed import REFERENCE_RATE, HostSampler, kernel_rate  # noqa: E402
from ledger import (SpanRecorder, instrument, ledger,  # noqa: E402
                    trace_classes, write_spans)

#: Platforms of the modeled (LogGP) speed metrics.
PLATFORMS = ("palladium", "fpga")
#: Seconds of the host-speed kernel run before and after a set-up probe.
SETUP_SAMPLE_S = 0.03


def setup_probe(workload: str, seed: int) -> dict:
    """Cold-process wall time until the first cycle, with the host's
    speed sampled before and after it."""
    before = kernel_rate(SETUP_SAMPLE_S)
    t0 = time.perf_counter()
    import repro  # noqa: F401
    t1 = time.perf_counter()
    cases = build_cases(workload, seed)
    t2 = time.perf_counter()
    for case in cases:
        make_cosim(case)
    t3 = time.perf_counter()
    rate = (before + kernel_rate(SETUP_SAMPLE_S)) / 2
    return {"import_s": t1 - t0, "assemble_s": t2 - t1, "init_s": t3 - t2,
            "host_rate": rate}


def cold_setup(workload: str, seed: int) -> dict:
    """Run :func:`setup_probe` in a fresh process and return its result."""
    proc = subprocess.run([sys.executable, __file__, "setup", workload,
                           str(seed)], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _modeled(result) -> dict:
    from repro import XIANGSHAN_DEFAULT
    from repro.comm import FPGA_VU19P, PALLADIUM

    out = {}
    for name, platform in zip(PLATFORMS, (PALLADIUM, FPGA_VU19P)):
        b = result.breakdown(platform, XIANGSHAN_DEFAULT.gates_millions,
                             nonblocking=True)
        out[name] = {"total_us": b.total_us, "dut_us": b.dut_us,
                     "startup_us": b.startup_us,
                     "transmission_us": b.transmission_us,
                     "software_us": b.software_us}
    return out


def _verdict(result) -> str:
    if result.transport_error is not None:
        return "transport_error"
    if result.mismatch is not None:
        return "mismatch" if result.debug_report is not None \
            else "mismatch_without_report"
    if result.exit_code is None:
        return "budget_exhausted"
    return "pass" if result.exit_code == 0 else f"exit_{result.exit_code}"


def run_case(case, recorder=None, sampler=None) -> dict:
    """Construct, (optionally) instrument and run one case; summarise.

    With a running :class:`HostSampler`, the samples it takes during the
    run are taken out of ``wall`` and ``cpu``, and ``samples`` records
    which samples the run spans."""
    cs = make_cosim(case)
    out = {"label": case.label, "program": case.program,
           "image": image_digest(case.image), "cores": len(cs.dut.cores)}
    if recorder is not None:
        instrument(cs, recorder)
        context = trace_classes(recorder)
    else:
        context = nullcontext()
    # Each run starts from a collected heap, as in a fresh process, so a
    # cyclic-GC pause left over from the previous run is not charged to it.
    gc.collect()
    start = sampler.mark() if sampler is not None else (0, 0.0)
    try:
        with context:
            t0 = time.perf_counter()
            c0 = time.process_time()
            result = cs.run(case.max_cycles)
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
    except Exception as exc:  # a run must end in a verdict; record it
        out.update(verdict=f"raised {type(exc).__name__}: {exc}",
                   record=None)
        return out
    if sampler is not None:
        end = sampler.mark()
        paused = end[1] - start[1]
        wall -= paused
        cpu -= paused
        out["samples"] = (start[0], end[0])
    stats = result.stats
    counters = stats.counters
    verdict = _verdict(result)
    out.update(verdict=verdict, wall=wall, cpu=cpu, cycles=result.cycles,
               modeled=_modeled(result),
               labels={"capture_fallbacks": list(stats.capture_fallbacks),
                       "jit": bool(cs.diff_config.jit),
                       "packer": cs.diff_config.packing})
    if case.fault is None:
        out["record"] = [result.exit_code, result.cycles,
                         result.instructions, stats.events_captured,
                         stats.events_transmitted, counters.invokes,
                         counters.bytes_sent]
        out["uart"] = image_digest(result.uart_output.encode())
    else:
        from repro.dut import fault_by_name
        report = result.debug_report
        component = report.component if report is not None else None
        out["record"] = [verdict,
                         result.mismatch.cycle if result.mismatch else None,
                         component]
        out["localized"] = (component is not None and component
                            == fault_by_name(case.fault).component)
    if recorder is not None:
        out["trace"] = _trace_summary(cs, result, recorder, wall)
    return out


def _trace_summary(cs, result, recorder, wall: float) -> dict:
    stats = result.stats
    channel = cs.channel
    packer_stats = cs.packer.stats
    caches = {"icache": [0, 0], "dcache": [0, 0]}
    for core in cs.dut.cores:
        for name, pair in caches.items():
            cache = getattr(core, name)
            pair[0] += cache.hits
            pair[1] += cache.misses
    report = result.debug_report
    return {
        "wall": wall,
        "ledger": ledger(recorder, wall),
        "calls": {key: cell[0] for key, cell in recorder.calls.items()},
        "sizes": {key: cell[0] for key, cell in recorder.sizes.items()},
        "events": stats.events_captured,
        "caches": caches,
        "channel": {"invokes": channel.invokes, "bytes": channel.bytes_sent,
                    "max_occupancy": channel.max_occupancy,
                    "backpressure_events": channel.backpressure_events},
        "pack": {"bytes": packer_stats.bytes_sent,
                 "bubble_bytes": packer_stats.bubble_bytes},
        "replay": {"replayed_events": report.replayed_events if report else 0,
                   "reverted_records": report.reverted_records
                   if report else 0},
    }


def run_pass(cases, recorders=None, pass_id: int = 0) -> dict:
    """One pass over the workload's cases; traced when ``recorders`` is a
    list, which receives one span recorder per case.

    An untraced pass samples the host's speed while it runs and gives
    each case its ``host_rate`` and ``host_s``, its run time at the
    reference host speed (see :mod:`hostspeed`).  A traced pass does not
    sample, so its spans add up to its wall time."""
    t0 = time.perf_counter()
    sampler = HostSampler() if recorders is None else None
    results = []
    with sampler if sampler is not None else nullcontext():
        for index, case in enumerate(cases):
            recorder = None
            if recorders is not None:
                recorder = SpanRecorder(f"{case.label}/seed{case.seed}/"
                                        f"pass{pass_id}/case{index}")
                recorders.append(recorder)
            results.append(run_case(case, recorder, sampler))
    for out in results:
        if "samples" in out:
            rate = sampler.rate_over(out.pop("samples"))
            out.update(host_rate=rate,
                       host_s=out["wall"] * rate / REFERENCE_RATE)
    return {"cases": results, "elapsed": time.perf_counter() - t0,
            "host_rates": sampler.rates if sampler is not None else []}


def measure(workload: str, seed: int, seconds: float, probes: int,
            traced: bool, spans_path=None) -> dict:
    cases = build_cases(workload, seed)
    passes, traced_passes, recorders, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases))
        if traced:
            traced_passes.append(run_pass(cases, recorders,
                                          pass_id=len(traced_passes)))
        elapsed = time.perf_counter() - start
        # Set-up probes are spread over the run rather than bunched at its
        # start, so that the host's speed swings over the run reach the
        # set-up time as they reach the passes.
        while len(setup) < probes and elapsed >= len(setup) * seconds / probes:
            setup.append(cold_setup(workload, seed))
            elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes)
        if elapsed + per_round > seconds:
            break
    while len(setup) < probes:
        setup.append(cold_setup(workload, seed))
    if spans_path is not None:
        write_spans(spans_path, recorders)
    return {"passes": passes, "traced_passes": traced_passes,
            "setup_probes": setup,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup_probe(workload, seed)
    elif mode == "measure":
        out = measure(workload, seed, float(argv[3]), int(argv[4]),
                      traced=False)
    elif mode == "trace":
        out = measure(workload, seed, float(argv[3]), int(argv[4]),
                      traced=True, spans_path=argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
