"""The repository's benchmark: the shipped default configuration, end to
end, with a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload linux_boot_like --seed 1 \\
        --seconds 38 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (host time and modeled
time, each labelled); with ``--trace 1`` a separate traced run gives the
per-layer metrics.  Every run is checked against ``reference.json``.  The
last output line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any run failed
the check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import WORKLOADS  # noqa: E402
from hostspeed import REFERENCE_RATE  # noqa: E402

#: Cold-process set-up probes per run, spread over the measuring run
#: (after one discarded probe that pays for compiling the sources to
#: bytecode).
SETUP_PROBES = 9
#: The whole invocation must end within this many seconds.
DEADLINE_S = 170.0
#: Output directory, relative to the working directory.
OUT_DIR = ".perfbench"


def _worker(args, env, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    common = [args.workload, str(args.seed)]
    try:
        _worker(["setup"] + common, env, remaining())
        timing = [str(args.seconds), str(SETUP_PROBES)]
        if args.trace:
            out = _worker(["trace"] + common + timing
                          + [str(out_dir / f"{stem}.spans")],
                          env, remaining())
        else:
            out = _worker(["measure"] + common + timing, env, remaining())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (out_dir / f"{stem}.json").write_text(json.dumps(out))
    probes = out["setup_probes"]

    import metrics
    import reference

    expected = reference.load()
    first = out["passes"][0]["cases"]
    failures = []
    attempted = 0
    for run in out["passes"] + out["traced_passes"]:
        attempted += len(run["cases"])
        failures += reference.pass_failures(args.workload, args.seed,
                                            run["cases"], first, expected)
    ok_frac = (attempted - len(failures)) / attempted
    if args.trace:
        values = metrics.per_layer(out, probes)
        units = dict(metrics.PER_LAYER)
    else:
        values = metrics.end_to_end(out, probes, ok_frac)
        units = {name: unit for name, unit, _c, _d in metrics.END_TO_END}

    labels = next((c["labels"] for c in first if "labels" in c), {})
    fallbacks = ",".join(labels.get("capture_fallbacks", [])) or "none"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          "XiangShan-Default DUT, CONFIG_BNSD, one process, one simulation "
          "thread, passes back to back (closed loop)")
    print(f"  path: capture_fallbacks={fallbacks} "
          f"jit={'on' if labels.get('jit') else 'off'} "
          f"packer={labels.get('packer')}")
    rates = metrics.host_rates(out)
    print(f"  host speed: {len(rates)} samples of the kernel, "
          f"{_format(min(rates) / 1e6)}-{_format(max(rates) / 1e6)} Mop/s, "
          f"median {_format(statistics.median(rates) / 1e6)}; host times "
          f"are stated at {_format(REFERENCE_RATE / 1e6)} Mop/s")
    print(f"  passes: {len(out['passes'])} untraced, "
          f"{len(out['traced_passes'])} traced; {attempted} runs, "
          f"{len(failures)} failed; {metrics.report_samples(out)} "
          f"report_s samples; {SETUP_PROBES} set-up probes")
    if not args.trace:
        clocks = {name: clock for name, _u, clock, _d in metrics.END_TO_END}
        for name, value in values.items():
            print(f"  {name:24s} {_format(value):>12s} {units[name]:6s} "
                  f"{clocks[name]}")
    else:
        for name, value in values.items():
            print(f"  {name:32s} {_format(value):>12s} {units[name]}")
    if not args.trace:
        print(f"  (cycles_per_s at the host's own speed: "
              f"{_format(metrics.context_cycles_per_s(out, 'wall'))} 1/s "
              "of wall time, "
              f"{_format(metrics.context_cycles_per_s(out, 'cpu'))} 1/s "
              "of the process's CPU time; context only)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
