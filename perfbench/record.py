"""Record ``reference.json``: one untraced pass per workload and seed.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py --seeds 0-99

Existing records for other seeds are kept; delete ``reference.json``
first when the programs themselves changed.  Re-record only when a change
is meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import CLEAN, WORKLOADS, build_cases  # noqa: E402
from reference import ACCEPTED, REFERENCE_PATH  # noqa: E402
from worker import run_pass  # noqa: E402


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def dump(reference: dict) -> str:
    """``reference`` as JSON with one line per recorded seed."""
    blocks = []
    for workload, entry in sorted(reference.items()):
        fields = [f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                  for key, value in sorted(entry.items()) if key != "records"]
        records = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(record)}"
            for seed, record in sorted(entry["records"].items(),
                                       key=lambda item: int(item[0])))
        fields.append(f'  "records": {{\n{records}\n  }}')
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(fields)
                      + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99")
    args = parser.parse_args()
    reference = json.loads(REFERENCE_PATH.read_text()) \
        if REFERENCE_PATH.exists() else {}
    for workload in WORKLOADS:
        kind = "clean" if workload in CLEAN else "bug"
        entry = reference.setdefault(workload, {"images": {}, "records": {}})
        for seed in _seeds(args.seeds):
            cases = run_pass(build_cases(workload, seed))["cases"]
            for case in cases:
                if case["verdict"] not in ACCEPTED[kind]:
                    raise SystemExit(f"{workload} seed {seed}: {case['label']}"
                                     f" ended in {case['verdict']}")
                known = entry["images"].setdefault(case["program"],
                                                   case["image"])
                if known != case["image"]:
                    raise SystemExit(f"{case['program']}: image changed")
                if kind == "clean":
                    uart = entry.setdefault("uart", case["uart"])
                    if uart != case["uart"]:
                        raise SystemExit(f"{workload} seed {seed}: UART "
                                         "output depends on the seed")
            entry["records"][str(seed)] = (
                cases[0]["record"] if kind == "clean"
                else [case["record"] for case in cases])
            print(workload, seed, flush=True)
        REFERENCE_PATH.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
