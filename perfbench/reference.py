"""The output check: every run's simulated results against a recorded
reference.

``reference.json`` holds, per workload, the program image digests, the
clean workloads' UART output digest (the same for every seed) and one
record per recorded seed:

* clean workloads: ``[exit code, cycles, instructions, events captured,
  events transmitted, invokes, bytes sent]``;
* ``bug_localize``: per case ``[verdict, mismatch cycle, localized
  component]``, where the verdict is ``mismatch`` (detected, with a debug
  report) or ``pass`` (the corruption was architecturally dead and
  escaped).

For a seed without a record, every case must still end in an accepted
verdict, match the digests, repeat the first pass exactly, and stay
inside the envelope of the recorded seeds (:func:`envelope`): a clean
run's every field within the recorded range widened by its own width,
and a fault class's verdict one it had at a recorded seed (a class that
was always detected must be detected), its component the recorded one
and its mismatch cycle within the widened range.  Regenerate with
``PYTHONPATH=src python3 perfbench/record.py --seeds 0-99``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from cases import CLEAN, TRIGGERS_PER_CLASS

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Verdicts a run may end in, per workload kind.
ACCEPTED = {"clean": ("pass",), "bug": ("mismatch", "pass")}


def load(path=REFERENCE_PATH) -> dict:
    with open(path) as src:
        return json.load(src)


def _kind(workload: str) -> str:
    return "clean" if workload in CLEAN else "bug"


def case_failure(workload: str, seed: int, index: int, case: dict,
                 first: Optional[dict], reference: dict,
                 bounds=None) -> Optional[str]:
    """Why ``case`` (case ``index`` of a pass) fails the check, or None.

    ``bounds`` is the recorded seeds' :func:`envelope`, used when
    ``seed`` has no record."""
    kind = _kind(workload)
    label = case["label"]
    if case["verdict"] not in ACCEPTED[kind]:
        return f"{label}: verdict {case['verdict']}"
    entry = reference.get(workload, {})
    digest = entry.get("images", {}).get(case["program"])
    if digest is not None and case["image"] != digest:
        return f"{label}: program image {case['image']} != {digest}"
    if kind == "clean" and "uart" in entry and case["uart"] != entry["uart"]:
        return f"{label}: UART output differs from the reference"
    recorded = entry.get("records", {}).get(str(seed))
    if recorded is not None:
        expected = recorded[index] if kind == "bug" else recorded
        if case["record"] != expected:
            return f"{label}: {case['record']} != reference {expected}"
    elif bounds is not None:
        outside = _outside_envelope(kind, index, case["record"], bounds)
        if outside is not None:
            return f"{label}: {outside}"
    if first is not None and case["record"] != first["record"]:
        return f"{label}: {case['record']} != first pass {first['record']}"
    return None


def _widened(values) -> tuple:
    low, high = min(values), max(values)
    return low - (high - low), high + (high - low)


def envelope(kind: str, records: dict):
    """What every recorded seed agrees on, as the check for a seed
    without a record.

    Clean workloads: ``(low, high)`` per record field.  ``bug_localize``:
    ``{fault class index: (verdicts, components, (low, high) of the
    mismatch cycle)}``; a case's class is its index in the pass divided
    by the triggers per class (the pass lists the catalogue in order).
    """
    if kind == "clean":
        return [_widened(column) for column in zip(*records.values())]
    seen: dict = {}
    for cases in records.values():
        for index, (verdict, cycle, component) in enumerate(cases):
            verdicts, components, cycles = seen.setdefault(
                index // TRIGGERS_PER_CLASS, (set(), set(), []))
            verdicts.add(verdict)
            if verdict == "mismatch":
                components.add(component)
                cycles.append(cycle)
    return {klass: (verdicts, components,
                    _widened(cycles) if cycles else None)
            for klass, (verdicts, components, cycles) in seen.items()}


def _outside_envelope(kind: str, index: int, record: list,
                      bounds) -> Optional[str]:
    if kind == "clean":
        for field, (value, (low, high)) in enumerate(zip(record, bounds)):
            if not low <= value <= high:
                return (f"field {field} = {value} outside the recorded "
                        f"seeds' envelope [{low}, {high}]")
        return None
    verdict, cycle, component = record
    verdicts, components, cycles = bounds[index // TRIGGERS_PER_CLASS]
    if verdict not in verdicts:
        return (f"verdict {verdict}; recorded seeds only gave "
                f"{sorted(verdicts)}")
    if verdict == "mismatch":
        if component not in components:
            return (f"localized to {component}; recorded seeds gave "
                    f"{sorted(components)}")
        if not cycles[0] <= cycle <= cycles[1]:
            return (f"mismatch at cycle {cycle}, outside the recorded "
                    f"seeds' envelope [{cycles[0]}, {cycles[1]}]")
    return None


def pass_failures(workload: str, seed: int, cases: List[dict],
                  first: Optional[List[dict]], reference: dict
                  ) -> List[str]:
    records = reference.get(workload, {}).get("records", {})
    bounds = envelope(_kind(workload), records) \
        if records and str(seed) not in records else None
    failures = []
    for index, case in enumerate(cases):
        failure = case_failure(workload, seed, index, case,
                               first[index] if first else None, reference,
                               bounds)
        if failure is not None:
            failures.append(failure)
    return failures
