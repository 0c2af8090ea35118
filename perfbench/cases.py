"""Workload definitions: a workload name and a seed become the list of
co-simulation cases one pass of the benchmark runs.

Everything here imports :mod:`repro` lazily, inside the functions, so the
set-up probe can time ``import repro`` itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional

#: Clean workloads: one shipped program, run to completion, must pass.
CLEAN = ("linux_boot_like", "alu_hotloop")
#: The debug-path workload: every Table 6 fault class armed in a host
#: program that executes the fault's site.
BUG = "bug_localize"
WORKLOADS = CLEAN + (BUG,)

#: Host program per fault class.  Vector faults need vector instructions,
#: the FP writeback fault needs FP writes; every other class (exception,
#: interrupt, memory, TLB, CSR, scalar) has its site in the mini OS.
_VECTOR_FAULTS = frozenset({"wrong_vstart_update", "vector_lane_corrupt",
                            "vector_exception_track"})
_FP_FAULTS = frozenset({"fp_writeback_corrupt"})
#: Fault triggers (retired-instruction index) are drawn from this range,
#: kept narrow so that the report-time percentiles measure the debug path
#: rather than the spread of the triggers.
TRIGGER_RANGE = (290, 310)
#: Triggers drawn per fault class in one pass.  Whether a corruption is
#: architecturally dead (and escapes) depends on the seed's DUT timing;
#: several draws per class keep the mix of detected cases, and so the
#: report-time percentiles, steady from seed to seed.
TRIGGERS_PER_CLASS = 3


@dataclass(frozen=True)
class Case:
    """One co-simulation: a program image plus, for the debug workload,
    one armed fault."""

    label: str
    program: str
    image: bytes
    uart_input: bytes
    max_cycles: int
    seed: int
    fault: Optional[str] = None
    trigger: Optional[int] = None


def host_program(fault_name: str) -> str:
    if fault_name in _VECTOR_FAULTS:
        return "rvv_test"
    if fault_name in _FP_FAULTS:
        return "fp_kernel"
    return "mini_os"


def fault_triggers(seed: int) -> List[tuple]:
    """``(fault name, trigger)`` pairs, ``TRIGGERS_PER_CLASS`` for every
    catalogue entry, drawn from ``seed`` in catalogue order."""
    from repro.dut import FAULT_CATALOGUE

    rng = random.Random(seed)
    return [(spec.name, rng.randint(*TRIGGER_RANGE))
            for spec in FAULT_CATALOGUE
            for _ in range(TRIGGERS_PER_CLASS)]


def build_cases(workload: str, seed: int) -> List[Case]:
    """The cases of one pass of ``workload`` under ``seed``.

    The seed reaches the program only as the DUT's stall/commit RNG seed
    and, for ``bug_localize``, the fault triggers; the program images do
    not depend on it.
    """
    from repro.workloads import build

    if workload in CLEAN:
        wl = build(workload)
        return [Case(workload, workload, wl.image, wl.uart_input,
                     wl.max_cycles, seed)]
    if workload != BUG:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"valid: {', '.join(WORKLOADS)}")
    hosts = {}
    cases = []
    for name, trigger in fault_triggers(seed):
        program = host_program(name)
        if program not in hosts:
            hosts[program] = build(program)
        wl = hosts[program]
        cases.append(Case(f"{name}@{trigger}", program, wl.image,
                          wl.uart_input, wl.max_cycles, seed,
                          fault=name, trigger=trigger))
    return cases


def make_cosim(case: Case):
    """Construct the shipped-default co-simulation for ``case`` (XiangShan
    Default DUT, ``CONFIG_BNSD`` untouched) and arm its fault, if any."""
    from repro import CONFIG_BNSD, XIANGSHAN_DEFAULT, CoSimulation
    from repro.dut import fault_by_name

    cosim = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD, case.image,
                         seed=case.seed, uart_input=case.uart_input)
    if case.fault is not None:
        fault_by_name(case.fault).install(cosim.dut.cores[0], case.trigger)
    return cosim


def image_digest(image: bytes) -> str:
    return hashlib.sha256(image).hexdigest()[:16]
