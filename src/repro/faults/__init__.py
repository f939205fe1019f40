"""Deterministic fault injection for chaos-testing the simulated stack.

Build a :class:`FaultPlan` (by hand or from a seed via
:meth:`FaultPlan.random`), then attach it to a running
:class:`~repro.system.System` with :class:`FaultInjector` (or
``System.inject_faults``).  Faults fire from the engine tick loop with
``ticks``/``events`` engine parity guaranteed by the injector's span guards.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CounterStorm,
    CpuOffline,
    CpuOnline,
    FaultPlan,
    Injection,
    PerfSyscallStorm,
    SensorDropout,
    SensorRestore,
)

__all__ = [
    "CounterStorm",
    "CpuOffline",
    "CpuOnline",
    "FaultInjector",
    "FaultPlan",
    "Injection",
    "PerfSyscallStorm",
    "SensorDropout",
    "SensorRestore",
]
