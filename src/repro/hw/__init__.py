"""Simulated heterogeneous CPU hardware.

This package models the hardware layer the paper's experiments run on:
core microarchitectures (:mod:`repro.hw.coretype`), CPU topologies
(:mod:`repro.hw.topology`), concrete machine presets
(:mod:`repro.hw.machines`), DVFS (:mod:`repro.hw.dvfs`), the RC thermal
model (:mod:`repro.hw.thermal`), the power model (:mod:`repro.hw.power`),
RAPL energy accounting and power capping (:mod:`repro.hw.rapl`), the
shared last-level cache (:mod:`repro.hw.cache`) and CPU identification
(:mod:`repro.hw.cpuid`).
"""

from repro.hw.coretype import CoreType, ArchEvent
from repro.hw.topology import Core, CpuTopology
from repro.hw.machines import (
    raptor_lake_i7_13700,
    orangepi_800,
    homogeneous_xeon,
    dynamiq_three_tier,
    MACHINE_PRESETS,
)
from repro.hw.dvfs import DvfsGovernor
from repro.hw.thermal import ThermalModel, ThermalZone
from repro.hw.power import PowerModel
from repro.hw.rapl import RaplDomain, RaplPackage
from repro.hw.cache import LlcModel
from repro.hw.cpuid import CpuidEmulator, ArmMidr

__all__ = [
    "CoreType",
    "ArchEvent",
    "Core",
    "CpuTopology",
    "raptor_lake_i7_13700",
    "orangepi_800",
    "homogeneous_xeon",
    "dynamiq_three_tier",
    "MACHINE_PRESETS",
    "DvfsGovernor",
    "ThermalModel",
    "ThermalZone",
    "PowerModel",
    "RaplDomain",
    "RaplPackage",
    "LlcModel",
    "CpuidEmulator",
    "ArmMidr",
]
