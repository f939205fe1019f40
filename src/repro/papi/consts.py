"""PAPI constants: error codes, EventSet states, preset event names."""

from __future__ import annotations

import enum

PAPI_OK = 0


class PapiErrorCode(enum.IntEnum):
    """Error returns, matching papi.h values."""

    EINVAL = -1      # Invalid argument
    ENOMEM = -2      # Insufficient memory
    ESYS = -3        # A system/C library call failed
    ECMP = -4        # Not supported by component
    EBUG = -5        # Internal error
    ENOEVNT = -7     # Event does not exist
    ECNFLCT = -8     # Event exists but cannot be counted due to conflict
    ENOTRUN = -9     # EventSet is currently not running
    EISRUN = -10     # EventSet is currently counting
    ENOEVST = -12    # No such EventSet
    ENOTPRESET = -13 # Event is not a valid preset
    ENOCNTR = -14    # Hardware does not support performance counters
    EMISC = -15      # Unknown error
    EPERM = -16      # Permission level does not permit operation
    ENOINIT = -17    # PAPI hasn't been initialized yet
    ENOCMP = -18     # Component index isn't set
    ENOSUPP = -19    # Not supported
    EMULPASS = -24   # Would need multiple passes / multiplexing


class PapiState(enum.Flag):
    """EventSet state flags (PAPI_STOPPED / PAPI_RUNNING subset)."""

    STOPPED = enum.auto()
    RUNNING = enum.auto()


#: Preset name -> native event string per pfm PMU family.  A preset is
#: available on a PMU if its family key matches; on heterogeneous machines
#: the patched PAPI turns these into DERIVED_ADD events across all core
#: PMUs (§V-2).
PRESETS: dict[str, dict[str, str]] = {
    "PAPI_TOT_INS": {
        "intel": "INST_RETIRED:ANY",
        "arm": "INST_RETIRED",
    },
    "PAPI_TOT_CYC": {
        "intel": "CPU_CLK_UNHALTED:THREAD",
        "arm": "CPU_CYCLES",
    },
    "PAPI_REF_CYC": {
        "intel": "CPU_CLK_UNHALTED:REF_TSC",
        "arm": "BUS_CYCLES",
    },
    "PAPI_FP_OPS": {
        "intel": "FP_ARITH_INST_RETIRED:ALL",
        "arm": "ASE_SPEC",
    },
    "PAPI_BR_INS": {
        "intel": "BR_INST_RETIRED:ALL_BRANCHES",
        "arm": "BR_PRED",
    },
    "PAPI_BR_MSP": {
        "intel": "BR_MISP_RETIRED:ALL_BRANCHES",
        "arm": "BR_MIS_PRED",
    },
    "PAPI_L3_TCA": {
        "intel": "LONGEST_LAT_CACHE:REFERENCE",
        "arm": "L3D_CACHE",
    },
    "PAPI_L3_TCM": {
        "intel": "LONGEST_LAT_CACHE:MISS",
        "arm": "L3D_CACHE_REFILL",
    },
    "PAPI_L2_TCA": {
        "intel": "L2_RQSTS:REFERENCES",
        "arm": "L2D_CACHE",
    },
    "PAPI_L2_TCM": {
        "intel": "L2_RQSTS:MISS",
        "arm": "L2D_CACHE_REFILL",
    },
    "PAPI_RES_STL": {
        "intel": "CYCLE_ACTIVITY:STALLS_TOTAL",
        "arm": "STALL_BACKEND",
    },
}


def pmu_family(pfm_pmu_name: str) -> str:
    """Family key used by the preset table."""
    return "arm" if pfm_pmu_name.startswith("arm_") else "intel"
