"""The shipped examples must run and print what they promise."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    buf = io.StringIO()
    with redirect_stdout(buf):
        mod.main()
    return buf.getvalue()


def test_quickstart_reproduces_the_split():
    out = _run_example("quickstart")
    assert "heterogeneous=True" in out
    assert "Average instructions p:" in out
    # The chosen seed lands essentially on the paper's numbers.
    assert "p: 845630 e: 166810" in out


def test_core_detection_survey():
    out = _run_example("core_detection")
    assert "MISLEADING" in out              # x86 cpuinfo pitfall
    assert "cpuid is Intel-specific" in out  # ARM limitation
    assert "apmu0" in out                    # ACPI renaming
    assert out.count("-> consensus") == 6


def test_perf_stat_tool_example():
    out = _run_example("perf_stat_tool")
    assert "PAPI calipered region" in out
    assert "region IPC = 3.00" in out


def test_biglittle_throttling_example():
    out = _run_example("biglittle_throttling")
    assert "throttled within" in out
    assert "faster than 2 throttled big" in out


def test_guided_scheduling_example():
    out = _run_example("guided_scheduling")
    assert "guided" in out and "inverted" in out
    assert "makespan" in out


def test_hpl_motivation_importable():
    """The heavyweight example runs the experiments that
    tests/test_experiments.py checks at the quick size; here we only
    verify it loads and wires up the experiment modules."""
    spec = importlib.util.spec_from_file_location(
        "hpl_motivation", EXAMPLES / "hpl_motivation.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.main)


def test_overflow_profiling_example():
    out = _run_example("overflow_profiling")
    assert "overflow samples" in out
    assert "cpu_core" in out and "cpu_atom" in out
