"""Unit tests for the virtual /sys and /proc trees."""

import pytest

from repro.checkpoint import load_object, save_object
from repro.hw.machines import orangepi_800
from repro.kernel.sched.affinity import parse_cpu_list
from repro.monitor.sampler import Sampler
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System


class TestSysfsPmus:
    def test_pmu_type_files(self, raptor):
        t_core = int(raptor.sysfs.read("/sys/devices/cpu_core/type"))
        t_atom = int(raptor.sysfs.read("/sys/devices/cpu_atom/type"))
        assert t_core != t_atom
        assert t_core == raptor.perf.registry.by_name["cpu_core"].type

    def test_pmu_cpus_files(self, raptor):
        cpus_core = parse_cpu_list(raptor.sysfs.read("/sys/devices/cpu_core/cpus"))
        cpus_atom = parse_cpu_list(raptor.sysfs.read("/sys/devices/cpu_atom/cpus"))
        assert cpus_core == set(raptor.topology.cpus_of_type("P-core"))
        assert cpus_atom == set(raptor.topology.cpus_of_type("E-core"))
        assert not cpus_core & cpus_atom

    def test_uncore_has_cpumask_not_cpus(self, raptor):
        assert raptor.sysfs.exists("/sys/devices/uncore_llc/cpumask")
        assert not raptor.sysfs.exists("/sys/devices/uncore_llc/cpus")

    def test_arm_firmware_naming(self, orangepi, orangepi_acpi):
        """devicetree and ACPI firmware name the same PMU differently."""
        assert orangepi.sysfs.exists("/sys/devices/armv8_cortex_a72/type")
        assert not orangepi_acpi.sysfs.exists("/sys/devices/armv8_cortex_a72/type")
        assert orangepi_acpi.sysfs.exists("/sys/devices/apmu0/type")

    def test_listdir(self, raptor):
        names = raptor.sysfs.listdir("/sys/devices")
        assert "cpu_core" in names and "cpu_atom" in names

    def test_missing_path(self, raptor):
        with pytest.raises(FileNotFoundError):
            raptor.sysfs.read("/sys/no/such/file")
        with pytest.raises(FileNotFoundError):
            raptor.sysfs.listdir("/sys/no/such/dir")


class TestSysfsCpus:
    def test_cpu_capacity_arm_only(self, raptor, orangepi):
        """cpu_capacity is an arm64-only interface, as §IV-B notes."""
        assert not raptor.sysfs.exists("/sys/devices/system/cpu/cpu0/cpu_capacity")
        cap_little = int(orangepi.sysfs.read("/sys/devices/system/cpu/cpu0/cpu_capacity"))
        cap_big = int(orangepi.sysfs.read("/sys/devices/system/cpu/cpu4/cpu_capacity"))
        assert cap_big == 1024
        assert 0 < cap_little < cap_big

    def test_cpufreq_limits(self, raptor):
        max_p = int(raptor.sysfs.read("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq"))
        e_cpu = raptor.topology.cpus_of_type("E-core")[0]
        max_e = int(raptor.sysfs.read(f"/sys/devices/system/cpu/cpu{e_cpu}/cpufreq/cpuinfo_max_freq"))
        assert max_p == 5_100_000  # kHz
        assert max_e == 4_100_000

    def test_scaling_cur_freq_is_live(self, raptor):
        path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"
        before = int(raptor.sysfs.read(path))
        from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
        t = raptor.machine.spawn_program(
            "w", [ComputePhase(1e9, constant_rates(PhaseRates(ipc=2.0)))], affinity={0}
        )
        raptor.machine.run_ticks(50)
        during = int(raptor.sysfs.read(path))
        assert during > before

    def test_midr_file_on_arm(self, orangepi):
        midr = orangepi.sysfs.read(
            "/sys/devices/system/cpu/cpu4/regs/identification/midr_el1"
        )
        assert int(midr, 16) == orangepi.machine.cpuid.midr(4).value

    def test_cache_sizes(self, raptor):
        l2_p = raptor.sysfs.read("/sys/devices/system/cpu/cpu0/cache/index2/size")
        e_cpu = raptor.topology.cpus_of_type("E-core")[0]
        l2_e = raptor.sysfs.read(f"/sys/devices/system/cpu/cpu{e_cpu}/cache/index2/size")
        assert l2_p == "2048K" and l2_e == "1024K"

    def test_proposed_types_interface_absent_by_default(self, raptor):
        assert not raptor.sysfs.exists("/sys/devices/system/cpu/types")

    def test_proposed_types_interface_optional(self):
        system = System("raptor-lake-i7-13700", dt_s=1e-3, expose_cpu_types=True)
        text = system.sysfs.read("/sys/devices/system/cpu/types")
        assert "P-core" in text and "E-core" in text


class TestThermalAndPowercap:
    def test_thermal_zone(self, raptor):
        assert raptor.sysfs.read("/sys/class/thermal/thermal_zone9/type") == "x86_pkg_temp"
        temp = int(raptor.sysfs.read("/sys/class/thermal/thermal_zone9/temp"))
        assert temp == pytest.approx(25_000, abs=2000)

    def test_powercap_limits(self, raptor):
        base = "/sys/class/powercap/intel-rapl/intel-rapl:0"
        assert int(raptor.sysfs.read(f"{base}/constraint_0_power_limit_uw")) == 65_000_000
        assert int(raptor.sysfs.read(f"{base}/constraint_1_power_limit_uw")) == 219_000_000

    def test_energy_uj_advances(self, raptor):
        base = "/sys/class/powercap/intel-rapl/intel-rapl:0"
        before = int(raptor.sysfs.read(f"{base}/energy_uj"))
        raptor.machine.run_ticks(100)
        after = int(raptor.sysfs.read(f"{base}/energy_uj"))
        assert after > before

    def test_no_powercap_on_arm(self, orangepi):
        assert not orangepi.sysfs.exists(
            "/sys/class/powercap/intel-rapl/intel-rapl:0/energy_uj"
        )


def _read_tree(sysfs, path="/sys"):
    """Every file under ``path`` and what it reads, found by listdir."""
    files = {}
    for name in sysfs.listdir(path):
        child = f"{path}/{name}"
        if sysfs.listdir(child):
            files.update(_read_tree(sysfs, child))
        else:
            files[child] = sysfs.read(child)
    return files


class TestSysfsRestore:
    @pytest.mark.parametrize("preset", ["raptor-lake-i7-13700", "orangepi-800"])
    def test_restored_tree_reads_as_the_original(self, tmp_path, preset):
        """A snapshot drops the tree and a restore rebuilds it on first
        use, so the restored /sys lists and reads as the original did,
        also from a payload that reaches the machine before its system:
        the sampler's tick hook leads from the machine to the system, so
        unpickling sets the SysFs state before the machine's."""
        system = System(preset, dt_s=0.01)
        system.machine.spawn_program(
            "w", [ComputePhase(1e9, constant_rates(PhaseRates(ipc=2.0)))]
        )
        Sampler(system, period_s=0.01).start()
        system.machine.run_for(0.05)
        path = str(tmp_path / "s.snap")
        save_object({"machine": system.machine, "system": system}, path)
        restored = load_object(path)
        assert restored["system"].machine is restored["machine"]
        tree = _read_tree(restored["system"].sysfs)
        assert len(tree) > 100
        assert tree == _read_tree(system.sysfs)


class TestProcfs:
    def test_x86_cpuinfo_identical_fms(self, raptor):
        """The paper's pitfall: P and E report the same family/model."""
        text = raptor.procfs.read("/proc/cpuinfo")
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 24
        fms = set()
        for b in blocks:
            fam = model = step = None
            for line in b.splitlines():
                if line.startswith("cpu family"):
                    fam = line.split(":")[1].strip()
                elif line.startswith("model\t"):
                    model = line.split(":")[1].strip()
                elif line.startswith("stepping"):
                    step = line.split(":")[1].strip()
            fms.add((fam, model, step))
        assert len(fms) == 1

    def test_arm_cpuinfo_distinct_parts(self, orangepi):
        text = orangepi.procfs.read("/proc/cpuinfo")
        parts = [
            line.split(":")[1].strip()
            for line in text.splitlines()
            if line.startswith("CPU part")
        ]
        assert len(parts) == 6
        assert len(set(parts)) == 2

    def test_unknown_path(self, raptor):
        with pytest.raises(FileNotFoundError):
            raptor.procfs.read("/proc/meminfo")


class TestSyscallCost:
    def test_costs_charged_and_tallied(self, raptor):
        from repro.sim.task import Program, SimThread

        t = raptor.machine.spawn(SimThread("x", Program([])))
        stats0 = raptor.perf.cost.stats.snapshot()
        raptor.perf.cost.charge(t, "read")
        raptor.perf.cost.charge(None, "ioctl")
        d = raptor.perf.cost.stats.delta(stats0)
        assert d.calls == {"read": 1, "ioctl": 1}
        assert d.instructions_charged > 0
        # Charged to the thread as queued overhead work.
        assert len(t._injected) == 1

    def test_group_read_cheaper_than_two_reads(self):
        from repro.kernel.syscall_cost import SYSCALL_COST_INSTRUCTIONS as C

        assert C["read_group"] < 2 * C["read"]
        assert C["rdpmc"] < C["read"] / 10
