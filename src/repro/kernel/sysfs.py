"""Simulated ``/sys`` tree.

Everything §IV-B of the paper says tools scrape to figure out a machine's
core types is materialized here:

* ``/sys/devices/<pmu>/type`` and ``.../cpus`` — the per-PMU files the
  perf tool scans (with the ARM firmware-naming quirk: devicetree boards
  and ACPI servers publish different names for the same PMU);
* ``/sys/devices/system/cpu/cpuX/cpu_capacity`` — the opaque 0..1024
  number (ARM only, as on real kernels);
* ``cpufreq`` limits and ``cache`` sizes — the "cannot always be
  guaranteed to work" heuristics;
* thermal zones and the RAPL powercap tree used by the monitoring
  scripts;
* optionally the *proposed but never merged*
  ``/sys/devices/system/cpu/types`` interface [Neri 2020], off by
  default to match reality.

Files are dynamic: reading ``scaling_cur_freq`` reflects the DVFS state
at read time.  The tree itself is only a view of the machine, built on
first use: a snapshot carries the machine, not the tree's few hundred
provider closures, and a restored ``SysFs`` builds its tree again.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.checkpoint.surface import snapshot_surface
from repro.hw.sensor import SensorReadError
from repro.kernel.errno import Errno, KernelError, KernelFileNotFound
from repro.kernel.sched.affinity import format_cpu_list

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.perf.subsystem import PerfSubsystem
    from repro.sim.engine import Machine

Provider = Callable[[], str]
Writer = Callable[[str], None]


@snapshot_surface(
    state=("machine", "perf", "expose_cpu_types"),
    caches=("_files", "_writers"),
    rebuild="_drop_tree",
    note=(
        "The path -> provider tree is derived from the machine's "
        "topology, spec and PMU registry, all fixed at construction, "
        "and every dynamic file reads the machine when read.  It is "
        "built on first use, after a restore too, never while "
        "unpickling: a payload that reaches the machine first sets "
        "this object's state before the machine's."
    ),
)
class SysFs:
    """A virtual filesystem of path -> content providers.

    Most files are read-only; a few control files (notably
    ``/sys/devices/system/cpu/cpuN/online``) accept :meth:`write`.
    Missing paths raise :class:`KernelFileNotFound` — a
    :class:`KernelError` carrying ``ENOENT`` that is also a
    ``FileNotFoundError`` for backwards compatibility.
    """

    def __init__(
        self,
        machine: "Machine",
        perf: Optional["PerfSubsystem"] = None,
        expose_cpu_types: bool = False,
    ):
        self.machine = machine
        self.perf = perf
        self.expose_cpu_types = expose_cpu_types
        self._drop_tree()

    # -- filesystem interface ----------------------------------------------

    def read(self, path: str) -> str:
        path = path.rstrip("/")
        provider = self._tree().get(path)
        if provider is None:
            raise KernelFileNotFound(path)
        try:
            return provider()
        except SensorReadError as exc:
            # A dropped-out sensor surfaces as EIO, like a dead hwmon.
            raise KernelError(Errno.EIO, f"{path}: {exc}") from exc

    def write(self, path: str, value: str) -> None:
        """Write to a control file (``echo value > path``)."""
        path = path.rstrip("/")
        files = self._tree()
        writer = self._writers.get(path)
        if writer is None:
            if path in files:
                raise KernelError(Errno.EPERM, f"read-only file: {path}")
            raise KernelFileNotFound(path)
        writer(value.strip())

    def exists(self, path: str) -> bool:
        path = path.rstrip("/")
        files = self._tree()
        if path in files:
            return True
        prefix = path + "/"
        return any(p.startswith(prefix) for p in files)

    def listdir(self, path: str) -> list[str]:
        path = path.rstrip("/")
        prefix = path + "/"
        files = self._tree()
        names = {
            p[len(prefix):].split("/", 1)[0]
            for p in files
            if p.startswith(prefix)
        }
        if not names and path not in files:
            raise KernelFileNotFound(path)
        return sorted(names)

    def add(self, path: str, provider: Provider | str, writer: Optional[Writer] = None) -> None:
        """Add a file to the tree.  The tree is a cache that a snapshot
        drops and :meth:`_build` makes again, so a file added from
        outside the build does not survive a restore."""
        if isinstance(provider, str):
            value = provider
            provider = lambda: value  # noqa: E731
        path = path.rstrip("/")
        self._tree()[path] = provider
        if writer is not None:
            self._writers[path] = writer

    # -- control-file handlers ----------------------------------------------

    def _write_cpu_online(self, cpu: int, value: str) -> None:
        if value == "0":
            self.machine.offline_cpu(cpu)
        elif value == "1":
            self.machine.online_cpu(cpu)
        else:
            raise KernelError(
                Errno.EINVAL, f"cpu{cpu}/online accepts 0 or 1, got {value!r}"
            )

    # -- tree construction ---------------------------------------------------

    def _tree(self) -> dict[str, Provider]:
        """The path -> provider map, built on first use."""
        if self._files is None:
            self._build()
        return self._files

    def _drop_tree(self) -> None:
        self._files: Optional[dict[str, Provider]] = None

    def _build(self) -> None:
        self._files = {}
        self._writers: dict[str, Writer] = {}
        m = self.machine
        topo = m.topology
        spec = m.spec
        is_arm = any(ct.vendor == "arm" for ct in topo.core_types)

        # PMU directories.
        if self.perf is not None:
            for pmu in self.perf.registry.by_type.values():
                base = f"/sys/devices/{pmu.name}"
                self.add(f"{base}/type", str(pmu.type))
                if pmu.kind.value == "cpu":
                    self.add(f"{base}/cpus", format_cpu_list(pmu.cpus))
                else:
                    self.add(f"{base}/cpumask", format_cpu_list(pmu.cpus or [0]))

        # Per-CPU directories.  online/offline reflect live hotplug state.
        self.add(
            "/sys/devices/system/cpu/online",
            lambda: format_cpu_list(topo.online_cpus()),
        )
        self.add(
            "/sys/devices/system/cpu/offline",
            lambda: format_cpu_list(topo.offline_cpus()),
        )
        self.add(
            "/sys/devices/system/cpu/possible",
            format_cpu_list(c.cpu_id for c in topo.cores),
        )
        for core in topo.cores:
            cpu = core.cpu_id
            base = f"/sys/devices/system/cpu/cpu{cpu}"
            ct = core.ctype
            if cpu != 0:
                # cpu0 has no online file: not hotpluggable, as on x86.
                self.add(
                    f"{base}/online",
                    (lambda c=core: "1" if c.online else "0"),
                    writer=(lambda v, c=cpu: self._write_cpu_online(c, v)),
                )
            if is_arm:
                # cpu_capacity is exported by arm64 kernels only.
                self.add(f"{base}/cpu_capacity", str(topo.capacity_of(cpu)))
                midr = m.cpuid.midr(cpu)
                self.add(
                    f"{base}/regs/identification/midr_el1",
                    f"{midr.value:#018x}",
                )
            self.add(
                f"{base}/cpufreq/cpuinfo_max_freq", str(ct.max_freq_mhz * 1000)
            )
            self.add(
                f"{base}/cpufreq/cpuinfo_min_freq", str(ct.min_freq_mhz * 1000)
            )
            self.add(
                f"{base}/cpufreq/scaling_cur_freq",
                (lambda c=cpu: str(round(m.governor.freq_of_cpu_mhz(c) * 1000))),
            )
            self.add(f"{base}/topology/core_id", str(core.phys_core))
            self.add(f"{base}/topology/physical_package_id", "0")
            self.add(
                f"{base}/topology/thread_siblings_list",
                format_cpu_list([cpu, *topo.smt_siblings(cpu)]),
            )
            self.add(f"{base}/cache/index0/level", "1")
            self.add(f"{base}/cache/index0/size", f"{ct.l1d_kib}K")
            self.add(f"{base}/cache/index0/type", "Data")
            self.add(f"{base}/cache/index2/level", "2")
            self.add(f"{base}/cache/index2/size", f"{ct.l2_kib}K")
            self.add(f"{base}/cache/index2/type", "Unified")
            llc_kib = round(float(spec.extra.get("llc_mib", 8.0)) * 1024)
            self.add(f"{base}/cache/index3/level", "3")
            self.add(f"{base}/cache/index3/size", f"{llc_kib}K")
            self.add(f"{base}/cache/index3/type", "Unified")

        # The proposed-but-unmerged types interface.
        if self.expose_cpu_types:
            lines = []
            for ct in topo.core_types:
                cpus = format_cpu_list(topo.cpus_of_type(ct.name))
                lines.append(f"{ct.name}: {cpus}")
            self.add("/sys/devices/system/cpu/types", "\n".join(lines))

        # Thermal zone.
        tz = f"/sys/class/thermal/thermal_zone{spec.thermal_zone_index}"
        self.add(f"{tz}/type", spec.thermal_zone_name)
        self.add(f"{tz}/temp", lambda: str(m.thermal.zone.read_millic()))

        # RAPL powercap tree.
        if spec.has_rapl:
            base = "/sys/class/powercap/intel-rapl/intel-rapl:0"
            self.add(f"{base}/name", "package-0")
            self.add(f"{base}/energy_uj", lambda: str(m.rapl.package.read_uj()))
            self.add(
                f"{base}/constraint_0_name", "long_term"
            )
            self.add(
                f"{base}/constraint_0_power_limit_uw",
                str(round(spec.rapl_pl1_w * 1e6)),
            )
            self.add(f"{base}/constraint_1_name", "short_term")
            self.add(
                f"{base}/constraint_1_power_limit_uw",
                str(round(spec.rapl_pl2_w * 1e6)),
            )
            self.add(
                f"{base}:0/name", "core"
            )
            self.add(
                f"{base}:0/energy_uj", lambda: str(m.rapl.cores.read_uj())
            )
            self.add(f"{base}:1/name", "dram")
            self.add(
                f"{base}:1/energy_uj", lambda: str(m.rapl.dram.read_uj())
            )
