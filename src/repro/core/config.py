"""System configurations.

A *configuration* (paper §II-A) is the set of VMs in the system, the
physical machine each one is hosted on, the CPU fraction allocated to
it, and the set of powered-on hosts.  Configurations are immutable and
hashable so the A* optimizer can deduplicate search vertices.

A configuration is a *candidate* when it satisfies the allocation
constraints (paper §IV-B): per host, the VM CPU caps must fit within
the host share reserved for guests, memory must fit, and the VM count
must not exceed the per-host limit.  Configurations that violate these
rules are *intermediate*: legal as search vertices, illegal to deploy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class VmDescriptor:
    """Static identity of a VM: which application tier replica it runs.

    The descriptor never changes at runtime; placement and CPU cap live
    in :class:`Configuration`.
    """

    vm_id: str
    app_name: str
    tier_name: str
    memory_mb: int = 200

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError(f"VM {self.vm_id}: memory must be positive")


class VmCatalog:
    """Immutable registry of every VM (active or dormant) in a scenario."""

    def __init__(self, descriptors: Iterable[VmDescriptor]) -> None:
        self._by_id: dict[str, VmDescriptor] = {}
        by_tier: dict[tuple[str, str], list[VmDescriptor]] = {}
        for descriptor in descriptors:
            if descriptor.vm_id in self._by_id:
                raise ValueError(f"duplicate VM id {descriptor.vm_id!r}")
            self._by_id[descriptor.vm_id] = descriptor
            by_tier.setdefault(
                (descriptor.app_name, descriptor.tier_name), []
            ).append(descriptor)
        self._by_tier: dict[tuple[str, str], tuple[VmDescriptor, ...]] = {
            key: tuple(members) for key, members in by_tier.items()
        }

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[VmDescriptor]:
        return iter(self._by_id.values())

    def get(self, vm_id: str) -> VmDescriptor:
        """Descriptor for ``vm_id``; raises ``KeyError`` if unknown."""
        return self._by_id[vm_id]

    def vm_ids(self) -> tuple[str, ...]:
        """All VM ids, in insertion order."""
        return tuple(self._by_id)

    def for_tier(self, app_name: str, tier_name: str) -> tuple[VmDescriptor, ...]:
        """All VMs (placed or dormant) belonging to one application tier."""
        return self._by_tier.get((app_name, tier_name), ())

    def apps(self) -> tuple[str, ...]:
        """Application names present in the catalog, deduplicated in order."""
        seen: dict[str, None] = {}
        for descriptor in self._by_id.values():
            seen.setdefault(descriptor.app_name, None)
        return tuple(seen)


@dataclass(frozen=True)
class Placement:
    """Where a VM runs and how much CPU it may use.

    ``cpu_cap`` is a fraction of one host CPU enforced by the (simulated)
    Xen credit scheduler, e.g. ``0.4`` for a 40% cap.
    """

    host_id: str
    cpu_cap: float

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_cap <= 1.0:
            raise ValueError(f"cpu_cap must be in (0, 1], got {self.cpu_cap!r}")

    def __hash__(self) -> int:
        # Placements are hashed millions of times per search, but most
        # of the search's candidate children are ranked and discarded
        # without ever being hashed — compute lazily, cache forever.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.host_id, self.cpu_cap))
            object.__setattr__(self, "_hash", value)
            return value

    def with_cap(self, cpu_cap: float) -> "Placement":
        """Same host, different cap."""
        return Placement(self.host_id, cpu_cap)

    def with_host(self, host_id: str) -> "Placement":
        """Same cap, different host."""
        return Placement(host_id, self.cpu_cap)


@dataclass(frozen=True)
class ConstraintLimits:
    """Per-host allocation constraints (paper §V-A testbed settings)."""

    host_memory_mb: int = 1024
    dom0_memory_mb: int = 200
    max_vms_per_host: int = 4
    max_total_cpu_cap: float = 0.8
    min_vm_cpu_cap: float = 0.2
    cpu_cap_step: float = 0.1

    @property
    def guest_memory_mb(self) -> int:
        """Memory available to guests after the Dom-0 reservation."""
        return self.host_memory_mb - self.dom0_memory_mb


class Configuration:
    """Immutable assignment of VMs to hosts plus the powered-host set.

    VMs absent from ``placements`` are dormant (parked in the cold pool
    on the storage side) and consume no managed resources.
    """

    __slots__ = (
        "_placements",
        "_powered",
        "_items",
        "_hash",
        "_keys",
        "_by_host",
        "_used",
    )

    def __init__(
        self,
        placements: Mapping[str, Placement],
        powered_hosts: Iterable[str],
    ) -> None:
        items = tuple(sorted(placements.items()))
        powered = frozenset(powered_hosts)
        for vm_id, placement in items:
            if placement.host_id not in powered:
                raise ValueError(
                    f"VM {vm_id!r} placed on unpowered host {placement.host_id!r}"
                )
        object.__setattr__(self, "_placements", dict(items))
        object.__setattr__(self, "_powered", powered)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_keys", None)
        object.__setattr__(self, "_by_host", None)
        object.__setattr__(self, "_used", None)

    def _mapping(self) -> dict[str, Placement]:
        """The vm_id -> placement dict, built lazily.

        Configurations created via the fast functional updates defer
        the dict: most children the search generates are ranked by
        distance and discarded after one or two lookups.
        """
        mapping = self._placements
        if mapping is None:
            mapping = dict(self._items)
            object.__setattr__(self, "_placements", mapping)
        return mapping

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Configuration is immutable")

    def __getstate__(self) -> tuple:
        """Pickle only the defining state (placement items + powered
        set); derived caches rebuild lazily on the other side.  Needed
        because slots + the immutability guard break the default
        protocol."""
        return (self._items, self._powered)

    def __setstate__(self, state: tuple) -> None:
        items, powered = state
        object.__setattr__(self, "_placements", None)
        object.__setattr__(self, "_powered", powered)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_keys", None)
        object.__setattr__(self, "_by_host", None)
        object.__setattr__(self, "_used", None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._items == other._items and self._powered == other._powered

    def __hash__(self) -> int:
        # Lazy: the search builds and ranks far more child
        # configurations than it keeps, and only kept ones reach a
        # cache or the open set where hashing happens.
        value = self._hash
        if value is None:
            value = hash((self._items, self._powered))
            object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        body = ", ".join(
            f"{vm_id}@{placement.host_id}:{placement.cpu_cap:.0%}"
            for vm_id, placement in self._items
        )
        hosts = ",".join(sorted(self._powered))
        return f"Configuration([{body}] powered={{{hosts}}})"

    # -- accessors ---------------------------------------------------------

    @property
    def placements(self) -> Mapping[str, Placement]:
        """Read-only mapping of vm_id to placement."""
        return dict(self._mapping())

    def placement_items(self) -> tuple[tuple[str, Placement], ...]:
        """All (vm_id, placement) pairs, sorted by vm_id.

        Allocation-free accessor for hot loops (the ``placements``
        property copies a dict per call).
        """
        return self._items

    @property
    def powered_hosts(self) -> frozenset[str]:
        """Hosts that are (or should be) powered on."""
        return self._powered

    def placement_of(self, vm_id: str) -> Optional[Placement]:
        """Placement of ``vm_id``, or ``None`` if the VM is dormant."""
        mapping = self._placements  # hottest accessor: lazy-init inline
        if mapping is None:
            mapping = dict(self._items)
            object.__setattr__(self, "_placements", mapping)
        return mapping.get(vm_id)

    def is_placed(self, vm_id: str) -> bool:
        """Whether the VM is active (placed on some host)."""
        mapping = self._placements
        if mapping is None:
            mapping = dict(self._items)
            object.__setattr__(self, "_placements", mapping)
        return vm_id in mapping

    def placed_vm_ids(self) -> tuple[str, ...]:
        """Ids of all active VMs, sorted."""
        keys = self._keys
        if keys is None:
            keys = tuple(vm_id for vm_id, _ in self._items)
            object.__setattr__(self, "_keys", keys)
        return keys

    def vms_on_host(self, host_id: str) -> tuple[str, ...]:
        """Ids of VMs placed on ``host_id``, sorted."""
        by_host = self._by_host
        if by_host is None:
            # One pass builds the whole index; an expansion's parent
            # configuration answers ~one vms_on_host query per child.
            by_host = {}
            for vm_id, placement in self._items:
                by_host.setdefault(placement.host_id, []).append(vm_id)
            by_host = {
                host: tuple(vm_ids) for host, vm_ids in by_host.items()
            }
            object.__setattr__(self, "_by_host", by_host)
        return by_host.get(host_id, ())

    def used_hosts(self) -> frozenset[str]:
        """Hosts that actually carry at least one VM."""
        used = self._used
        if used is None:
            used = frozenset(
                placement.host_id for _, placement in self._items
            )
            object.__setattr__(self, "_used", used)
        return used

    def idle_hosts(self) -> frozenset[str]:
        """Powered hosts carrying no VM (candidates for shutdown)."""
        return self._powered - self.used_hosts()

    def replica_count(self, catalog: VmCatalog, app_name: str, tier_name: str) -> int:
        """Number of active replicas of one application tier."""
        mapping = self._mapping()
        return sum(
            1
            for descriptor in catalog.for_tier(app_name, tier_name)
            if descriptor.vm_id in mapping
        )

    def host_cpu_load(self, host_id: str) -> float:
        """Sum of VM CPU caps on a host."""
        return round(
            sum(
                placement.cpu_cap
                for _, placement in self._items
                if placement.host_id == host_id
            ),
            10,
        )

    def host_memory_load(self, catalog: VmCatalog, host_id: str) -> int:
        """Sum of VM memory on a host, in MB (excluding Dom-0)."""
        return sum(
            catalog.get(vm_id).memory_mb
            for vm_id, placement in self._items
            if placement.host_id == host_id
        )

    # -- feasibility -------------------------------------------------------

    def violations(
        self, catalog: VmCatalog, limits: ConstraintLimits
    ) -> list[str]:
        """Human-readable list of constraint violations (empty = candidate)."""
        problems: list[str] = []
        for host_id in self.used_hosts():
            cpu = self.host_cpu_load(host_id)
            if cpu > limits.max_total_cpu_cap + 1e-9:
                problems.append(
                    f"host {host_id}: CPU caps sum to {cpu:.2f} > "
                    f"{limits.max_total_cpu_cap:.2f}"
                )
            memory = self.host_memory_load(catalog, host_id)
            if memory > limits.guest_memory_mb:
                problems.append(
                    f"host {host_id}: guest memory {memory} MB > "
                    f"{limits.guest_memory_mb} MB"
                )
            vm_count = len(self.vms_on_host(host_id))
            if vm_count > limits.max_vms_per_host:
                problems.append(
                    f"host {host_id}: {vm_count} VMs > {limits.max_vms_per_host}"
                )
        for vm_id, placement in self._items:
            if placement.cpu_cap < limits.min_vm_cpu_cap - 1e-9:
                problems.append(
                    f"VM {vm_id}: cap {placement.cpu_cap:.2f} < "
                    f"{limits.min_vm_cpu_cap:.2f}"
                )
        return problems

    def is_candidate(self, catalog: VmCatalog, limits: ConstraintLimits) -> bool:
        """Whether the configuration can actually be deployed."""
        return not self.violations(catalog, limits)

    # -- functional updates -------------------------------------------------
    #
    # The single-change updates below are the A* search's configuration
    # factory (every generated child goes through one of them), so they
    # bypass the constructor's re-sort and invariant re-check: ``_items``
    # is already sorted, a one-entry edit preserves the order, and the
    # parent's invariant plus the one checked placement imply the
    # child's.

    @classmethod
    def _from_sorted(
        cls,
        items: tuple,
        powered: frozenset,
        keys: Optional[tuple] = None,
    ) -> "Configuration":
        """Internal: build from pre-sorted, pre-validated items."""
        self = object.__new__(cls)
        object.__setattr__(self, "_placements", None)  # built lazily
        object.__setattr__(self, "_powered", powered)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", None)  # hashed lazily
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_by_host", None)
        object.__setattr__(self, "_used", None)
        return self

    def replace(self, vm_id: str, placement: Placement) -> "Configuration":
        """New configuration with one VM's placement changed or added."""
        if placement.host_id in self._powered:
            keys = self.placed_vm_ids()
            pos = bisect_left(keys, vm_id)
            entry = ((vm_id, placement),)
            if pos < len(keys) and keys[pos] == vm_id:
                items = self._items[:pos] + entry + self._items[pos + 1 :]
                new_keys = keys
            else:
                items = self._items[:pos] + entry + self._items[pos:]
                new_keys = keys[:pos] + (vm_id,) + keys[pos:]
            return Configuration._from_sorted(items, self._powered, new_keys)
        placements = dict(self._mapping())
        placements[vm_id] = placement
        powered = self._powered | {placement.host_id}
        return Configuration(placements, powered)

    def remove(self, vm_id: str) -> "Configuration":
        """New configuration with one VM sent back to the dormant pool."""
        keys = self.placed_vm_ids()
        pos = bisect_left(keys, vm_id)
        if pos >= len(keys) or keys[pos] != vm_id:
            raise KeyError(f"VM {vm_id!r} is not placed")
        return Configuration._from_sorted(
            self._items[:pos] + self._items[pos + 1 :],
            self._powered,
            keys[:pos] + keys[pos + 1 :],
        )

    def power_on(self, host_id: str) -> "Configuration":
        """New configuration with one more powered host."""
        return Configuration._from_sorted(
            self._items, self._powered | {host_id}, self._keys
        )

    def power_off(self, host_id: str) -> "Configuration":
        """New configuration with ``host_id`` powered down (must be empty)."""
        if host_id in self.used_hosts():
            raise ValueError(f"host {host_id!r} still has VMs")
        return Configuration._from_sorted(
            self._items, self._powered - {host_id}, self._keys
        )


# ----------------------------------------------------------------------
# numeric configuration codec (DESIGN.md §13)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigArray:
    """A :class:`Configuration` as three flat numpy arrays.

    Indexed over a fixed (vm universe, host universe) pinned by the
    :class:`ConfigCodec` that produced it:

    ``host_index``
        ``int16[n_vms]`` — index into the codec's host universe, or
        ``-1`` for a dormant VM.
    ``cpu_caps``
        ``float64[n_vms]`` — the exact cap float of each placed VM
        (``0.0`` for dormant ones).  Caps are always positive, so the
        dormant sentinel is unambiguous and the raw bytes of the two
        rows identify the configuration injectively.
    ``powered``
        ``uint8[n_hosts]`` — 1 where the host is powered on.
    """

    host_index: np.ndarray
    cpu_caps: np.ndarray
    powered: np.ndarray

    def key(self) -> bytes:
        """Injective byte key (see :meth:`ConfigCodec.encode_key`)."""
        return (
            self.host_index.tobytes()
            + self.cpu_caps.tobytes()
            + self.powered.tobytes()
        )


class ConfigCodec:
    """Bit-exact two-way map between ``Configuration`` and ``ConfigArray``.

    The codec pins a VM universe (catalog order) and a host universe
    (testbed order); every encode/decode is relative to those.  Decoding
    an encoded configuration returns an object that compares, hashes and
    pickles identically to the original — caps are carried as the very
    same float64 bits, never re-derived — which is what lets the array
    expansion core substitute arrays for objects without perturbing a
    single search decision.

    ``encode`` raises ``KeyError`` when the configuration mentions a VM
    or host outside the pinned universes — which is why every search,
    scoped or not, pins the whole cluster's hosts.
    """

    __slots__ = ("vm_ids", "host_ids", "vm_index", "host_index")

    def __init__(
        self, vm_ids: Sequence[str], host_ids: Sequence[str]
    ) -> None:
        self.vm_ids = tuple(vm_ids)
        self.host_ids = tuple(host_ids)
        if len(self.vm_ids) >= 2**15:
            raise ValueError("int16 host_index row caps the VM universe at 32767")
        self.vm_index = {vm_id: i for i, vm_id in enumerate(self.vm_ids)}
        self.host_index = {host: i for i, host in enumerate(self.host_ids)}
        if len(self.vm_index) != len(self.vm_ids):
            raise ValueError("duplicate VM ids in codec universe")
        if len(self.host_index) != len(self.host_ids):
            raise ValueError("duplicate host ids in codec universe")

    def encode(self, configuration: Configuration) -> ConfigArray:
        """Numeric image of ``configuration`` (KeyError if out of universe)."""
        host_row = np.full(len(self.vm_ids), -1, dtype=np.int16)
        caps_row = np.zeros(len(self.vm_ids), dtype=np.float64)
        powered_row = np.zeros(len(self.host_ids), dtype=np.uint8)
        vm_index = self.vm_index
        host_index = self.host_index
        for vm_id, placement in configuration.placement_items():
            slot = vm_index[vm_id]
            host_row[slot] = host_index[placement.host_id]
            caps_row[slot] = placement.cpu_cap
        for host in configuration.powered_hosts:
            powered_row[host_index[host]] = 1
        return ConfigArray(host_row, caps_row, powered_row)

    def decode(self, arrays: ConfigArray) -> Configuration:
        """Rebuild the ``Configuration`` an encode came from, bit-exactly."""
        host_ids = self.host_ids
        placements = {}
        host_row = arrays.host_index
        caps_row = arrays.cpu_caps
        for slot in np.flatnonzero(host_row >= 0):
            placements[self.vm_ids[slot]] = Placement(
                host_ids[host_row[slot]], float(caps_row[slot])
            )
        powered = frozenset(
            host_ids[slot] for slot in np.flatnonzero(arrays.powered)
        )
        return Configuration(placements, powered)

    def encode_key(self, configuration: Configuration) -> bytes:
        """Injective byte key for deduplication.

        Concatenates the raw bytes of the three rows.  Injectivity on
        valid configurations: the host row fixes the placement pattern,
        caps are positive floats (no ``-0.0``/NaN ambiguity), and the
        powered row is 0/1 — distinct configurations within the codec's
        universes always produce distinct keys.
        """
        return self.encode(configuration).key()
