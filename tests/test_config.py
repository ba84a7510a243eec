"""Tests for configurations, placements, and feasibility rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
    VmDescriptor,
)

HOSTS = ("h1", "h2", "h3")


def small_catalog() -> VmCatalog:
    return VmCatalog(
        [
            VmDescriptor("a-web-0", "a", "web"),
            VmDescriptor("a-db-0", "a", "db"),
            VmDescriptor("a-db-1", "a", "db"),
            VmDescriptor("b-web-0", "b", "web"),
        ]
    )


# -- Placement ---------------------------------------------------------------


def test_placement_validates_cap_range():
    with pytest.raises(ValueError):
        Placement("h1", 0.0)
    with pytest.raises(ValueError):
        Placement("h1", 1.5)


def test_placement_with_cap_and_host():
    placement = Placement("h1", 0.4)
    assert placement.with_cap(0.6) == Placement("h1", 0.6)
    assert placement.with_host("h2") == Placement("h2", 0.4)


# -- VmCatalog ---------------------------------------------------------------


def test_catalog_rejects_duplicates():
    with pytest.raises(ValueError):
        VmCatalog(
            [VmDescriptor("x", "a", "web"), VmDescriptor("x", "a", "db")]
        )


def test_catalog_for_tier_and_apps():
    catalog = small_catalog()
    assert [d.vm_id for d in catalog.for_tier("a", "db")] == [
        "a-db-0",
        "a-db-1",
    ]
    assert catalog.apps() == ("a", "b")
    assert "a-web-0" in catalog
    assert len(catalog) == 4


def test_descriptor_rejects_nonpositive_memory():
    with pytest.raises(ValueError):
        VmDescriptor("x", "a", "web", memory_mb=0)


# -- Configuration basics -----------------------------------------------------


def test_configuration_is_immutable_and_hashable():
    config = Configuration({"a-web-0": Placement("h1", 0.4)}, {"h1"})
    with pytest.raises(AttributeError):
        config.placements = {}
    assert hash(config) == hash(
        Configuration({"a-web-0": Placement("h1", 0.4)}, {"h1"})
    )


def test_equality_ignores_insertion_order():
    one = Configuration(
        {"a": Placement("h1", 0.2), "b": Placement("h2", 0.2)}, {"h1", "h2"}
    )
    two = Configuration(
        {"b": Placement("h2", 0.2), "a": Placement("h1", 0.2)}, {"h1", "h2"}
    )
    assert one == two and hash(one) == hash(two)


def test_vm_on_unpowered_host_rejected():
    with pytest.raises(ValueError):
        Configuration({"a-web-0": Placement("h1", 0.4)}, set())


def test_accessors():
    config = Configuration(
        {
            "a-web-0": Placement("h1", 0.4),
            "a-db-0": Placement("h2", 0.3),
        },
        {"h1", "h2", "h3"},
    )
    assert config.placement_of("a-web-0") == Placement("h1", 0.4)
    assert config.placement_of("missing") is None
    assert config.is_placed("a-db-0")
    assert config.vms_on_host("h1") == ("a-web-0",)
    assert config.used_hosts() == {"h1", "h2"}
    assert config.idle_hosts() == {"h3"}
    assert config.host_cpu_load("h2") == pytest.approx(0.3)


def test_replica_count_and_memory_load():
    catalog = small_catalog()
    config = Configuration(
        {
            "a-db-0": Placement("h1", 0.2),
            "a-db-1": Placement("h1", 0.2),
        },
        {"h1"},
    )
    assert config.replica_count(catalog, "a", "db") == 2
    assert config.replica_count(catalog, "a", "web") == 0
    assert config.host_memory_load(catalog, "h1") == 400


# -- functional updates --------------------------------------------------------


def test_replace_remove_power_cycle():
    config = Configuration({"a-web-0": Placement("h1", 0.4)}, {"h1"})
    moved = config.replace("a-web-0", Placement("h2", 0.4))
    assert moved.placement_of("a-web-0").host_id == "h2"
    assert "h2" in moved.powered_hosts

    emptied = moved.remove("a-web-0")
    assert not emptied.is_placed("a-web-0")
    with pytest.raises(KeyError):
        emptied.remove("a-web-0")

    off = emptied.power_off("h1")
    assert "h1" not in off.powered_hosts
    with pytest.raises(ValueError):
        moved.power_off("h2")  # still hosts a VM

    on = off.power_on("h1")
    assert "h1" in on.powered_hosts


# -- feasibility ----------------------------------------------------------------


def test_cpu_overcommit_is_violation():
    catalog = small_catalog()
    limits = ConstraintLimits()
    config = Configuration(
        {
            "a-web-0": Placement("h1", 0.5),
            "a-db-0": Placement("h1", 0.5),
        },
        {"h1"},
    )
    problems = config.violations(catalog, limits)
    assert any("CPU" in problem for problem in problems)
    assert not config.is_candidate(catalog, limits)


def test_vm_count_limit_violation():
    catalog = VmCatalog(
        [VmDescriptor(f"v{i}", "a", "web") for i in range(5)]
    )
    limits = ConstraintLimits(max_vms_per_host=4)
    config = Configuration(
        {f"v{i}": Placement("h1", 0.1) for i in range(5)},
        {"h1"},
    )
    # Note: 0.1 caps are below the 0.2 minimum too; check both appear.
    problems = config.violations(catalog, limits)
    assert any("VMs" in problem for problem in problems)
    assert any("cap" in problem for problem in problems)


def test_memory_limit_violation():
    catalog = VmCatalog(
        [VmDescriptor(f"v{i}", "a", "web", memory_mb=300) for i in range(3)]
    )
    limits = ConstraintLimits()  # 824 MB guest memory
    config = Configuration(
        {f"v{i}": Placement("h1", 0.2) for i in range(3)},
        {"h1"},
    )
    assert any(
        "memory" in problem for problem in config.violations(catalog, limits)
    )


def test_feasible_configuration_has_no_violations():
    catalog = small_catalog()
    config = Configuration(
        {
            "a-web-0": Placement("h1", 0.4),
            "a-db-0": Placement("h1", 0.4),
            "a-db-1": Placement("h2", 0.8),
        },
        {"h1", "h2"},
    )
    assert config.violations(catalog, ConstraintLimits()) == []


# -- ConstraintLimits -----------------------------------------------------------


def test_guest_memory_excludes_dom0_reservation():
    limits = ConstraintLimits()
    assert limits.guest_memory_mb == 824


# -- property-based -----------------------------------------------------------


@st.composite
def configurations(draw):
    catalog = small_catalog()
    placements = {}
    for descriptor in catalog:
        if draw(st.booleans()):
            host = draw(st.sampled_from(HOSTS))
            cap = draw(
                st.sampled_from([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
            )
            placements[descriptor.vm_id] = Placement(host, cap)
    extra = draw(st.sets(st.sampled_from(HOSTS)))
    powered = {p.host_id for p in placements.values()} | extra
    if not powered:
        powered = {"h1"}
    return Configuration(placements, powered)


@given(configurations())
@settings(max_examples=60, deadline=None)
def test_property_hash_equals_reconstruction(config):
    clone = Configuration(dict(config.placements), config.powered_hosts)
    assert clone == config
    assert hash(clone) == hash(config)


@given(configurations(), st.sampled_from(HOSTS))
@settings(max_examples=60, deadline=None)
def test_property_host_load_is_sum_of_vm_caps(config, host):
    expected = sum(
        placement.cpu_cap
        for placement in config.placements.values()
        if placement.host_id == host
    )
    assert config.host_cpu_load(host) == pytest.approx(expected)


@given(configurations())
@settings(max_examples=60, deadline=None)
def test_property_used_hosts_subset_of_powered(config):
    assert config.used_hosts() <= config.powered_hosts
    assert config.idle_hosts() == config.powered_hosts - config.used_hosts()


@given(configurations())
@settings(max_examples=60, deadline=None)
def test_property_remove_then_replace_roundtrips(config):
    placed = config.placed_vm_ids()
    if not placed:
        return
    vm_id = placed[0]
    placement = config.placement_of(vm_id)
    removed = config.remove(vm_id)
    restored = removed.replace(vm_id, placement)
    assert restored == config
