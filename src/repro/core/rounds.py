"""Array-native expansion rounds (DESIGN.md §13).

One expansion round of the adaptation search enumerates ~``VMs x
hosts`` actions against the parent configuration, ranks them by
distance to the ideal, and builds children for the survivors.
Evaluated one child at a time (``_SearchBasis.child_state`` in
``core/search.py``), every per-child *sum* is reduced one Python
addition at a time, and every scatter cell — the per-action (distance,
host-match, cost-to-go) term, the constraint verdict, the dedup key —
runs a Python expression per action.  This module removes those loops:

``ActionBlock`` / ``RoundPlan``
    Enumeration emits actions in cached per-VM sublists whose cache key
    pins every fact ``AdaptationAction.placement_delta`` would consult
    (placement, cap, powered set, replica bounds).  An ``ActionBlock``
    is the numeric image of one sublist — VM slot, target host slot, new
    cap, integer cap steps, the ``placement_delta`` validity verdict,
    and the exact delta tuples — cached under the same key, so a round's
    plan is a concatenation of pre-encoded columns.

``ArrayBasis``
    Per-search tables.  Scatter *values* are computed once per (search,
    block) by the very scalar expressions of ``_SearchBasis`` — Python's
    ``x ** 2`` (``pow``) is not bit-identical to numpy's ``x * x`` on
    every input, so the values are never re-derived vectorized — and
    then reused as numpy columns round after round.  Constraint
    verdicts run in exact integer cap-step arithmetic (caps and host
    loads live on the ``cpu_cap_step`` decimal grid; each round
    verifies this and falls back to the per-child check when it does not
    hold).  Child dedup keys are the parent's key with one cell edited.

Bit-identity with the per-child expressions — and so with the search's
full re-evaluation oracle, ``SearchSettings(incremental=False)`` — is
the contract throughout: identical float values (same expressions over
the same operands, sums reduced in the serial order: by
:func:`column_sums`, or for the cost-to-go by a scalar replay of the
chain that shares each column's prefix), identical verdicts, identical
ordering.
"""

from __future__ import annotations

import struct
from typing import Mapping, Optional

import numpy as np

from repro.core.actions import (
    AddReplica,
    DecreaseCpu,
    IncreaseCpu,
    MigrateVm,
    RemoveReplica,
)
from repro.core.config import (
    ConfigCodec,
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)
from repro.telemetry import phases as _phases

#: Native-order scalar packers matching the codec's int16/float64 cell
#: bytes (standard sizes, so identical to ``np.int16``/``np.float64``
#: ``tobytes`` on every supported platform).
_PACK_INT16 = struct.Struct("=h").pack
_PACK_FLOAT64 = struct.Struct("=d").pack


def column_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-column sums accumulated row by row.

    For a ``[terms, children]`` matrix this performs, in every column,
    the identical sequence of scalar float additions ``_SearchBasis``
    and the full-path oracle perform — same operands, same order, left
    to right from zero — so the results are bit-identical per child.
    (``np.sum`` would use pairwise summation, and Python 3.12's builtin
    ``sum()`` compensated summation; both round differently.)

    When the reduction axis is strided (a C-contiguous matrix with two
    or more columns), ``np.add.reduce`` over axis 0 accumulates the
    rows in the same top-to-bottom order — numpy's pairwise summation
    only reorders reductions over contiguous memory — so the single
    ufunc call replaces the Python row loop.  Single-column and
    non-contiguous inputs keep the explicit loop.
    """
    if matrix.shape[1] > 1 and matrix.flags.c_contiguous:
        return np.add.reduce(matrix, axis=0, initial=0.0)
    total = np.zeros(matrix.shape[1], dtype=np.float64)
    for row in matrix:
        total = total + row
    return total


def _togo_vm_term(
    here: Optional[Placement],
    there: Optional[Placement],
    tier: str,
    durations: Mapping[tuple[str, str], float],
    step: float,
    min_cap: float,
) -> float:
    """Adaptation seconds moving one VM from ``here`` to its ideal
    ``there`` (shared by the full and incremental cost-to-go paths so
    both accumulate bit-identical terms)."""
    if here is None and there is None:
        return 0.0
    seconds = 0.0
    if here is None:
        seconds += durations.get(("add_replica", tier), 40.0)
        seconds += abs(there.cpu_cap - min_cap) / step
    elif there is None:
        seconds += durations.get(("remove_replica", tier), 25.0)
    else:
        if here.host_id != there.host_id:
            seconds += durations.get(("migrate", tier), 25.0)
        seconds += abs(here.cpu_cap - there.cpu_cap) / step
    return seconds


def replica_tier_counts(
    catalog: VmCatalog, configuration: Configuration
) -> dict[tuple[str, str], int]:
    """Placed replicas per (app, tier) — one O(placements) pass, the
    same count ``RemoveReplica.placement_delta`` checks."""
    counts: dict[tuple[str, str], int] = {}
    get = catalog.get
    for vm_id, _ in configuration.placement_items():
        descriptor = get(vm_id)
        tier_key = (descriptor.app_name, descriptor.tier_name)
        counts[tier_key] = counts.get(tier_key, 0) + 1
    return counts


def _grid_threshold_gt(limit: float, eps: float, step: float) -> int:
    """Largest step count ``s`` with NOT ``round(s*step, 10) > limit+eps``.

    ``round(s*step, 10)`` is monotone in ``s``, so for any on-grid value
    ``v == round(s*step, 10)`` the scalar verdict ``v > limit + eps`` is
    exactly ``s > threshold`` — the integer form of the constraint
    comparisons, with the float tolerance folded into the threshold by
    construction rather than re-proved analytically.
    """
    s = 0
    while round(s * step, 10) <= limit + eps:
        s += 1
        if s > 10_000_000:  # pathological limits: refuse, don't spin
            raise ValueError("cap grid threshold scan diverged")
    return s - 1


def _grid_threshold_lt(limit: float, eps: float, step: float) -> int:
    """Smallest ``s`` with NOT ``round(s*step, 10) < limit-eps`` (the
    integer threshold of the minimum-cap comparison; see above)."""
    s = 0
    while round(s * step, 10) < limit - eps:
        s += 1
        if s > 10_000_000:
            raise ValueError("cap grid threshold scan diverged")
    return s


class ActionBlock:
    """Numeric image of one cached enumeration sublist.

    Column ``j`` describes ``sub[j]``: the edited VM's catalog slot
    (``-1`` for an action moving no VM), the destination host slot
    (``-1`` for a removal), the new cap and its exact grid step count,
    the ``placement_delta`` validity verdict, and the delta tuple it
    would build (``None`` when invalid, ``()`` for host-power actions).
    ``remove_checks`` lists the removals whose validity still depends on
    the parent's replica count (only tiers allowed to scale to zero);
    everything else is constant under the sublist's cache key.
    """

    __slots__ = (
        "n",
        "vm",
        "host",
        "cap",
        "steps",
        "valid",
        "deltas",
        "remove_checks",
        "grid_ok",
    )

    def __init__(self, n, vm, host, cap, steps, valid, deltas, remove_checks, grid_ok):
        self.n = n
        self.vm = vm
        self.host = host
        self.cap = cap
        self.steps = steps
        self.valid = valid
        self.deltas = deltas
        self.remove_checks = remove_checks
        self.grid_ok = grid_ok


class ArrayStatics:
    """Search-instance constants of the array core (shared across
    searches; everything here depends only on catalog, limits and the
    host universe)."""

    __slots__ = (
        "codec",
        "catalog",
        "limits",
        "vm_mem",
        "step",
        "max_cpu_steps",
        "min_cap_steps",
        "max_mem",
        "max_vms",
        "power_block",
        "_grid",
    )

    def __init__(
        self,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        host_ids,
    ) -> None:
        self.codec = ConfigCodec(catalog.vm_ids(), host_ids)
        self.catalog = catalog
        self.limits = limits
        self.vm_mem = np.array(
            [catalog.get(vm_id).memory_mb for vm_id in self.codec.vm_ids],
            dtype=np.int64,
        )
        self.step = limits.cpu_cap_step
        self.max_cpu_steps = _grid_threshold_gt(
            limits.max_total_cpu_cap, 1e-9, self.step
        )
        self.min_cap_steps = _grid_threshold_lt(
            limits.min_vm_cpu_cap, 1e-9, self.step
        )
        self.max_mem = limits.guest_memory_mb
        self.max_vms = limits.max_vms_per_host
        #: Memo: cap float -> exact grid step count (-1 when off-grid).
        self._grid: dict[float, int] = {}
        #: Shared single-column block for host power actions: no VM
        #: moves, the delta is the empty tuple, and validity
        #: is pinned by enumeration (only unpowered hosts are offered
        #: power-on, only idle powered hosts power-off).
        self.power_block = ActionBlock(
            n=1,
            vm=np.array([-1], dtype=np.int64),
            host=np.array([-1], dtype=np.int64),
            cap=np.zeros(1, dtype=np.float64),
            steps=np.zeros(1, dtype=np.int64),
            valid=np.ones(1, dtype=bool),
            deltas=[()],
            remove_checks=(),
            grid_ok=True,
        )

    def steps_of(self, value: float) -> int:
        """Exact grid step count of ``value``, or ``-1`` off-grid.

        A value is on-grid when ``round(k*step, 10)`` reproduces it
        bit-exactly — the invariant caps and host loads maintain (both
        are built by ``round(.., 10)`` chains over grid caps).  The
        check is what licenses the integer constraint arithmetic; any
        off-grid value routes the round to the scalar fallback.
        """
        steps = self._grid.get(value)
        if steps is None:
            k = int(round(value / self.step))
            steps = k if k >= 0 and round(k * self.step, 10) == value else -1
            self._grid[value] = steps
        return steps


def vm_block(
    statics: ArrayStatics,
    catalog: VmCatalog,
    sub: list,
    vm_id: str,
    src_host: str,
    src_cap: float,
    min_replicas: int,
) -> ActionBlock:
    """Encode one placed VM's cached action sublist.

    The sublist's cache key pins the VM, its placement (host, cap), the
    powered set and the remove permission, so every ``placement_delta``
    check is evaluated here once: cap changes get its exact
    ``round(cap + signed*count, 10)`` bounds verdict, migrations and
    removals are valid by the pinned facts — except a removal of a tier
    allowed to scale to zero, whose last-replica check depends on the
    parent's replica count and is deferred to ``remove_checks``.
    """
    n = len(sub)
    limits = statics.limits
    codec = statics.codec
    vm = np.full(n, -1, dtype=np.int64)
    host = np.full(n, -1, dtype=np.int64)
    cap = np.zeros(n, dtype=np.float64)
    steps = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    deltas: list = [None] * n
    remove_checks: list = []
    slot = codec.vm_index[vm_id]
    src_slot = codec.host_index[src_host]
    grid_ok = True
    for j, action in enumerate(sub):
        kind = type(action)
        if kind is IncreaseCpu or kind is DecreaseCpu:
            new_cap = round(src_cap + action._signed_step() * action.count, 10)
            vm[j] = slot
            host[j] = src_slot
            cap[j] = new_cap
            if (
                new_cap < limits.min_vm_cpu_cap - 1e-9
                or new_cap > limits.max_total_cpu_cap + 1e-9
            ):
                valid[j] = False
                continue
            s = statics.steps_of(new_cap)
            steps[j] = s
            grid_ok = grid_ok and s >= 0
            deltas[j] = ((vm_id, Placement(src_host, new_cap)),)
        elif kind is MigrateVm:
            vm[j] = slot
            host[j] = codec.host_index[action.target_host]
            cap[j] = src_cap
            s = statics.steps_of(src_cap)
            steps[j] = s
            grid_ok = grid_ok and s >= 0
            deltas[j] = ((vm_id, Placement(action.target_host, src_cap)),)
        elif kind is RemoveReplica:
            vm[j] = slot  # host stays -1, cap 0.0: the removal image
            deltas[j] = ((vm_id, None),)
            if min_replicas < 1:
                descriptor = catalog.get(vm_id)
                remove_checks.append(
                    (j, (descriptor.app_name, descriptor.tier_name))
                )
        else:  # pragma: no cover - enumeration emits only the above
            raise TypeError(f"unexpected action in VM sublist: {action!r}")
    return ActionBlock(
        n, vm, host, cap, steps, valid, deltas, tuple(remove_checks), grid_ok
    )


def add_block(
    statics: ArrayStatics, sub: list, dormant_vm: Optional[str]
) -> ActionBlock:
    """Encode one tier's cached add-replica sublist.

    The cache key pins the dormant VM ``placement_delta`` would activate (the
    first unplaced replica in catalog order — the identical scan), so
    validity is constant: a dormant VM exists and the replica cap
    clears the minimum.
    """
    n = len(sub)
    limits = statics.limits
    codec = statics.codec
    vm = np.full(n, -1, dtype=np.int64)
    host = np.full(n, -1, dtype=np.int64)
    cap = np.zeros(n, dtype=np.float64)
    steps = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    deltas: list = [None] * n
    slot = codec.vm_index[dormant_vm] if dormant_vm is not None else -1
    grid_ok = True
    for j, action in enumerate(sub):
        host[j] = codec.host_index[action.target_host]
        cap[j] = action.cpu_cap
        if dormant_vm is None or (
            action.cpu_cap < limits.min_vm_cpu_cap - 1e-9
        ):
            valid[j] = False
            continue
        vm[j] = slot
        s = statics.steps_of(action.cpu_cap)
        steps[j] = s
        grid_ok = grid_ok and s >= 0
        deltas[j] = (
            (dormant_vm, Placement(action.target_host, action.cpu_cap)),
        )
    return ActionBlock(n, vm, host, cap, steps, valid, deltas, (), grid_ok)


_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)
_EMPTY_BOOL = np.zeros(0, dtype=bool)


class RoundPlan:
    """One round's action columns: the blocks' arrays concatenated in
    enumeration order (``column j`` describes ``possible[j]``)."""

    __slots__ = (
        "n",
        "vm",
        "host",
        "cap",
        "steps",
        "valid_const",
        "deltas",
        "remove_checks",
        "blocks",
        "grid_ok",
    )

    def __init__(self, blocks: list, expected: int) -> None:
        self.blocks = blocks
        if len(blocks) == 1:
            block = blocks[0]
            self.n = block.n
            self.vm = block.vm
            self.host = block.host
            self.cap = block.cap
            self.steps = block.steps
            self.valid_const = block.valid
            self.deltas = list(block.deltas)
            self.remove_checks = list(block.remove_checks)
            self.grid_ok = block.grid_ok
        elif blocks:
            self.vm = np.concatenate([b.vm for b in blocks])
            self.host = np.concatenate([b.host for b in blocks])
            self.cap = np.concatenate([b.cap for b in blocks])
            self.steps = np.concatenate([b.steps for b in blocks])
            self.valid_const = np.concatenate([b.valid for b in blocks])
            deltas: list = []
            remove_checks: list = []
            offset = 0
            grid_ok = True
            for block in blocks:
                deltas.extend(block.deltas)
                for pos, tier_key in block.remove_checks:
                    remove_checks.append((offset + pos, tier_key))
                offset += block.n
                grid_ok = grid_ok and block.grid_ok
            self.n = offset
            self.deltas = deltas
            self.remove_checks = remove_checks
            self.grid_ok = grid_ok
        else:
            self.n = 0
            self.vm = _EMPTY_I64
            self.host = _EMPTY_I64
            self.cap = _EMPTY_F64
            self.steps = _EMPTY_I64
            self.valid_const = _EMPTY_BOOL
            self.deltas = []
            self.remove_checks = []
            self.grid_ok = True
        if self.n != expected:  # pragma: no cover - alignment invariant
            raise AssertionError(
                f"round plan covers {self.n} actions, enumeration "
                f"produced {expected}"
            )

    def valid_mask(self, counts: Optional[dict]) -> np.ndarray:
        """The ``placement_delta`` accept/reject verdict per column.

        ``counts`` (``replica_tier_counts`` of the parent) is only
        consulted for the deferred last-replica checks; rounds without
        any share the constant mask.
        """
        if not self.remove_checks:
            return self.valid_const
        valid = self.valid_const.copy()
        for pos, tier_key in self.remove_checks:
            if counts.get(tier_key, 0) <= 1:
                valid[pos] = False
        return valid


class _ParentRows:
    """The expansion parent's host slots plus exact grid cap steps."""

    __slots__ = ("host64", "steps", "grid_ok")

    def __init__(self, host64, steps, grid_ok):
        self.host64 = host64
        self.steps = steps
        self.grid_ok = grid_ok


class ArrayBasis:
    """Per-search tables and kernels of the array expansion core.

    Wraps the search's ``_SearchBasis`` (per-VM ideal placement facts)
    with the codec universe.  Scatter values are memoized per block —
    computed by the *scalar* per-child expressions, see the module
    docstring — so steady-state rounds perform no per-action Python
    arithmetic at all.
    """

    __slots__ = (
        "statics",
        "basis",
        "total",
        "on_dur",
        "off_dur",
        "_block_vals",
        "_plan_vals",
    )

    def __init__(self, statics: ArrayStatics, basis) -> None:
        self.statics = statics
        self.basis = basis
        self.total = basis.total
        self.on_dur = basis.durations.get(("power_on", "-"), 90.0)
        self.off_dur = basis.durations.get(("power_off", "-"), 30.0)
        #: id(block) -> (block, dist_vals, match_vals, togo_vals).  The
        #: block reference keeps the id stable for the basis' lifetime
        #: (one search), so eviction of the enumeration cache cannot
        #: alias a recycled id onto stale values.
        self._block_vals: dict[int, tuple] = {}
        #: id(plan) -> (plan, concatenated per-plan value arrays) —
        #: plans are cached across rounds by the search, so most rounds
        #: skip even the concatenation.
        self._plan_vals: dict[int, tuple] = {}

    # -- per-block scatter values (per-child scalar expressions) --------

    def _vals_of(self, block: ActionBlock) -> tuple:
        cached = self._block_vals.get(id(block))
        if cached is not None and cached[0] is block:
            return cached
        basis = self.basis
        limits = basis.limits
        step = limits.cpu_cap_step
        min_cap = limits.min_vm_cpu_cap
        index = basis.index
        weights = basis.weights
        ideal_caps = basis.ideal_caps
        ideal_hosts = basis.ideal_hosts
        dist_vals = np.zeros(block.n, dtype=np.float64)
        match_vals = np.zeros(block.n, dtype=np.float64)
        togo_vals = np.zeros(block.n, dtype=np.float64)
        for j, delta in enumerate(block.deltas):
            if not delta:  # power action or invalid column: never read
                continue
            ((vm_id, new),) = delta
            i = index[vm_id]
            cap = new.cpu_cap if new is not None else 0.0
            dist_vals[j] = weights[i] * (cap - ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            match_vals[j] = 1 if host == ideal_hosts[i] else 0
            togo_vals[j] = _togo_vm_term(
                new,
                basis.ideal_placements[i],
                basis.tiers[i],
                basis.durations,
                step,
                min_cap,
            )
        cached = (block, dist_vals, match_vals, togo_vals)
        self._block_vals[id(block)] = cached
        return cached

    def round_values(self, plan: RoundPlan) -> tuple:
        """(dist, match, togo) scatter values per plan column."""
        cached = self._plan_vals.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        blocks = plan.blocks
        if len(blocks) == 1:
            _, dist_vals, match_vals, togo_vals = self._vals_of(blocks[0])
            values = (dist_vals, match_vals, togo_vals)
        elif not blocks:
            values = (
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.float64),
            )
        else:
            vals = [self._vals_of(block) for block in blocks]
            values = (
                np.concatenate([v[1] for v in vals]),
                np.concatenate([v[2] for v in vals]),
                np.concatenate([v[3] for v in vals]),
            )
        self._plan_vals[id(plan)] = (plan, values)
        return values

    # -- round kernels ---------------------------------------------------

    def distances(self, state, plan: RoundPlan, values: tuple) -> np.ndarray:
        """Per-column distances over the whole plan — bit-identical to
        the scalar ``_SearchBasis.child_distance`` (same scatter values,
        summed by ``column_sums`` in the same order, same final
        expression).

        The whole kernel is the array core's ranking work, so it
        attributes to the search's ``score`` phase (a no-op without an
        active profile — see :mod:`repro.telemetry.phases`)."""
        with _phases.phase("score"):
            n = plan.n
            dist_vals, match_vals, _ = values
            has = plan.vm >= 0
            cols = np.flatnonzero(has)
            vms = plan.vm[has]
            total = self.total
            if not total:
                cap_m = np.repeat(
                    np.array(state.cap_terms, dtype=np.float64)[:, None],
                    n,
                    axis=1,
                )
                cap_m[vms, cols] = dist_vals[has]
                return np.sqrt(column_sums(cap_m))  # placement term is 0.0
            # One fused (rows, 2n) matrix — cap columns then match
            # columns.  ``column_sums`` reduces every column
            # independently in row order, so each fused column's
            # addition chain is the chain the two separate reductions
            # would have run.
            rows = len(state.cap_terms)
            fused = np.empty((rows, 2 * n), dtype=np.float64)
            fused[:, :n] = np.array(state.cap_terms, dtype=np.float64)[
                :, None
            ]
            fused[:, n:] = np.array(state.host_matches, dtype=np.float64)[
                :, None
            ]
            fused[vms, cols] = dist_vals[has]
            fused[vms, n + cols] = match_vals[has]
            sums = column_sums(fused)
            return np.sqrt(sums[:n]) + (1.0 - sums[n:] / total)

    def sel_reductions(
        self,
        state,
        plan: RoundPlan,
        sel: np.ndarray,
        values: tuple,
        n_on: int,
        n_off: int,
    ) -> list:
        """Cost-to-go seconds per selected column, as an exact float
        list: the addition chain ``_SearchBasis.togo_seconds`` runs for
        the child, replayed per column.

        A column's sum substitutes at most one row of the base terms,
        so its chain is an exact prefix of the base chain, then the
        substituted value, then the remaining rows in order — sharing
        the prefixes across columns changes no operation.  Power
        columns (no substitution) take the full base chain.  The power
        legs follow in the serial order (float addition is
        order-sensitive)."""
        togo_terms = state.togo_terms
        n_rows = len(togo_terms)
        tpref = [0.0] * (n_rows + 1)
        acc = 0.0
        for i, term in enumerate(togo_terms):
            tpref[i] = acc
            acc = acc + term
        tpref[n_rows] = acc
        togo_vals = values[2][sel].tolist()
        on_dur = self.on_dur
        off_dur = self.off_dur
        togo_list = [0.0] * sel.size
        for j, vm in enumerate(plan.vm[sel].tolist()):
            if vm >= 0:
                acc = tpref[vm] + togo_vals[j]
                for i in range(vm + 1, n_rows):
                    acc = acc + togo_terms[i]
            else:
                acc = tpref[n_rows]
            for _ in range(n_on):
                acc = acc + on_dur
            for _ in range(n_off):
                acc = acc + off_dur
            togo_list[j] = acc
        return togo_list

    def parent_rows(self, key: bytes) -> _ParentRows:
        """Host slots and exact cap steps of the expansion parent.

        The parent's dedup ``key`` is decoded directly — the key *is*
        the codec rows' concatenated bytes (host int16 | caps float64 |
        powered uint8), so slicing it back into arrays skips
        re-encoding the ``Configuration`` and is byte-identical by
        construction."""
        statics = self.statics
        n_vms = len(statics.codec.vm_ids)
        host64 = np.frombuffer(key, dtype=np.int16, count=n_vms).astype(
            np.int64
        )
        caps = np.frombuffer(
            key, dtype=np.float64, count=n_vms, offset=2 * n_vms
        )
        steps = np.zeros(caps.size, dtype=np.int64)
        grid_ok = True
        steps_of = statics.steps_of
        caps_list = caps.tolist()
        for i, slot in enumerate(host64.tolist()):
            if slot >= 0:
                s = steps_of(caps_list[i])
                if s < 0:
                    grid_ok = False
                    break
                steps[i] = s
        return _ParentRows(host64, steps, grid_ok)

    def candidacy(
        self,
        state,
        plan: RoundPlan,
        sel: np.ndarray,
        parent: _ParentRows,
    ) -> Optional[np.ndarray]:
        """Candidate verdict per selected column, or ``None`` when any
        cap/load is off the decimal grid (callers then use the scalar
        ``child_candidate`` per child).

        Replays the single-edit host-entry arithmetic of the scalar
        path in exact integer cap steps: on-grid floats map bijectively
        to step counts (verified per value), decimal ``round`` add/
        subtract chains map to integer add/subtract, and the float
        threshold comparisons map to integer thresholds built by
        scanning the same ``round`` expressions.  Columns moving no VM
        get an arbitrary verdict (the caller uses the parent's)."""
        statics = self.statics
        if not plan.grid_ok or not parent.grid_ok:
            return None
        host_index = statics.codec.host_index
        n_hosts = len(statics.codec.host_ids)
        load = np.zeros(n_hosts, dtype=np.int64)
        mem = np.zeros(n_hosts, dtype=np.int64)
        cnt = np.zeros(n_hosts, dtype=np.int64)
        steps_of = statics.steps_of
        for host, (cpu, host_mem, host_vms) in state.hosts.items():
            s = steps_of(cpu)
            if s < 0:
                return None
            slot = host_index[host]
            load[slot] = s
            mem[slot] = host_mem
            cnt[slot] = host_vms
        max_cpu = statics.max_cpu_steps
        max_mem = statics.max_mem
        max_vms = statics.max_vms
        was_bad = (load > max_cpu) | (mem > max_mem) | (cnt > max_vms)
        vm_sel = plan.vm[sel]
        dst = plan.host[sel]
        new_steps = plan.steps[sel]
        has = vm_sel >= 0
        vmc = np.where(has, vm_sel, 0)
        vm_mem = statics.vm_mem[vmc]
        # Source-host leg (the VM's current entry loses it).
        src = parent.host64[vmc]
        has_src = has & (src >= 0)
        srcc = np.where(has_src, src, 0)
        old_steps = parent.steps[vmc]
        s_cpu = load[srcc]
        s_mem = mem[srcc]
        s_cnt = cnt[srcc]
        s_bad = was_bad[srcc].astype(np.int64)
        remaining = s_cnt - 1
        emptied = remaining == 0
        cpu2 = s_cpu - old_steps
        mem2 = s_mem - vm_mem
        src2_bad = (
            (cpu2 > max_cpu) | (mem2 > max_mem) | (remaining > max_vms)
        ).astype(np.int64)
        bad = state.bad_hosts + np.where(
            has_src, np.where(emptied, -s_bad, src2_bad - s_bad), 0
        )
        # Destination-host leg; a same-host edit reads the source leg's
        # intermediate entry (zeros when the source emptied — exactly
        # the per-child check's fresh-entry branch, since an emptied source
        # leaves cpu2 == mem2 == remaining == 0 in exact integers).
        has_dst = has & (dst >= 0)
        dstc = np.where(has_dst, dst, 0)
        same = has_src & (dst == src)
        b_cpu = np.where(same, cpu2, load[dstc])
        b_mem = np.where(same, mem2, mem[dstc])
        b_cnt = np.where(same, remaining, cnt[dstc])
        b_bad = np.where(same, src2_bad, was_bad[dstc].astype(np.int64))
        cpu3 = b_cpu + new_steps
        mem3 = b_mem + vm_mem
        cnt3 = b_cnt + 1
        d_bad = (
            (cpu3 > max_cpu) | (mem3 > max_mem) | (cnt3 > max_vms)
        ).astype(np.int64)
        bad = bad + np.where(has_dst, d_bad - b_bad, 0)
        # Under-cap VM accounting.
        under = has_dst & (new_steps < statics.min_cap_steps)
        bad_vm_count = len(state.bad_vms)
        if bad_vm_count:
            index = self.basis.index
            bad_idx = np.array(
                [index[vm_id] for vm_id in state.bad_vms], dtype=np.int64
            )
            in_bad = np.isin(vmc, bad_idx) & has
        else:
            in_bad = np.zeros(sel.size, dtype=bool)
        bad_vms = (
            bad_vm_count
            + np.where(under & ~in_bad, 1, 0)
            + np.where(~under & in_bad, -1, 0)
        )
        return (bad == 0) & (bad_vms == 0)

    def child_keys(
        self, plan: RoundPlan, sel: np.ndarray, parent_key: bytes
    ) -> list:
        """Dedup key per selected column (``None`` where no VM moves):
        the parent's key bytes with the action's single cell edited —
        byte-identical to encoding the materialized child.

        Each child key is spliced directly out of ``parent_key`` — the
        edited VM's int16 host cell lives at byte ``2*vm`` and its
        float64 cap cell at ``2*n_vms + 8*vm``, so three slices plus the
        two packed cells reproduce the encoded child byte for byte."""
        keys: list = [None] * sel.size
        caps_off = 2 * len(self.statics.codec.vm_ids)
        pack_host = _PACK_INT16
        pack_cap = _PACK_FLOAT64
        join = b"".join
        # Columns cluster by VM (a VM's actions are contiguous in
        # enumeration order), so the three parent slices around each
        # VM's cells are computed once per VM.
        slices: dict[int, tuple] = {}
        host_l = plan.host[sel].tolist()
        cap_l = plan.cap[sel].tolist()
        for row, vm in enumerate(plan.vm[sel].tolist()):
            if vm < 0:
                continue
            parts = slices.get(vm)
            if parts is None:
                o1 = 2 * vm
                o2 = caps_off + 8 * vm
                parts = (
                    parent_key[:o1],
                    parent_key[o1 + 2 : o2],
                    parent_key[o2 + 8 :],
                )
                slices[vm] = parts
            keys[row] = join(
                (
                    parts[0],
                    pack_host(host_l[row]),
                    parts[1],
                    pack_cap(cap_l[row]),
                    parts[2],
                )
            )
        return keys
