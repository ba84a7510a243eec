"""The A*'s expansion rounds (DESIGN.md §13).

One expansion round of the adaptation search enumerates ~``VMs x
hosts`` actions against the parent configuration, ranks them by
distance to the ideal when pruning, and builds children for the
survivors.  Evaluated one child at a time (``_SearchBasis.child_state``
in ``core/search.py``), every child would copy and re-reduce the
parent's per-VM term lists, and re-run ``placement_delta`` and the
per-action term expressions.  This module keeps that work per block
or per parent instead:

``ActionBlock``
    Enumeration emits actions in cached per-VM sublists whose cache key
    pins every fact ``AdaptationAction.placement_delta`` would consult
    (placement, cap, powered set, replica bounds).  An ``ActionBlock``
    is the static image of one sublist — the sublist itself, the edited
    VM's slot, the ``placement_delta`` verdict and delta tuple per
    action, and the packed key cells — cached under the same key.

``ArrayBasis``
    Per-search tables and the round's steps.  The per-action (distance,
    host-match, cost-to-go) terms are computed once per (search, block)
    by the very scalar expressions of ``_SearchBasis``, and cached with
    the block's valid columns.  A round's sums
    start from the parent's prefix sums (:meth:`ArrayBasis.parent_rows`):
    a column edits one VM, so its ordered sum is the parent's prefix up
    to that VM, then the column's term, then the parent's remaining
    terms.  Child dedup keys are the parent's key with one cell edited.

Bit-identity with the per-child expressions — and so with the search's
full re-evaluation oracle, ``SearchSettings(incremental=False)`` — is
the contract throughout: identical float values (same expressions over
the same operands, sums added in the serial order), identical verdicts,
identical ordering.
"""

from __future__ import annotations

import math
import struct
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Mapping, Optional

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


def _replayed_sums(terms: list, rows: list, columns: list, which: int):
    """Per column, ``terms`` summed left to right from 0.0 with the
    column's VM row replaced by the column's own term: entry ``which``
    of its block terms (1 the distance terms, 3 the cost-to-go terms;
    see ``ArrayBasis._vals_of``).

    The sum is the parent's prefix ``rows[vm]``, then the term, then
    the rows after ``vm``: the addition chain of the full sum, so the
    float is the one it gives.  A column that edits no VM, or whose term
    equals the parent's own, has the parent's chain and takes its sum
    ``rows[-1]``; other sums are replayed once per (block, term)."""
    parent_sum = rows[-1]
    out: list = []
    append = out.append
    block = None
    for _, _, k, block_terms in columns:
        if block_terms[0] is not block:
            block = block_terms[0]
            vm = block.vm
            column_terms = block_terms[which]
            if vm >= 0:
                prefix = rows[vm]
                own = terms[vm]
                suffix = terms[vm + 1 :]
                replayed: dict = {}
        if vm < 0:
            append(parent_sum)
            continue
        term = column_terms[k]
        if term == own:
            append(parent_sum)
            continue
        total = replayed.get(term)
        if total is None:
            total = replayed[term] = reduce(add, suffix, prefix + term)
        append(total)
    return out


class ActionBlock:
    """Static image of one cached enumeration sublist.

    Every action of a block edits the one VM in catalog slot ``vm``
    (``-1`` for a host power action's block, which moves none).  Column
    ``k`` describes ``actions[k]`` (the sublist itself): ``deltas[k]``
    is the delta tuple ``placement_delta`` builds (``None`` where it
    rejects the action, ``()`` for a host power action) and
    ``cells[k]`` the VM's packed (host slot, cap) key cells in the
    child.  ``remove_checks`` lists the removals whose validity still
    depends on the parent's replica count (only tiers allowed to scale
    to zero).  Everything else is constant under the sublist's cache
    key.
    """

    __slots__ = ("vm", "actions", "deltas", "cells", "remove_checks")

    def __init__(self, vm, actions, deltas, cells, remove_checks=()):
        self.vm = vm
        self.actions = actions
        self.deltas = deltas
        self.cells = cells
        self.remove_checks = remove_checks


class ArrayStatics:
    """Search-instance constants of the rounds (shared across searches;
    everything here depends only on catalog, limits and the host
    universe)."""

    __slots__ = ("codec", "catalog", "limits")

    def __init__(
        self,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        host_ids,
    ) -> None:
        self.codec = ConfigCodec(catalog.vm_ids(), host_ids)
        self.catalog = catalog
        self.limits = limits


def power_block(action) -> ActionBlock:
    """The single-column block of one host power action: no VM moves,
    the delta is the empty tuple, and validity is pinned by enumeration
    (only unpowered hosts are offered power-on, only idle powered hosts
    power-off)."""
    return ActionBlock(-1, [action], [()], [None])


def vm_block(
    statics: ArrayStatics,
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
    limits = statics.limits
    host_index = statics.codec.host_index
    n = len(sub)
    deltas: list = [None] * n
    cells: list = [None] * n
    remove_checks: list = []
    for k, action in enumerate(sub):
        kind = type(action)
        if kind is IncreaseCpu or kind is DecreaseCpu:
            new_cap = round(src_cap + action._signed_step() * action.count, 10)
            if (
                new_cap < limits.min_vm_cpu_cap - 1e-9
                or new_cap > limits.max_total_cpu_cap + 1e-9
            ):
                continue
            deltas[k] = ((vm_id, Placement(src_host, new_cap)),)
            cells[k] = (_PACK_INT16(host_index[src_host]), _PACK_FLOAT64(new_cap))
        elif kind is MigrateVm:
            deltas[k] = ((vm_id, Placement(action.target_host, src_cap)),)
            cells[k] = (
                _PACK_INT16(host_index[action.target_host]),
                _PACK_FLOAT64(src_cap),
            )
        elif kind is RemoveReplica:
            deltas[k] = ((vm_id, None),)
            cells[k] = (_PACK_INT16(-1), _PACK_FLOAT64(0.0))  # unplaced
            if min_replicas < 1:
                descriptor = statics.catalog.get(vm_id)
                remove_checks.append(
                    (k, (descriptor.app_name, descriptor.tier_name))
                )
        else:  # pragma: no cover - enumeration emits only the above
            raise TypeError(f"unexpected action in VM sublist: {action!r}")
    return ActionBlock(
        statics.codec.vm_index[vm_id],
        sub,
        deltas,
        cells,
        tuple(remove_checks),
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
    limits = statics.limits
    host_index = statics.codec.host_index
    n = len(sub)
    deltas: list = [None] * n
    cells: list = [None] * n
    if dormant_vm is None:
        return ActionBlock(-1, sub, deltas, cells)
    for k, action in enumerate(sub):
        if action.cpu_cap < limits.min_vm_cpu_cap - 1e-9:
            continue
        deltas[k] = (
            (dormant_vm, Placement(action.target_host, action.cpu_cap)),
        )
        cells[k] = (
            _PACK_INT16(host_index[action.target_host]),
            _PACK_FLOAT64(action.cpu_cap),
        )
    return ActionBlock(statics.codec.vm_index[dormant_vm], sub, deltas, cells)


class ArrayBasis:
    """Per-search tables and the steps of one expansion round.

    Wraps the search's ``_SearchBasis`` (per-VM ideal placement facts)
    with the codec universe.  A round is a list of *columns*, one per
    valid action in enumeration order, each ``(action, delta, k,
    terms)``: the action, its delta, its column ``k`` in its block and
    ``terms``, the block with its per-search term lists (see
    :meth:`round_values`).  The round's steps — :meth:`parent_rows`,
    :meth:`distances`, :meth:`sel_reductions`, :meth:`candidacy` and
    :meth:`child_keys` — each take the columns they serve.
    """

    __slots__ = (
        "statics",
        "basis",
        "total",
        "on_dur",
        "off_dur",
        "caps_offset",
        "_block_vals",
    )

    def __init__(self, statics: ArrayStatics, basis) -> None:
        self.statics = statics
        self.basis = basis
        self.total = basis.total
        self.on_dur = basis.durations.get(("power_on", "-"), 90.0)
        self.off_dur = basis.durations.get(("power_off", "-"), 30.0)
        #: Byte offset of the cap cells in a codec key (after the int16
        #: host row).
        self.caps_offset = 2 * len(statics.codec.vm_ids)
        #: id(block) -> ``_vals_of`` entry.  The block reference in it
        #: keeps the id stable for the basis' lifetime (one search), so
        #: eviction of the enumeration cache cannot alias a recycled id
        #: onto stale values.
        self._block_vals: dict[int, tuple] = {}

    # -- per-block terms (per-child scalar expressions) ------------------

    def _vals_of(self, block: ActionBlock) -> tuple:
        """``(terms, columns)`` of ``block`` for this search: ``terms``
        is ``(block, dist_vals, match_vals, togo_vals)``, and
        ``columns`` the block's valid columns as the round lists
        them."""
        cached = self._block_vals.get(id(block))
        if cached is not None and cached[0][0] is block:
            return cached
        basis = self.basis
        limits = basis.limits
        step = limits.cpu_cap_step
        min_cap = limits.min_vm_cpu_cap
        n = len(block.deltas)
        dist_vals = [0.0] * n
        match_vals = [0] * n
        togo_vals = [0.0] * n
        i = block.vm
        for k, delta in enumerate(block.deltas):
            if not delta:  # power action or invalid column: never read
                continue
            ((_, new),) = delta
            cap = new.cpu_cap if new is not None else 0.0
            dist_vals[k] = basis.weights[i] * (cap - basis.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            match_vals[k] = 1 if host == basis.ideal_hosts[i] else 0
            togo_vals[k] = _togo_vm_term(
                new,
                basis.ideal_placements[i],
                basis.tiers[i],
                basis.durations,
                step,
                min_cap,
            )
        terms = (block, dist_vals, match_vals, togo_vals)
        columns = [
            (block.actions[k], delta, k, terms)
            for k, delta in enumerate(block.deltas)
            if delta is not None
        ]
        cached = self._block_vals[id(block)] = (terms, columns)
        return cached

    # -- round steps -----------------------------------------------------

    def round_values(
        self, blocks: list, configuration: Configuration
    ) -> list:
        """The round's columns: the valid actions of ``blocks`` in
        enumeration order, each with its block's per-search terms.  The
        replica counts of ``configuration`` are taken only when a block
        defers a removal check."""
        columns: list = []
        extend = columns.extend
        vals_of = self._vals_of
        counts = None
        for block in blocks:
            block_columns = vals_of(block)[1]
            if block.remove_checks:
                if counts is None:
                    counts = replica_tier_counts(
                        self.statics.catalog, configuration
                    )
                rejected = {
                    k
                    for k, tier_key in block.remove_checks
                    if counts.get(tier_key, 0) <= 1
                }
                block_columns = [
                    column
                    for column in block_columns
                    if column[2] not in rejected
                ]
            extend(block_columns)
        return columns

    def parent_rows(self, terms: list) -> list:
        """Prefix sums of one of the parent's per-VM term lists:
        ``rows[i]`` is ``terms[:i]`` added left to right from 0.0, and
        ``rows[-1]`` the parent's full sum."""
        return list(accumulate(terms, initial=0.0))

    def distances(self, state, columns: list, rows: list) -> list:
        """Distance to the ideal per column, bit-identical to
        ``_SearchBasis.child_distance``: the cap sum replays the
        column's chain off the parent's prefix ``rows`` of
        ``cap_terms``, the host matches are integers, and the final
        expression is the same.

        Ranking is the round's scoring work, so this attributes to the
        search's ``score`` phase (a no-op without an active profile —
        see :mod:`repro.telemetry.phases`)."""
        with _phases.phase("score"):
            cap_sums = _replayed_sums(state.cap_terms, rows, columns, 1)
            host_matches = state.host_matches
            parent_matches = sum(host_matches)
            total = self.total
            sqrt = math.sqrt
            out = []
            for cap_sum, (_, _, k, (block, _, match_vals, _)) in zip(
                cap_sums, columns
            ):
                vm = block.vm
                matches = (
                    parent_matches
                    if vm < 0
                    else parent_matches - host_matches[vm] + match_vals[k]
                )
                out.append(
                    sqrt(cap_sum) + (1.0 - (matches / total if total else 1.0))
                )
            return out

    def sel_reductions(
        self, state, columns: list, rows: list, n_on: int, n_off: int
    ) -> list:
        """Cost-to-go seconds per column: the addition chain
        ``_SearchBasis.togo_seconds`` runs for the child — its
        ``togo_terms`` replayed off the parent's prefix ``rows``, then
        the parent's ``n_on`` power-on and ``n_off`` power-off legs in
        the serial order.  (A host power column changes the powered
        set, so the round prices it in full instead.)"""
        sums = _replayed_sums(state.togo_terms, rows, columns, 3)
        if not (n_on or n_off):
            return sums
        on_dur = self.on_dur
        off_dur = self.off_dur
        out = []
        for acc in sums:
            for _ in range(n_on):
                acc = acc + on_dur
            for _ in range(n_off):
                acc = acc + off_dur
            out.append(acc)
        return out

    def candidacy(
        self, state, configuration: Configuration, columns: list
    ) -> list:
        """Candidate verdict per column (``None`` for host power
        columns): ``_SearchBasis.child_candidate`` on each column's
        one-VM delta against the parent ``configuration``."""
        child_candidate = self.basis.child_candidate
        return [
            child_candidate(state, configuration, delta) if delta else None
            for _, delta, _, _ in columns
        ]

    def child_keys(self, columns: list, parent_key: bytes) -> list:
        """Dedup key per column (``None`` for host power columns): the
        parent's key bytes with the action's single VM edited —
        byte-identical to encoding the materialized child.

        The edited VM's int16 host cell lives at byte ``2*vm`` and its
        float64 cap cell at ``2*n_vms + 8*vm``, so three slices of
        ``parent_key`` (taken once per VM) plus the column's two packed
        cells reproduce the encoded child byte for byte."""
        caps_offset = self.caps_offset
        join = b"".join
        slices: dict[int, tuple] = {}
        keys: list = []
        for _, _, k, (block, _, _, _) in columns:
            vm = block.vm
            if vm < 0:
                keys.append(None)
                continue
            parts = slices.get(vm)
            if parts is None:
                o1 = 2 * vm
                o2 = caps_offset + 8 * vm
                parts = slices[vm] = (
                    parent_key[:o1],
                    parent_key[o1 + 2 : o2],
                    parent_key[o2 + 8 :],
                )
            host_cell, cap_cell = block.cells[k]
            keys.append(join((parts[0], host_cell, parts[1], cap_cell, parts[2])))
        return keys
