"""Victim selection — a faithful implementation of the paper's Algorithm 1.

When a store is full, DoubleDecker selects *one* victim entity (first a VM,
then a container within that VM) and evicts a small batch from it.  The
selection redistributes the under-used entitlements among over-users in
proportion to their weights, then picks the entity with the largest
*exceed* value:

    exceed(E, b, cw) = E.used + EvictionSize
                       - (E.entitlement + b * E.weightage / cw)

where ``b`` is the sum of under-utilized entitlement slack and ``cw`` the
total weight of the over-users.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["Entity", "select_victim", "exceed_value"]

#: A VM or a container as Algorithm 1 sees it: ``(ref, entitlement, used,
#: weightage)``.  ``ref`` carries the underlying object (a
#: :class:`~repro.core.pools.VMEntry` or :class:`~repro.core.pools.Pool`);
#: the algorithm only reads the three numbers.
Entity = Tuple[Any, int, int, float]


def exceed_value(
    entity: Entity,
    eviction_size: int,
    underused_buffer: int,
    cumulative_weight: float,
) -> float:
    """The paper's ``exceed(E, b, cw)`` — how far past its *effective*
    entitlement (base entitlement plus redistributed slack) this entity
    would be after the pending store of ``eviction_size`` blocks."""
    _, entitlement, used, weightage = entity
    if cumulative_weight > 0:
        redistributed = underused_buffer * weightage / cumulative_weight
    else:
        redistributed = 0.0
    return used + eviction_size - (entitlement + redistributed)


def select_victim(
    entities: Sequence[Entity], eviction_size: int, policy: str = "exceed"
) -> Tuple[Optional[Entity], int, float]:
    """Select the eviction victim among ``entities`` (Algorithm 1).

    Returns ``(winner, b, cw)``: the over-user holding blocks with the
    largest exceed value (the first of equals), and the slack and weight
    sums it was scored with.  The largest holder wins instead under
    ``policy="max_used"``, and under ``"exceed"`` when no over-user holds
    anything (which can only happen with degenerate entitlement
    configurations); ``winner`` is ``None`` when nothing is held at all.
    """
    if eviction_size <= 0:
        raise ValueError(f"eviction_size must be positive, got {eviction_size}")

    overused: List[Entity] = []
    cumulative_weight = 0.0
    underused_buffer = 0
    for entity in entities:
        _, entitlement, used, weightage = entity
        if entitlement < used + eviction_size:
            cumulative_weight += weightage
            if used > 0:  # only entities that hold blocks can yield evictions
                overused.append(entity)
        if entitlement - used > 2 * eviction_size:
            underused_buffer += entitlement - used

    winner: Optional[Entity] = None
    if policy == "exceed":
        best = 0.0
        for entity in overused:
            value = exceed_value(
                entity, eviction_size, underused_buffer, cumulative_weight)
            if winner is None or value > best:
                winner, best = entity, value
    if winner is None:
        most = 0
        for entity in entities:
            if entity[2] > most:
                winner, most = entity, entity[2]
    return winner, underused_buffer, cumulative_weight
