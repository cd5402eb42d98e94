"""Shared campaign-parity assertions.

Every execution strategy in the fault-injection stack (replay vs
checkpoint engines, pruning, composition, the durable service, parallel
workers, DME lockstep) carries the same headline contract: for a fixed
seed it must be *bit-identical* to the plain flat campaign. The suites
that pin this contract all need the same comparisons — aggregate counts,
fault-site population, fault records field-for-field, per-origin
maps, JSONL bytes. Keeping them here means a new execution strategy
(like the DME detector) states its parity obligations in one line per
axis instead of re-deriving the assertion set.
"""

from __future__ import annotations

from pathlib import Path

from repro.faultinjection.telemetry import outcomes_by_origin


def assert_counts_identical(actual, reference, context=""):
    """Aggregate outcome counts and population size must match."""
    note = f" [{context}]" if context else ""
    assert actual.outcomes.counts == reference.outcomes.counts, (
        f"outcome counts diverge{note}: "
        f"{actual.outcomes.counts} != {reference.outcomes.counts}")
    assert actual.fault_sites == reference.fault_sites, (
        f"fault-site population diverges{note}")
    assert actual.samples == reference.samples, (
        f"sample count diverges{note}")


def assert_campaigns_identical(actual, reference, context=""):
    """Full bit-identity: counts, population, and fault records.

    Records are compared field-for-field in run-index order.
    """
    assert_counts_identical(actual, reference, context=context)
    note = f" [{context}]" if context else ""
    assert actual.records is not None and reference.records is not None, (
        f"parity check needs records on both sides{note}")
    assert actual.records == reference.records, (
        f"fault records diverge{note}")


def assert_origin_maps_identical(actual_records, reference_records,
                                 context=""):
    """Per-origin outcome maps must agree origin-by-origin."""
    note = f" [{context}]" if context else ""
    by_actual = outcomes_by_origin(actual_records)
    by_reference = outcomes_by_origin(reference_records)
    assert by_actual.keys() == by_reference.keys(), (
        f"origin sets diverge{note}: "
        f"{sorted(by_actual)} != {sorted(by_reference)}")
    for origin, counts in by_reference.items():
        assert by_actual[origin].counts == counts.counts, (
            f"origin {origin!r} counts diverge{note}")


def assert_jsonl_identical(actual_path, reference_path):
    """Two JSONL sinks must hold the same bytes.

    Every campaign path writes records in the one serve order (by fault
    site, then run index), so identity is byte identity.
    """
    actual_bytes = Path(actual_path).read_bytes()
    reference_bytes = Path(reference_path).read_bytes()
    assert actual_bytes == reference_bytes, (
        f"JSONL bytes diverge: {actual_path} != {reference_path}")
