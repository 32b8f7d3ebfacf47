"""Multi-tenant serving example: isolated worlds, one shared runtime.

Part 1 — **a mixed fleet**: expands a
:class:`~repro.synth.tenants.TenantMixConfig` into one static, one
drifting and one copying tenant, hosts them on a single
:class:`~repro.serving.tenancy.TenantManager` (per-tenant metric
labels, fair-share drain) via :func:`run_tenants`, and prints the
per-tenant eval table.  Running the mix twice proves the whole report
is deterministic: same config, same bytes.

Part 2 — **a noisy neighbor**: re-hosts the same fleet but injects a
permanent poison delta into tenant00's stream.  The victim degrades
(one delta parked in its dead-letter hold), while tenant01 finishes
byte-identical to its run in the healthy fleet — the isolation
contract the chaos suite pins.

Usage::

    PYTHONPATH=src python examples/tenants_demo.py
"""

import json

from repro.core.scenarios import run_tenants
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.serving.tenancy import TenantManager
from repro.synth.tenants import TenantMixConfig

MIX = TenantMixConfig(
    n_tenants=3, seed=11, n_items=12, n_sources=4, parts=2, epochs=2
)


def mixed_fleet() -> None:
    report = run_tenants(MIX, metrics=MetricsRegistry())
    print(report.table())
    again = run_tenants(MIX, metrics=MetricsRegistry())
    first = json.dumps(report.to_json_dict(), sort_keys=True)
    second = json.dumps(again.to_json_dict(), sort_keys=True)
    assert first == second
    print(
        f"double run: {len(first)} report bytes, identical -> "
        "the mix is deterministic"
    )


def noisy_neighbor() -> None:
    healthy = TenantManager.from_mix(MIX)
    healthy.drain_fair()
    reference = healthy.tenant("tenant01").server.versions.current

    stormy = TenantManager.from_mix(
        MIX,
        fault_plans={
            "tenant00": FaultPlan(seed=5).crash(
                "stream:apply", index=0, attempts=0
            ),
        },
    )
    stormy.drain_fair()
    victim = stormy.tenant("tenant00").server.status()
    bystander = stormy.tenant("tenant01").server.versions.current
    print(
        f"tenant00 under poison: {victim.poisoned} delta parked, "
        f"version {victim.version_id} still serving"
    )
    assert victim.quarantined_held == 1
    assert bystander.canonical_bytes() == reference.canonical_bytes()
    print(
        "tenant01 next door: byte-identical to the healthy fleet -> "
        "the blast radius is one tenant"
    )


if __name__ == "__main__":
    mixed_fleet()
    print()
    noisy_neighbor()
