(** The datacenter front-end: replays a synthetic {!Trace.Tracegen}
    workload across the fleet, steering each flow to a tenant by flow
    hash (the classic ECMP-style front-end) and draining every tenant's
    virtual packet pipeline through its NF.

    Steering rewrites the packet's destination port to the tenant's
    service port — the same 5-tuple rewrite a load-balancing front-end
    performs — so the per-NIC switch rules installed at [nf_create] time
    deliver it to the right virtual pipeline. Packets addressed to a
    tenant that currently has no placement (mid-failure) count as
    front-end drops. *)

type stats = {
  injected : int; (* frames handed to some NIC's ingress *)
  undeliverable : int; (* tenant had no live placement *)
  forwarded : int; (* frames the NFs forwarded back out *)
  dropped : int; (* frames the NFs (or pipelines) dropped *)
}

(** [replay orch ~seed ~packets ()] — generate an ICTF-like trace of
    [packets] events over 512 flows from [seed] and push it through the
    fleet, draining every tenant after each 32 injections so small VPP
    buffer pools don't overflow. Per-tenant and per-NIC counters land in
    the orchestrator's telemetry.

    Ingress is batched: frames buffer per NIC in event order and land
    through one {!Snic.Api.inject_batch} per NIC immediately before
    each drain point, which amortizes per-frame dispatch without
    changing any observable outcome (per-node frame order, pool
    occupancy at every drain point, and all counters match the
    one-packet-at-a-time path byte for byte). *)
val replay : Orchestrator.t -> seed:int -> packets:int -> unit -> stats
