(** Per-tenant and per-NIC counters for a fleet run, exportable as CSV
    or JSON.

    The orchestrator, front-end and failure injector all report here;
    nothing in this module touches the simulation, so exporting is pure
    and a seeded run always serializes to byte-identical output (the
    determinism tests diff these exports).

    Fleet-wide counters are backed by an {!Obs.Metrics} registry — pass
    the trace sink's registry to {!create} and one {!prometheus} dump
    covers control-plane counters and device counters alike.  Per-tenant
    and per-NIC stats remain plain records serialized by the CSV/JSON
    exporters. *)

type tenant_stats = {
  mutable placements : int; (* successful nf_create+attest cycles *)
  mutable attest_failures : int;
  mutable evictions : int; (* NF lost to a NIC/NF failure *)
  mutable received : int; (* packets its NF drained *)
  mutable forwarded : int;
  mutable dropped : int;
  mutable faults : int; (* isolation faults while processing *)
}

type nic_stats = {
  mutable hosted : int; (* placements that landed here (cumulative) *)
  mutable lost : int; (* NFs lost when this NIC died *)
  mutable scrubs_verified : int; (* teardowns whose RAM we checked zero *)
  mutable injected : int; (* frames the front-end pushed at this NIC *)
}

type t

(** [create ?registry ()] — fleet-wide counters are registered in
    [registry] (fresh one if omitted) under [fleet_*] names. *)
val create : ?registry:Obs.Metrics.registry -> unit -> t

(** The backing registry (shared with the trace sink when one was
    passed to {!create}). *)
val registry : t -> Obs.Metrics.registry

(** Prometheus text dump of every metric in the backing registry. *)
val prometheus : t -> string

(** Per-tenant stats row, created on first touch. *)
val tenant : t -> int -> tenant_stats

(** Per-NIC stats row, created on first touch. *)
val nic : t -> int -> nic_stats

(** {2 Fleet-wide counters} *)

val placement_failure : t -> unit
val replacement : t -> unit
val nic_kill : t -> unit
val nf_kill : t -> unit

(** Accumulate the modeled attestation latency ({!Memprof.Instr_latency.attest_ms}). *)
val add_attest_ms : t -> float -> unit

(** {2 Self-healing counters (reported by the supervisor)} *)

val retry : t -> unit
val quarantine : t -> unit
val readmission : t -> unit
val watchdog_failover : t -> unit
val health_probe : t -> unit
val probe_failure : t -> unit

(** {2 Performance-isolation counters (QoS / SLO supervision)} *)

val tenant_quarantine : t -> unit
(** A noisy tenant's NFs were drained on sustained SLO violation. *)

val tenant_readmission : t -> unit
(** A quarantined tenant was re-placed on probation. *)

val add_slo_violations : t -> int -> unit
(** Accumulate one round's tenant SLO violations. *)

val placement_failures : t -> int
val replacements : t -> int
val nic_kills : t -> int
val nf_kills : t -> int
val attest_ms_total : t -> float
val retries : t -> int
val quarantines : t -> int
val readmissions : t -> int
val watchdog_failovers : t -> int
val health_probes : t -> int
val probe_failures : t -> int
val tenant_quarantines : t -> int
val tenant_readmissions : t -> int
val slo_violations : t -> int

val total_attests : t -> int

(** {2 Export} *)

(** [tenants_csv t] — one row per tenant id (sorted), header included. *)
val tenants_csv : t -> string

(** [nics_csv t] — one row per NIC id (sorted), header included. *)
val nics_csv : t -> string

(** [to_json t] — the whole telemetry tree as a single JSON object. *)
val to_json : t -> string
