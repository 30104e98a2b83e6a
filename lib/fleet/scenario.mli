(** End-to-end seeded fleet scenarios: boot, place + attest, replay
    traffic, inject failures between rounds, recover, and report.

    One [config] fully determines the run — the CLI, the example, the
    benchmarks and the tests all call {!run} with different configs and
    rely on its determinism. *)

type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int; (* traffic rounds; failures strike between them *)
  packets_per_round : int;
  kill_nics : int; (* NIC deaths injected over the whole run *)
  kill_nfs : int; (* orderly NF kills injected over the whole run *)
  bytes_per_mb : int;
}

(** The acceptance scenario: seed 42, 16 NICs, 64 tenants, first-fit,
    3 rounds x 600 packets, 2 NIC kills, 4 NF kills. *)
val default_config : config

type round = { index : int; traffic : Frontend.stats; failures : Failure.report option }

type report = {
  config : config;
  rounds : round list;
  initial_attested : int; (* tenants placed+attested before round 1 *)
  final_attested : int;
  final_unplaced : int;
  unattested_running : int; (* invariant: 0 at end of run *)
  scrub_failures : int; (* invariant: 0 *)
  replacements : int;
  active_nics : int; (* alive NICs hosting at least one NF *)
  alive_nics : int;
}

(** [run ?domains config] — [domains] (default 1) parallelizes the NIC
    boot phase ({!Orchestrator.create}); the report is byte-identical
    for every value. *)
val run : ?domains:int -> config -> report

(** Human-readable multi-line summary. *)
val summary : report -> string

(** What makes a run pass: no NF runs unattested and every teardown
    scrub verified ([unattested_running = 0], [scrub_failures = 0]). *)
val gates : report -> Obs.Gate.t list

(** Telemetry exports for the run behind [report] are taken from the
    orchestrator; [run_with] returns it alongside the report when the
    caller needs raw counters.  A recording [sink] traces every NIC's
    devices (one Chrome pid per NIC) and shares its metrics registry
    with the fleet telemetry. *)
val run_with : ?sink:Obs.sink -> ?domains:int -> config -> report * Orchestrator.t

(** [run_many ?domains ?record ~shards config] runs [shards] independent
    copies of the scenario, shard [i] re-seeded with
    [Par.Seed.derive ~seed:config.seed ~shard:i], fanned across
    [domains] OCaml domains (default 1; each shard itself runs
    single-domain).  Reports come back in shard order, byte-identical
    for every [domains] value.  With [record] (default false) each shard
    runs under its own recording sink — returned alongside its report —
    whose registries the caller merges via [Obs.Metrics.merge_into]
    (recording sinks must never be shared across domains; see
    PARALLELISM.md). *)
val run_many : ?domains:int -> ?record:bool -> shards:int -> config -> (report * Obs.sink) array
