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
}

(** The acceptance scenario: seed 42, 16 NICs, 64 tenants, first-fit,
    3 rounds x 600 packets, 2 NIC kills, 4 NF kills. *)
val default_config : config

(** [gap_failures orch rng ~kill_nics ~kill_nfs ~rounds ~gap] injects
    gap [gap]'s share of each fail-stop budget after round [gap] of
    [rounds] ({!Failure.inject}); [None] after the last round or when
    both shares are 0. *)
val gap_failures :
  Orchestrator.t -> Trace.Rng.t -> kill_nics:int -> kill_nfs:int -> rounds:int -> gap:int -> Failure.report option

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

(** {!Run.S} for the rack.  [validate]: NICs, tenants, rounds and
    packets per round >= 1, kill budgets >= 0.  [run]: [domains]
    parallelizes the NIC boot phase ({!Orchestrator.create}).  [gates]:
    no NF runs unattested and every teardown scrub verified
    ([unattested_running = 0], [scrub_failures = 0]). *)
include Run.S with type config := config and type report := report

(** Telemetry exports for the run behind [report] are taken from the
    orchestrator; [run_with] returns it alongside the report when the
    caller needs raw counters.  A recording [sink] traces every NIC's
    devices (one Chrome pid per NIC) and shares its metrics registry
    with the fleet telemetry. *)
val run_with : ?sink:Obs.sink -> ?domains:int -> config -> report * Orchestrator.t
