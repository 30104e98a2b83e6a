(** Fault-storm scenarios: the fleet under gray failures.

    Boots a rack clean (every tenant placed and attested with no faults
    armed), then arms a per-NIC {!Faults} plan — every
    [flaky_stride]-th NIC at full storm intensity, the others at a
    background drizzle — and runs traffic rounds interleaved with DRAM
    rot, fail-stop injections ({!Failure}) and {!Supervisor} ticks.

    The report captures what the acceptance criteria grep for: the
    [unattested_running] and [scrub_failures] invariants, recovery-latency
    percentiles (fault to re-attested), goodput under faults, and the
    concatenated per-NIC injection log. Everything is a deterministic
    function of [seed]: same seed, byte-identical log and summary. *)

type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int;
  packets_per_round : int;
  intensity : float; (* scales every fault rate; 1.0 = default storm *)
  flaky_stride : int; (* every k-th NIC gets the full storm; 0 = none *)
  dram_flips_per_round : int;
  kill_nics : int; (* fail-stop budget across the run *)
  kill_nfs : int;
}

(** seed 42, 8 NICs / 24 tenants, 6 rounds × 400 packets, full storm on
    every 3rd NIC, 2 DRAM flips per round, 1 NIC + 2 NF fail-stop kills. *)
val default_config : config

type round_report = {
  index : int;
  traffic : Frontend.stats;
  failures : Failure.report option;
  unattested_running : int; (* at the round's quiesce point — must be 0 *)
  faults_so_far : int; (* cumulative injected faults across the fleet *)
}

type report = {
  config : config;
  rounds : round_report list;
  settle_ticks : int; (* extra supervisor ticks to re-home stragglers *)
  initial_attested : int;
  final_attested : int;
  final_unplaced : int;
  unattested_running : int;
  max_unattested_observed : int; (* max across every quiesce point *)
  scrub_failures : int;
  replacements : int;
  retries : int;
  quarantines : int;
  readmissions : int;
  watchdog_failovers : int;
  alarms : int;
  fault_counts : (string * int) list; (* site name -> fleet-wide firings *)
  total_faults : int;
  injection_log : string; (* per-NIC logs, replayable byte-for-byte *)
  recovery_ms : float list; (* fault -> re-attested, oldest first *)
  recovery_p50 : float option; (* None until >= 2 samples exist *)
  recovery_p90 : float option;
  recovery_p99 : float option;
  goodput : float; (* forwarded / injected across all rounds *)
  alive_nics : int;
  quarantined_nics : int;
}

(** {!Run.S} for the storm.  [validate]: NICs, tenants, rounds and
    packets per round >= 1; kill budgets, DRAM flips, stride and
    intensity >= 0.  [run]: [domains] parallelizes the NIC boot phase
    ({!Orchestrator.create}); the storm itself is sequential.  [summary]
    ends with ["invariants: unattested_running=0 scrub_failures=0 ..."]
    on a passing run.  [gates]: [unattested_running = 0] and
    [scrub_failures = 0]. *)
include Run.S with type config := config and type report := report

(** [run_with ?sink ?domains config] also hands back the orchestrator
    for inspection.  When [sink] records ({!Obs.create}), every NIC
    traces its device events into it (one Chrome pid per NIC) and the
    fleet telemetry shares its registry — this is what [snic_cli trace]
    uses. *)
val run_with : ?sink:Obs.sink -> ?domains:int -> config -> report * Orchestrator.t

(** ["-"] for [None], ["12.34ms"] for [Some] — how the summary and the
    bench render optional recovery quantiles. *)
val quantile_str : float option -> string
