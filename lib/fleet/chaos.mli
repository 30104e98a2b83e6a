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
  bytes_per_mb : int;
  supervisor : Supervisor.config;
}

(** seed 42, 8 NICs / 24 tenants, 4 rounds × 400 packets, full storm on
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

(** [run ?domains config] — [domains] (default 1) parallelizes the NIC
    boot phase ({!Orchestrator.create}); the storm itself is sequential
    and the report is byte-identical for every value. *)
val run : ?domains:int -> config -> report

(** [run_with ?sink ?domains config] also hands back the orchestrator
    for inspection.  When [sink] records ({!Obs.create}), every NIC
    traces its device events into it (one Chrome pid per NIC) and the
    fleet telemetry shares its registry — this is what [snic_cli trace]
    uses. *)
val run_with : ?sink:Obs.sink -> ?domains:int -> config -> report * Orchestrator.t

(** [run_many ?domains ?record ~shards config] runs [shards] independent
    storms, shard [i] re-seeded with
    [Par.Seed.derive ~seed:config.seed ~shard:i], fanned across
    [domains] OCaml domains (default 1; each shard runs single-domain
    inside).  Reports return in shard order, byte-identical for every
    [domains] value — any shard reproduces alone via {!run} with its
    derived seed.  With [record] each shard gets its own recording sink
    (returned with its report) for the caller to merge through
    [Obs.Metrics.merge_into]; see PARALLELISM.md. *)
val run_many : ?domains:int -> ?record:bool -> shards:int -> config -> (report * Obs.sink) array

(** {2 Noisy-neighbor / starvation scenarios}

    The performance-isolation counterpart of the fault storm: tenant 0
    floods the rack's shared IO fabric (bus, DMA, accelerator) while
    the remaining tenants run small latency-sensitive requests under an
    SLO.  The fabric is fronted by a {!Nicsim.Qos} credit arbiter and
    the {!Supervisor} watches per-round SLO deltas, quarantining the
    {e aggressor tenant} (drain + probation readmission) when victim
    violations are sustained.  An identical-seed pass with the arbiter
    bypassed provides the unprotected baseline.  Deterministic: same
    seed, byte-identical summary. *)

type qos_config = {
  q_seed : int;
  q_nics : int;
  q_tenants : int; (* tenant 0 is the aggressor; >= 2 *)
  q_rounds : int;
  q_requests : int; (* victim requests per tenant per round *)
  q_factor : int; (* aggressor load multiplier *)
  q_epoch : int; (* qos accounting epoch, cycles *)
  q_slo : int; (* victim latency SLO, cycles *)
  q_starve : bool; (* zero structural slack: capacity = sum of guarantees *)
  q_policy : Policy.t;
  q_bytes_per_mb : int;
  q_supervisor : Supervisor.config;
}

(** seed 42, 4 NICs / 8 tenants (1 aggressor + 7 victims), 8 rounds of
    40 victim requests at 8x aggressor load, 10k-cycle epochs, 2k-cycle
    SLO, structural slack enabled. *)
val default_qos_config : qos_config

type qos_tenant = {
  qt_tid : int;
  qt_aggressor : bool;
  qt_grants : int;
  qt_throttles : int;
  qt_borrowed : int; (* credits granted beyond the guarantee *)
  qt_share : float; (* worst-resource granted/requested fraction *)
  qt_p50 : float option; (* latency quantiles, cycles *)
  qt_p90 : float option;
  qt_p99 : float option;
  qt_samples : int;
  qt_slo_violations : int;
  qt_quarantined : bool; (* breaker went Open at least once *)
}

type qos_report = {
  q_config : qos_config;
  q_outcomes : qos_tenant list; (* tenant 0 first *)
  q_victim_p99 : float option; (* worst victim p99 over the whole run *)
  q_victim_p99_steady : float option; (* worst victim p99, final round *)
  q_unprotected_p99 : float option; (* worst victim p99, arbiter bypassed *)
  q_share_min : float; (* min victim guaranteed-share kept — floor 0.9 *)
  q_starved : int; (* victims with zero grants — must be 0 *)
  q_aggressor_throttles : int;
  q_quarantines : int; (* noisy-tenant breaker trips *)
  q_readmissions : int;
  q_slo_violations : int;
  q_lat_fairness : Obs.Fairness.report; (* jain over victim 1/p99 *)
}

(** [run_qos ?sink config] — protected pass (arbiter + supervisor) then
    the unprotected baseline pass, returning the report and the
    supervisor for breaker inspection.  Raises [Invalid_argument] for
    fewer than 2 tenants or fewer requests than epochs per round. *)
val run_qos : ?sink:Obs.sink -> qos_config -> qos_report * Supervisor.t

(** Human-readable rollup; ends with the stable greppable line
    ["invariants: starved_victims=0 share_min=... aggressor_quarantined=1"]. *)
val qos_summary : qos_report -> string

(** What makes a QoS run pass: [share_min >= 0.9], the steady-state
    [victim_p99_steady_cycles <= q_slo] (a missing p99 fails), and
    [starved_victims = 0]. *)
val qos_gates : qos_report -> Obs.Gate.t list

(** ["-"] for [None], ["12.34ms"] for [Some] — how the summary and the
    bench render optional recovery quantiles. *)
val quantile_str : float option -> string

(** ["-"] for [None], ["7056cyc"] for [Some] — the cycle-domain
    counterpart used by the QoS summary and bench. *)
val cycles_str : float option -> string

(** Human-readable rollup. The invariants line is stable and greppable:
    ["invariants: unattested_running=0 scrub_failures=0 ..."] on a
    passing run. *)
val summary : report -> string

(** What makes a storm pass: [unattested_running = 0] and
    [scrub_failures = 0]. *)
val gates : report -> Obs.Gate.t list

(** {1 DDoS: the CuckooGuard pair under adversarial traffic}

    A seeded SYN-flood event stream ({!Trace.Attackgen.syn_flood}) is
    replayed through the SYN-cookie split proxy backed by a cuckoo-filter
    whitelist ({!Nf.Syn_proxy} -> {!Nf.Cuckoo}) once per protection mode.
    Per mode, the attacker's reach into the NF's private memory is probed
    with real machine accesses (the same checks as [lib/attacks]):

    - if a cross-tenant {e write} lands ([tampered]), the attacker flips
      whitelist bits and benign flows lose their admission;
    - if a cross-tenant {e read} lands ([key_stolen]), the attacker
      forges valid cookie echoes and saturates the fixed filter.

    Each mode reports benign goodput relative to an attack-free baseline
    pass, plus a no-defense conntrack proxy (per-SYN state at the same
    byte budget) that collapses under state exhaustion.  Memory of the
    protected pair stays flat at its reservation in every mode — the
    fixed-memory defense the paper's isolation model makes safe. *)

type ddos_config = {
  d_seed : int;
  d_benign_flows : int;
  d_attack_factor : int;  (** spoofed SYNs per benign packet *)
  d_packets_per_flow : int;  (** benign data packets after the handshake *)
  d_fp_bits : int;  (** whitelist fingerprint bits *)
  d_log2_buckets : int;  (** whitelist size: 2^k buckets x 4 slots *)
  d_conntrack_entry_bytes : int;  (** naive per-SYN state, unprotected pass *)
  d_corrupt_period : int;  (** tampered modes: one bit flip per k attack pkts *)
  d_modes : Nicsim.Machine.mode list;
}

val ddos_modes : Nicsim.Machine.mode list
(** The five evaluated protection modes (SE-UM with xkphys hiding). *)

val default_ddos_config : ddos_config
(** Seed 42, 256 benign flows, 10x attack factor, 2^10-bucket whitelist. *)

type ddos_mode_report = {
  dm_mode : Nicsim.Machine.mode;
  dm_tampered : bool;  (** a cross-tenant write landed in NF memory *)
  dm_key_stolen : bool;  (** a cross-tenant read of NF memory succeeded *)
  dm_baseline_goodput : int;  (** benign data pkts delivered, no attack *)
  dm_goodput : int;  (** benign data pkts delivered under attack *)
  dm_unprotected_goodput : int;  (** naive conntrack proxy, no cookies *)
  dm_goodput_ratio : float;
  dm_unprotected_ratio : float;
  dm_attack_pkts : int;
  dm_attack_dropped : int;
  dm_benign_dropped : int;
  dm_challenges : int;
  dm_admitted : int;
  dm_forged_admits : int;  (** key-stolen modes: forged cookies accepted *)
  dm_corrupt_flips : int;  (** tampered modes: filter bits flipped *)
  dm_whitelist_load : float;
  dm_mem_reserved_bytes : int;  (** proxy whitelist + tracker, fixed *)
  dm_mem_peak_bytes : int;
  dm_mem_flat : bool;  (** peak = reserved: the fixed-reservation story *)
  dm_unprotected_mem_peak_bytes : int;
  dm_unprotected_mem_wanted_bytes : int;  (** per-SYN state demand *)
}

type ddos_report = {
  d_config : ddos_config;
  d_mode_reports : ddos_mode_report list;
  d_benign_pkts : int;
  d_attack_pkts : int;
  d_events_digest : int;  (** attack-generator determinism fingerprint *)
  d_snic_goodput_ratio : float;
  d_snic_mem_flat : bool;
  d_snic_tampered : bool;
  d_snic_key_stolen : bool;
}

(** [run_ddos ?sink config] — per mode: probe the attacker's reach, run
    the attack-free baseline, the protected pass and the no-defense
    conntrack pass over the same seeded event stream.  [sink] receives
    the [ddos_*] hot-path counters of the protected passes.  Raises
    [Invalid_argument] on an empty mode list, fewer than 1 benign flow,
    an attack factor < 1 or a corrupt period < 1. *)
val run_ddos : ?sink:Obs.sink -> ddos_config -> ddos_report

(** Human-readable rollup; ends with the stable greppable line
    ["invariants: snic_goodput=1.0000 snic_mem_flat=1 snic_tampered=0
    snic_key_stolen=0"] on a passing run. *)
val ddos_summary : ddos_report -> string

(** What makes a flood run pass, all in S-NIC mode:
    [snic.goodput_ratio >= 0.8], [snic.mem_flat = 1], [snic.tampered = 0]
    and [snic.key_stolen = 0]. *)
val ddos_gates : ddos_report -> Obs.Gate.t list

(** {2 Fabric scenario}

    Attested NIC-to-NIC channels carrying a cross-NIC NF chain: the
    CuckooGuard pair is split across two NICs — SYN proxy on NIC 0,
    cuckoo flow tracker on NIC 1 — and every inter-stage packet crosses
    a {!Fabric.Channel} whose key came out of the full attestation
    handshake on both endpoints.  A seeded benign stream establishes
    flows through the split chain; then

    - the tracker NIC is killed mid-stream: establishment to the dead
      NIC must fail closed, the stage is re-launched on the spare,
      re-attested, re-linked, and the old sender's replay buffer is
      replayed so the rebuilt tracker recovers the admitted flows;
    - an adversary re-delivers captured wire frames verbatim (in-window
      — must bounce as replays), pre-window (must bounce as stale) and
      bit-flipped (must fail the MAC);
    - establishment probes with a mis-staged image and with a cloned EK
      under a fabricated NIC id must be refused with typed errors.

    Benign frames must never trip the authenticator, and goodput with
    the failover must match the failure-free baseline pass. *)

type fabric_config = {
  f_seed : int;
  f_nics : int;  (** >= 3: proxy NIC, tracker NIC, failover spare *)
  f_flows : int;  (** benign flows in the seeded stream *)
  f_packets_per_flow : int;
  f_window : int;  (** receiver anti-replay window (1..62) *)
  f_buffer : int;  (** sender replay-buffer capacity (failover state) *)
  f_replay : int;  (** adversarial re-deliveries of in-window frames *)
  f_reorder : int;  (** adversarial re-deliveries of pre-window frames *)
  f_tamper : int;  (** adversarial bit-flipped frames *)
  f_kill : bool;  (** kill the tracker NIC mid-run and fail over *)
  f_fp_bits : int;  (** whitelist fingerprint bits *)
  f_log2_buckets : int;  (** whitelist size: 2^k buckets x 4 slots *)
  f_bytes_per_mb : int;
}

val default_fabric_config : fabric_config
(** Seed 42, 3 NICs, 96 flows, window 32, one mid-run NIC kill. *)

type fabric_report = {
  f_config : fabric_config;
  f_benign_pkts : int;
  f_events_digest : int;  (** generator determinism fingerprint *)
  f_handshakes : int;  (** successful attested establishments *)
  f_hops : int;  (** frames that crossed an inter-NIC link *)
  f_admitted : int;  (** flows the proxy admitted to the whitelist *)
  f_baseline_goodput : int;  (** benign data pkts delivered, no failure *)
  f_goodput : int;  (** ... with the mid-run NIC kill + failover *)
  f_goodput_ratio : float;
  f_benign_mac_failures : int;  (** must stay 0 *)
  f_replay_sent : int;
  f_replay_rejected : int;
  f_stale_sent : int;
  f_stale_rejected : int;
  f_tamper_sent : int;
  f_tamper_rejected : int;
  f_failed_over : bool;  (** the tracker stage was re-homed *)
  f_dead_establish_refused : bool;  (** channel to the dead NIC refused *)
  f_state_replayed : int;  (** buffered payloads replayed into the new stage *)
  f_state_recovered : int;  (** admitted flows present in the rebuilt tracker *)
  f_misstage_rejected : bool;  (** mis-staged image -> [Attest_failed] *)
  f_clone_rejected : bool;  (** cloned EK under a new NIC id -> [Identity_reuse] *)
}

val run_fabric : ?sink:Obs.sink -> fabric_config -> fabric_report
(** [run_fabric ?sink config] — a failure-free baseline pass, then the
    instrumented pass with the NIC kill and the adversarial replays,
    then the two negative establishment probes.  [sink] receives the
    [fabric_*] hot-path counters and the per-hop spans of the
    instrumented pass.  Raises [Invalid_argument] on fewer than 3 NICs,
    fewer than 1 flow or packet per flow, a window outside 1..62, a
    negative buffer or negative adversarial counts. *)

val run_fabric_with : ?sink:Obs.sink -> ?domains:int -> fabric_config -> fabric_report
(** [run_fabric_with ?sink ?domains config] — [domains] parallelises the
    rack boots; the report is bit-identical for any value. *)

val run_fabric_many : ?domains:int -> shards:int -> fabric_config -> fabric_report array
(** [shards] independent fabric runs under derived seeds, merged by
    shard index (deterministic for any [domains]). *)

val fabric_fail_closed : fabric_report -> bool
(** Every establishment that had to be refused was refused: mis-staged
    image, cloned identity, and (when the kill ran) the dead NIC. *)

val fabric_summary : fabric_report -> string
(** Human-readable rollup; ends with the stable greppable line
    ["invariants: benign_mac_fail=0 replay_rejects=24/24
    stale_rejects=24/24 tamper_rejects=16/16 goodput_ratio=1.0000
    failover=1 fail_closed=1"] on a passing default run. *)

val fabric_gates : fabric_report -> Obs.Gate.t list
(** What makes a fabric run pass: [goodput_ratio >= 0.9],
    [benign_mac_failures = 0], [adversary_all_rejected = 1] (every
    replayed, stale and tampered frame bounced), [fail_closed = 1], and
    [failed_over = 1] when [f_kill] is on. *)
