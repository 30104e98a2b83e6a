open Nicsim

type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int;
  packets_per_round : int;
  intensity : float;
  flaky_stride : int;
  dram_flips_per_round : int;
  kill_nics : int;
  kill_nfs : int;
  bytes_per_mb : int;
  supervisor : Supervisor.config;
}

let default_config =
  {
    seed = 42;
    n_nics = 8;
    n_tenants = 24;
    policy = Policy.First_fit;
    rounds = 6;
    packets_per_round = 400;
    intensity = 3.0;
    flaky_stride = 3;
    dram_flips_per_round = 2;
    kill_nics = 1;
    kill_nfs = 2;
    bytes_per_mb = 1024;
    supervisor = Supervisor.default_config;
  }

(* Gray failures cluster in real racks: every [flaky_stride]-th NIC gets
   the full storm, the rest only a background drizzle — health scoring
   must tell them apart, quarantining the former without starving the
   fleet of the latter's capacity. *)
let background_scale = 0.05

type round_report = {
  index : int;
  traffic : Frontend.stats;
  failures : Failure.report option;
  unattested_running : int; (* captured at the round's quiesce point *)
  faults_so_far : int;
}

type report = {
  config : config;
  rounds : round_report list;
  settle_ticks : int;
  initial_attested : int;
  final_attested : int;
  final_unplaced : int;
  unattested_running : int;
  max_unattested_observed : int;
  scrub_failures : int;
  replacements : int;
  retries : int;
  quarantines : int;
  readmissions : int;
  watchdog_failovers : int;
  alarms : int;
  fault_counts : (string * int) list;
  total_faults : int;
  injection_log : string;
  recovery_ms : float list;
  recovery_p50 : float option;
  recovery_p90 : float option;
  recovery_p99 : float option;
  goodput : float;
  alive_nics : int;
  quarantined_nics : int;
}

let seed c = c.seed
let with_seed c seed = { c with seed }

let validate c =
  Run.check
    [
      (c.n_nics >= 1, "nics must be >= 1");
      (c.n_tenants >= 1, "tenants must be >= 1");
      (c.rounds >= 1, "rounds must be >= 1");
      (c.packets_per_round >= 1, "packets per round must be >= 1");
      (c.kill_nics >= 0 && c.kill_nfs >= 0, "kill budgets must be >= 0");
      (c.dram_flips_per_round >= 0, "DRAM flips per round must be >= 0");
      (c.flaky_stride >= 0, "stride must be >= 0");
      (c.intensity >= 0., "intensity must be >= 0");
    ]

let node_plan config node =
  let id = Node.id node in
  let intensity =
    if config.flaky_stride > 0 && id mod config.flaky_stride = config.flaky_stride - 1 then config.intensity
    else config.intensity *. background_scale
  in
  Faults.plan ~seed:(config.seed lxor (0x5EED * (id + 1))) (Faults.storm ~intensity ())

let total_fleet_faults orch =
  Array.fold_left
    (fun acc node ->
      match Machine.faults (Snic.Api.machine (Node.api node)) with
      | Some plan -> acc + Faults.total plan
      | None -> acc)
    0 (Orchestrator.nodes orch)

let dram_rot orch rng =
  let placed =
    Array.of_list
      (List.filter (fun (tn : Orchestrator.tenant) -> tn.Orchestrator.placement <> None)
         (Array.to_list (Orchestrator.tenants orch)))
  in
  if Array.length placed > 0 then begin
    let tn = placed.(Trace.Rng.int rng (Array.length placed)) in
    match tn.Orchestrator.placement with
    | None -> ()
    | Some p ->
      let node = p.Orchestrator.node in
      let handle = Snic.Vnic.handle p.Orchestrator.vnic in
      let off = Trace.Rng.int rng handle.Snic.Instructions.mem_len in
      let bit = Trace.Rng.int rng 8 in
      let machine = Snic.Api.machine (Node.api node) in
      Physmem.flip_bit (Machine.mem machine) ~pos:(handle.Snic.Instructions.mem_base + off) ~bit;
      (match Machine.faults machine with
      | Some plan ->
        ignore
          (Faults.record plan ~device:"dram" Faults.Dram_flip
             ~detail:
               (Printf.sprintf "tenant=%d pos=%#x bit=%d" tn.Orchestrator.tid
                  (handle.Snic.Instructions.mem_base + off) bit))
      | None -> ())
  end

let run_with ?(sink = Obs.null) ?(domains = 1) config =
  Run.valid (validate config);
  let orch =
    Orchestrator.create ~sink ~domains
      {
        Orchestrator.seed = config.seed;
        n_nics = config.n_nics;
        n_tenants = config.n_tenants;
        policy = config.policy;
        bytes_per_mb = config.bytes_per_mb;
      }
  in
  let initial_attested = Orchestrator.attested_count orch in
  (* The fleet boots clean; only then does the storm start. *)
  Array.iter
    (fun node -> Machine.set_faults (Snic.Api.machine (Node.api node)) (node_plan config node))
    (Orchestrator.nodes orch);
  let sup = Supervisor.create ~seed:config.seed orch config.supervisor in
  let chaos_rng = Trace.Rng.create ~seed:(config.seed lxor 0xC4A05) in
  let fail_rng = Trace.Rng.create ~seed:(config.seed lxor 0xDEAD) in
  let rounds = ref [] in
  let fail_scrubs = ref 0 in
  let max_unatt = ref 0 in
  let injected_total = ref 0 and forwarded_total = ref 0 in
  for i = 0 to config.rounds - 1 do
    let traffic = Frontend.replay orch ~seed:(config.seed + (131 * i)) ~packets:config.packets_per_round () in
    injected_total := !injected_total + traffic.Frontend.injected;
    forwarded_total := !forwarded_total + traffic.Frontend.forwarded;
    for _ = 1 to config.dram_flips_per_round do
      dram_rot orch chaos_rng
    done;
    let failures =
      Scenario.gap_failures orch fail_rng ~kill_nics:config.kill_nics ~kill_nfs:config.kill_nfs
        ~rounds:config.rounds ~gap:i
    in
    Option.iter (fun r -> fail_scrubs := !fail_scrubs + r.Failure.scrub_failures) failures;
    Supervisor.tick sup ~round:i;
    let unatt = Orchestrator.unattested_running orch in
    max_unatt := max !max_unatt unatt;
    rounds :=
      { index = i; traffic; failures; unattested_running = unatt; faults_so_far = total_fleet_faults orch }
      :: !rounds
  done;
  (* Settling: a bad final round can leave tenants stranded mid-backoff;
     keep ticking (bounded) until every recoverable tenant is home. *)
  let settle_ticks = ref 0 in
  while !settle_ticks < config.rounds && Orchestrator.unplaced_count orch > 0 do
    incr settle_ticks;
    Supervisor.tick sup ~round:(config.rounds - 1 + !settle_ticks);
    max_unatt := max !max_unatt (Orchestrator.unattested_running orch)
  done;
  let telemetry = Orchestrator.telemetry orch in
  let nodes = Orchestrator.nodes orch in
  let recovery_ms = Supervisor.recovery_samples_ms sup in
  let fault_counts =
    List.map
      (fun site ->
        ( Faults.site_name site,
          Array.fold_left
            (fun acc node ->
              match Machine.faults (Snic.Api.machine (Node.api node)) with
              | Some plan -> acc + Faults.count plan site
              | None -> acc)
            0 nodes ))
      Faults.all_sites
  in
  let injection_log =
    let buf = Buffer.create 4096 in
    Array.iter
      (fun node ->
        match Machine.faults (Snic.Api.machine (Node.api node)) with
        | Some plan when Faults.total plan > 0 ->
          Printf.bprintf buf "=== nic %d ===\n%s" (Node.id node) (Faults.log_to_string plan)
        | _ -> ())
      nodes;
    Buffer.contents buf
  in
  let report =
    {
      config;
      rounds = List.rev !rounds;
      settle_ticks = !settle_ticks;
      initial_attested;
      final_attested = Orchestrator.attested_count orch;
      final_unplaced = Orchestrator.unplaced_count orch;
      unattested_running = Orchestrator.unattested_running orch;
      max_unattested_observed = !max_unatt;
      scrub_failures = !fail_scrubs + Supervisor.scrub_failures sup;
      replacements = Telemetry.replacements telemetry;
      retries = Telemetry.retries telemetry;
      quarantines = Telemetry.quarantines telemetry;
      readmissions = Telemetry.readmissions telemetry;
      watchdog_failovers = Telemetry.watchdog_failovers telemetry;
      alarms = Supervisor.alarms sup;
      fault_counts;
      total_faults = total_fleet_faults orch;
      injection_log;
      recovery_ms;
      recovery_p50 = Supervisor.recovery_quantile_ms sup 0.50;
      recovery_p90 = Supervisor.recovery_quantile_ms sup 0.90;
      recovery_p99 = Supervisor.recovery_quantile_ms sup 0.99;
      goodput =
        (if !injected_total = 0 then 0. else float_of_int !forwarded_total /. float_of_int !injected_total);
      alive_nics = Array.fold_left (fun acc n -> if Node.alive n then acc + 1 else acc) 0 nodes;
      quarantined_nics = Array.fold_left (fun acc n -> if Node.quarantined n then acc + 1 else acc) 0 nodes;
    }
  in
  (report, orch)

let run ?sink ?domains config = fst (run_with ?sink ?domains config)

(* "-" rather than a fabricated 0.00ms when there are too few samples
   for the quantile to mean anything. *)
let quantile_str = function None -> "-" | Some v -> Printf.sprintf "%.2fms" v

let summary r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "chaos scenario: seed=%d nics=%d tenants=%d policy=%s rounds=%d pkts/round=%d intensity=%.2f\n"
    r.config.seed r.config.n_nics r.config.n_tenants (Policy.name r.config.policy) r.config.rounds
    r.config.packets_per_round r.config.intensity;
  Printf.bprintf b "  boot: %d/%d tenants placed and attested (storm armed after boot)\n" r.initial_attested
    r.config.n_tenants;
  List.iter
    (fun round ->
      Printf.bprintf b "  round %d: injected=%d undeliverable=%d forwarded=%d dropped=%d faults=%d unattested=%d\n"
        round.index round.traffic.Frontend.injected round.traffic.Frontend.undeliverable
        round.traffic.Frontend.forwarded round.traffic.Frontend.dropped round.faults_so_far
        round.unattested_running;
      match round.failures with
      | None -> ()
      | Some f ->
        Printf.bprintf b "    fail-stop: nics=[%s] nf-tenants=[%s] displaced=%d replaced=%d stranded=%d\n"
          (String.concat ";" (List.map string_of_int f.Failure.nics_killed))
          (String.concat ";" (List.map string_of_int f.Failure.nfs_killed))
          f.Failure.displaced f.Failure.replaced f.Failure.stranded)
    r.rounds;
  Printf.bprintf b "  faults by site: %s (total=%d)\n"
    (String.concat " " (List.filter_map (fun (n, c) -> if c = 0 then None else Some (Printf.sprintf "%s=%d" n c)) r.fault_counts))
    r.total_faults;
  Printf.bprintf b "  healing: retries=%d quarantines=%d readmissions=%d watchdog-failovers=%d alarms=%d settle-ticks=%d\n"
    r.retries r.quarantines r.readmissions r.watchdog_failovers r.alarms r.settle_ticks;
  Printf.bprintf b "  recovery: samples=%d p50=%s p90=%s p99=%s goodput=%.4f\n"
    (List.length r.recovery_ms) (quantile_str r.recovery_p50) (quantile_str r.recovery_p90)
    (quantile_str r.recovery_p99) r.goodput;
  Printf.bprintf b "  end: attested=%d unplaced=%d replacements=%d nics alive=%d quarantined=%d\n" r.final_attested
    r.final_unplaced r.replacements r.alive_nics r.quarantined_nics;
  Printf.bprintf b "  invariants: unattested_running=%d scrub_failures=%d max_unattested_observed=%d\n"
    r.unattested_running r.scrub_failures r.max_unattested_observed;
  Buffer.contents b

let gates r =
  Obs.Gate.
    [
      { key = "unattested_running"; value = int r.unattested_running; rule = Equals 0. };
      { key = "scrub_failures"; value = int r.scrub_failures; rule = Equals 0. };
    ]
