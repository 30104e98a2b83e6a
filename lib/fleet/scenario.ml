type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int;
  packets_per_round : int;
  kill_nics : int;
  kill_nfs : int;
  bytes_per_mb : int;
}

let default_config =
  {
    seed = 42;
    n_nics = 16;
    n_tenants = 64;
    policy = Policy.First_fit;
    rounds = 3;
    packets_per_round = 600;
    kill_nics = 2;
    kill_nfs = 4;
    bytes_per_mb = 1024;
  }

type round = { index : int; traffic : Frontend.stats; failures : Failure.report option }

type report = {
  config : config;
  rounds : round list;
  initial_attested : int;
  final_attested : int;
  final_unplaced : int;
  unattested_running : int;
  scrub_failures : int;
  replacements : int;
  active_nics : int;
  alive_nics : int;
}

(* Spread the failure budgets over the gaps between rounds: a run with
   R rounds has R-1 gaps; gap g gets the g-th share of each budget. *)
let gap_failures orch rng ~kill_nics ~kill_nfs ~rounds ~gap =
  let gaps = rounds - 1 in
  let share total = (total * (gap + 1) / gaps) - (total * gap / gaps) in
  if gap >= gaps then None
  else
    match (share kill_nics, share kill_nfs) with
    | 0, 0 -> None
    | kn, kf -> Some (Failure.inject orch rng ~kill_nics:kn ~kill_nfs:kf)

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
    ]

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
  let fail_rng = Trace.Rng.create ~seed:(config.seed lxor 0xDEAD) in
  let rounds = ref [] in
  let scrub_failures = ref 0 in
  for i = 0 to config.rounds - 1 do
    let traffic = Frontend.replay orch ~seed:(config.seed + (131 * i)) ~packets:config.packets_per_round () in
    let failures =
      gap_failures orch fail_rng ~kill_nics:config.kill_nics ~kill_nfs:config.kill_nfs ~rounds:config.rounds
        ~gap:i
    in
    Option.iter (fun r -> scrub_failures := !scrub_failures + r.Failure.scrub_failures) failures;
    rounds := { index = i; traffic; failures } :: !rounds
  done;
  let nodes = Orchestrator.nodes orch in
  let report =
    {
      config;
      rounds = List.rev !rounds;
      initial_attested;
      final_attested = Orchestrator.attested_count orch;
      final_unplaced = Orchestrator.unplaced_count orch;
      unattested_running = Orchestrator.unattested_running orch;
      scrub_failures = !scrub_failures;
      replacements = Telemetry.replacements (Orchestrator.telemetry orch);
      active_nics =
        Array.fold_left (fun acc n -> if Node.alive n && Node.nf_count n > 0 then acc + 1 else acc) 0 nodes;
      alive_nics = Array.fold_left (fun acc n -> if Node.alive n then acc + 1 else acc) 0 nodes;
    }
  in
  (report, orch)

let run ?sink ?domains config = fst (run_with ?sink ?domains config)

let summary r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "fleet scenario: seed=%d nics=%d tenants=%d policy=%s rounds=%d pkts/round=%d\n" r.config.seed
    r.config.n_nics r.config.n_tenants (Policy.name r.config.policy) r.config.rounds r.config.packets_per_round;
  Printf.bprintf b "  boot: %d/%d tenants placed and attested\n" r.initial_attested r.config.n_tenants;
  List.iter
    (fun round ->
      Printf.bprintf b "  round %d: injected=%d undeliverable=%d forwarded=%d dropped=%d\n" round.index
        round.traffic.Frontend.injected round.traffic.Frontend.undeliverable round.traffic.Frontend.forwarded
        round.traffic.Frontend.dropped;
      match round.failures with
      | None -> ()
      | Some f ->
        Printf.bprintf b "    failures: nics=[%s] nf-tenants=[%s] displaced=%d replaced=%d stranded=%d\n"
          (String.concat ";" (List.map string_of_int f.Failure.nics_killed))
          (String.concat ";" (List.map string_of_int f.Failure.nfs_killed))
          f.Failure.displaced f.Failure.replaced f.Failure.stranded)
    r.rounds;
  Printf.bprintf b "  end: attested=%d unplaced=%d replacements=%d active-nics=%d/%d\n" r.final_attested
    r.final_unplaced r.replacements r.active_nics r.alive_nics;
  Printf.bprintf b "  invariants: unattested-running=%d scrub-failures=%d\n" r.unattested_running r.scrub_failures;
  Buffer.contents b

let gates r =
  Obs.Gate.
    [
      { key = "unattested_running"; value = int r.unattested_running; rule = Equals 0. };
      { key = "scrub_failures"; value = int r.scrub_failures; rule = Equals 0. };
    ]
