(* Fault-storm scenarios and the self-healing control plane: the paper's
   invariants must survive chaos on every seed, the whole run must be a
   deterministic function of the seed, and the supervisor's breaker must
   demonstrably trip, drain, and readmit under cranked fault rates. *)

let quick_config seed =
  { Fleet.Chaos.default_config with Fleet.Chaos.seed; rounds = 4; packets_per_round = 200 }

(* ---------- invariants under the storm, across seeds ---------- *)

let check_storm seed =
  let tag msg = Printf.sprintf "seed %d: %s" seed msg in
  let report = Fleet.Chaos.run (quick_config seed) in
  Alcotest.(check int) (tag "all tenants attested at boot") 24 report.Fleet.Chaos.initial_attested;
  Alcotest.(check bool) (tag "the storm actually fired") true (report.Fleet.Chaos.total_faults > 0);
  (* The acceptance invariants: no unattested function ever runs, every
     verified teardown scrubbed, every recoverable tenant re-homed. *)
  Alcotest.(check int) (tag "unattested_running stays 0") 0 report.Fleet.Chaos.unattested_running;
  Alcotest.(check int) (tag "0 at every quiesce point") 0 report.Fleet.Chaos.max_unattested_observed;
  Alcotest.(check int) (tag "zero scrub failures") 0 report.Fleet.Chaos.scrub_failures;
  Alcotest.(check int) (tag "no tenant left unplaced") 0 report.Fleet.Chaos.final_unplaced;
  Alcotest.(check int) (tag "all tenants re-attested at end") 24 report.Fleet.Chaos.final_attested;
  Alcotest.(check bool) (tag "goodput in (0,1]") true
    (report.Fleet.Chaos.goodput > 0. && report.Fleet.Chaos.goodput <= 1.)

let test_storm_seed_42 () = check_storm 42

let test_gates () =
  let report = Fleet.Chaos.run (quick_config 42) in
  let gates = Fleet.Chaos.gates report in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [ ("unattested_running", Obs.Gate.Equals 0.); ("scrub_failures", Obs.Gate.Equals 0.) ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  Alcotest.(check (list string)) "doctored field is reported" [ "scrub_failures" ]
    (List.map
       (fun (g : Obs.Gate.t) -> g.key)
       (Obs.Gate.failed (Fleet.Chaos.gates { report with Fleet.Chaos.scrub_failures = 2 })))
let test_storm_seed_1337 () = check_storm 1337
let test_storm_seed_20240 () = check_storm 20240

(* ---------- determinism: seed -> byte-identical artifacts ---------- *)

let test_deterministic_replay () =
  let run () =
    let report, orch = Fleet.Chaos.run_with (quick_config 42) in
    ( Fleet.Chaos.summary report,
      report.Fleet.Chaos.injection_log,
      report.Fleet.Chaos.recovery_ms,
      Fleet.Telemetry.to_json (Fleet.Orchestrator.telemetry orch) )
  in
  let s1, l1, r1, j1 = run () in
  let s2, l2, r2, j2 = run () in
  Alcotest.(check string) "summary byte-identical" s1 s2;
  Alcotest.(check string) "injection log byte-identical" l1 l2;
  Alcotest.(check bool) "recovery telemetry identical" true (r1 = r2);
  Alcotest.(check string) "telemetry JSON byte-identical" j1 j2;
  Alcotest.(check bool) "the log is not empty" true (String.length l1 > 0);
  let _, l3, _, _ =
    let report, orch = Fleet.Chaos.run_with (quick_config 43) in
    ( Fleet.Chaos.summary report,
      report.Fleet.Chaos.injection_log,
      report.Fleet.Chaos.recovery_ms,
      Fleet.Telemetry.to_json (Fleet.Orchestrator.telemetry orch) )
  in
  Alcotest.(check bool) "different seed, different log" false (String.equal l1 l3)

(* ---------- the breaker, at cranked rates ---------- *)

(* Arm a saturated storm on NIC 0 only: its health probes fail every
   tick (bus heartbeat times out, DMA loopback errors), so the breaker
   must trip without any traffic, drain the NIC with verified scrubs,
   re-place its tenants on the clean NICs, and readmit it on probation
   after the window — with the invariants holding at every step. *)
let test_quarantine_drain_readmit () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 9; n_nics = 3; n_tenants = 6; policy = Fleet.Policy.First_fit }
  in
  let nodes = Fleet.Orchestrator.nodes orch in
  Alcotest.(check int) "all placed at boot" 6 (Fleet.Orchestrator.attested_count orch);
  Alcotest.(check bool) "NIC 0 hosts tenants at boot" true (Fleet.Node.nf_count nodes.(0) > 0);
  Nicsim.Machine.set_faults
    (Snic.Api.machine (Fleet.Node.api nodes.(0)))
    (Faults.plan ~seed:9 (Faults.storm ~intensity:1e6 ()));
  let sup = Fleet.Supervisor.create ~seed:9 orch in
  let tripped = ref false and probation = ref false and drained = ref false in
  for round = 0 to 11 do
    Fleet.Supervisor.tick sup ~round;
    (match Fleet.Supervisor.breaker sup ~nic:0 with
    | Fleet.Supervisor.Open _ ->
      tripped := true;
      Alcotest.(check bool) "quarantined while open" true (Fleet.Node.quarantined nodes.(0));
      if Fleet.Node.nf_count nodes.(0) = 0 then drained := true
    | Fleet.Supervisor.Probation _ ->
      probation := true;
      Alcotest.(check bool) "readmitted off quarantine" false (Fleet.Node.quarantined nodes.(0))
    | Fleet.Supervisor.Closed -> ());
    (* The security invariant holds at every quiesce point; tenants may
       be transiently stranded mid-heal (the sick NIC eats their retries
       until it is quarantined) but never run unattested. *)
    Alcotest.(check int)
      (Printf.sprintf "round %d: unattested stays 0" round)
      0 (Fleet.Orchestrator.unattested_running orch)
  done;
  Alcotest.(check int) "nobody stranded once healed" 0 (Fleet.Orchestrator.unplaced_count orch);
  let tel = Fleet.Orchestrator.telemetry orch in
  Alcotest.(check bool) "breaker tripped" true !tripped;
  Alcotest.(check bool) "NIC 0 drained under quarantine" true !drained;
  Alcotest.(check bool) "breaker readmitted on probation" true !probation;
  Alcotest.(check bool) "quarantines counted" true (Fleet.Telemetry.quarantines tel >= 1);
  Alcotest.(check bool) "readmissions counted" true (Fleet.Telemetry.readmissions tel >= 1);
  Alcotest.(check bool) "probes ran and failed" true (Fleet.Telemetry.probe_failures tel >= 1);
  Alcotest.(check int) "every drain scrub verified" 0 (Fleet.Supervisor.scrub_failures sup);
  Alcotest.(check bool) "displacements produced recovery samples" true
    (List.length (Fleet.Supervisor.recovery_samples_ms sup) > 0);
  List.iter
    (fun ms -> Alcotest.(check bool) "recovery latency positive" true (ms > 0.))
    (Fleet.Supervisor.recovery_samples_ms sup);
  Alcotest.(check int) "all tenants re-attested" 6 (Fleet.Orchestrator.attested_count orch)

(* The tenant breaker from synthetic SLO rounds: tenant 0 burns
   over-guarantee credit while tenant 1 misses its SLO.  Two bad rounds
   trip tenant 0 and drain it; when the window ends it is re-placed on
   probation, and two more bad rounds trip it again, each window twice
   the last, capped at 32 rounds. *)
let test_tenant_breaker_windows () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 31; n_nics = 2; n_tenants = 2; policy = Fleet.Policy.First_fit }
  in
  let sup = Fleet.Supervisor.create ~seed:31 orch in
  let noisy = (Fleet.Orchestrator.tenants orch).(0) in
  let placed () = noisy.Fleet.Orchestrator.placement <> None in
  let str = function
    | Fleet.Supervisor.Closed -> "closed"
    | Fleet.Supervisor.Open { until_round } -> Printf.sprintf "open until %d" until_round
    | Fleet.Supervisor.Probation { until_round } -> Printf.sprintf "probation until %d" until_round
  in
  (* One round's deltas; returns tenant 0's breaker afterwards. *)
  let pass ~round ~victim_bad =
    Fleet.Supervisor.note_qos sup ~round
      [
        (0, { Fleet.Supervisor.violations = 0; samples = 10; over_credits = 100 });
        (1, { Fleet.Supervisor.violations = (if victim_bad then 10 else 0); samples = 10; over_credits = 0 });
      ];
    str (Fleet.Supervisor.tenant_breaker sup ~tenant:0)
  in
  Alcotest.(check string) "one bad round is a blip" "closed" (pass ~round:0 ~victim_bad:true);
  Alcotest.(check string) "two bad rounds trip the noisy tenant" "open until 3" (pass ~round:1 ~victim_bad:true);
  (* From a trip at [at] with window [w]: sit the window out, readmit,
     relapse for two rounds; returns the next trip's round. *)
  let cycle ~at ~w =
    let until = at + w in
    for round = at + 1 to until - 1 do
      Alcotest.(check string) "open until the window ends" (Printf.sprintf "open until %d" until)
        (pass ~round ~victim_bad:false);
      Alcotest.(check bool) "drained while open" false (placed ())
    done;
    Alcotest.(check string) "readmitted on probation" (Printf.sprintf "probation until %d" (until + 2))
      (pass ~round:until ~victim_bad:false);
    Alcotest.(check bool) "re-placed on readmission" true (placed ());
    Alcotest.(check string) "one relapse round is a blip" (Printf.sprintf "probation until %d" (until + 2))
      (pass ~round:(until + 1) ~victim_bad:true);
    let next = until + 2 in
    let w' = min 32 (2 * w) in
    Alcotest.(check string) "two relapse rounds trip it again" (Printf.sprintf "open until %d" (next + w'))
      (pass ~round:next ~victim_bad:true);
    (next, w')
  in
  let windows = ref [ 2 ] and at = ref 1 in
  for _ = 1 to 5 do
    let next, w = cycle ~at:!at ~w:(List.hd !windows) in
    at := next;
    windows := w :: !windows
  done;
  Alcotest.(check (list int)) "windows" [ 2; 4; 8; 16; 32; 32 ] (List.rev !windows);
  let tel = Fleet.Orchestrator.telemetry orch in
  Alcotest.(check int) "six trips" 6 (Fleet.Telemetry.tenant_quarantines tel);
  Alcotest.(check int) "five readmissions" 5 (Fleet.Telemetry.tenant_readmissions tel);
  Alcotest.(check int) "every drain scrub verified" 0 (Fleet.Supervisor.scrub_failures sup);
  Alcotest.(check int) "nothing runs unattested" 0 (Fleet.Orchestrator.unattested_running orch)

(* Retry/backoff: with the staging DMA failing every time on every NIC,
   a displaced tenant exhausts its bounded retries (clock advancing each
   backoff) and comes home only once the fault clears. *)
let test_retry_backoff_exhaustion () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 17; n_nics = 2; n_tenants = 2; policy = Fleet.Policy.First_fit }
  in
  let nodes = Fleet.Orchestrator.nodes orch in
  let sup = Fleet.Supervisor.create ~seed:17 orch in
  let tenant = (Fleet.Orchestrator.tenants orch).(0) in
  Fleet.Supervisor.note_evict sup tenant;
  let plans =
    Array.map
      (fun node ->
        let plan = Faults.plan ~seed:17 { Faults.none with Faults.dma_error = 1.0 } in
        Nicsim.Machine.set_faults (Snic.Api.machine (Fleet.Node.api node)) plan;
        plan)
      nodes
  in
  let clock0 = Fleet.Supervisor.clock sup in
  (match Fleet.Supervisor.place_with_retry sup tenant with
  | Error (Fleet.Orchestrator.Create_failed (Snic.Api.Stage_fault _)) -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e)
  | Ok () -> Alcotest.fail "placement over a dead DMA engine must not succeed");
  let tel = Fleet.Orchestrator.telemetry orch in
  Alcotest.(check int) "retried up to the bound" 5 (Fleet.Telemetry.retries tel);
  Alcotest.(check bool) "backoff advanced the clock" true (Fleet.Supervisor.clock sup > clock0);
  Alcotest.(check bool) "stage faults were logged" true
    (Array.exists (fun p -> Faults.count p Faults.Dma_error > 0) plans);
  (* Storm passes: the same tenant now places first try and yields a
     recovery-latency sample covering the whole outage. *)
  Array.iter
    (fun node ->
      Nicsim.Machine.set_faults (Snic.Api.machine (Fleet.Node.api node)) (Faults.plan ~seed:17 Faults.none))
    nodes;
  (match Fleet.Supervisor.place_with_retry sup tenant with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e));
  Alcotest.(check int) "re-attested after the storm" 2 (Fleet.Orchestrator.attested_count orch);
  Alcotest.(check int) "one recovery sample" 1 (List.length (Fleet.Supervisor.recovery_samples_ms sup))

(* No_capacity is an alarm, not a retry: kill every NIC and ask. *)
let test_no_capacity_alarms () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 23; n_nics = 2; n_tenants = 2; policy = Fleet.Policy.First_fit }
  in
  let sup = Fleet.Supervisor.create ~seed:23 orch in
  Array.iter Fleet.Node.kill (Fleet.Orchestrator.nodes orch);
  let tenant = (Fleet.Orchestrator.tenants orch).(0) in
  Fleet.Orchestrator.evict orch tenant;
  (match Fleet.Supervisor.place_with_retry sup tenant with
  | Error Fleet.Orchestrator.No_capacity -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e)
  | Ok () -> Alcotest.fail "placement on a dead rack must not succeed");
  Alcotest.(check int) "alarm raised" 1 (Fleet.Supervisor.alarms sup);
  Alcotest.(check int) "no retries burned on a capacity alarm" 0
    (Fleet.Telemetry.retries (Fleet.Orchestrator.telemetry orch))

let suite =
  [
    Alcotest.test_case "storm invariants (seed 42)" `Slow test_storm_seed_42;
    Alcotest.test_case "storm invariants (seed 1337)" `Slow test_storm_seed_1337;
    Alcotest.test_case "storm invariants (seed 20240)" `Slow test_storm_seed_20240;
    Alcotest.test_case "deterministic replay" `Slow test_deterministic_replay;
    Alcotest.test_case "quarantine, drain, readmit" `Slow test_quarantine_drain_readmit;
    Alcotest.test_case "tenant breaker windows 2..32" `Quick test_tenant_breaker_windows;
    Alcotest.test_case "bounded retry with backoff" `Quick test_retry_backoff_exhaustion;
    Alcotest.test_case "no-capacity alarms immediately" `Quick test_no_capacity_alarms;
    Alcotest.test_case "gates: pinned, a doctored figure fails" `Slow test_gates;
  ]
