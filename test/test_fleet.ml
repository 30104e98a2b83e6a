(* Fleet orchestrator: seeded end-to-end scenarios with attested
   placement, failure injection and recovery, plus unit checks on the
   placement machinery. *)

let small_config policy =
  {
    Fleet.Scenario.default_config with
    Fleet.Scenario.n_nics = 6;
    n_tenants = 18;
    policy;
    rounds = 2;
    packets_per_round = 120;
    kill_nics = 1;
    kill_nfs = 2;
  }

(* ---------- workload and node admission ---------- *)

let test_demands_follow_profiles () =
  List.iter
    (fun kind ->
      let d = Fleet.Workload.demand_of_kind kind in
      Alcotest.(check bool)
        (Fleet.Workload.kind_name kind ^ " has memory")
        true (d.Fleet.Workload.mem_bytes > 0);
      Alcotest.(check int) "one core" 1 d.Fleet.Workload.cores;
      (* TLB budgeting uses the full-scale regions: the Monitor's Table 5
         headline number must fall out unchanged. *)
      if kind = Fleet.Workload.Mon then
        Alcotest.(check int) "Mon equal-2MB entries" 183
          (Fleet.Workload.tlb_entries d ~page_sizes:Costmodel.Page_packing.equal_2mb))
    Fleet.Workload.all_kinds

let test_small_nic_rejects_monitor () =
  let vendor = Snic.Identity.make_vendor ~seed:7 ~name:"t" () in
  let node = Fleet.Node.boot ~vendor ~id:0 Fleet.Node.small in
  let mon = Fleet.Workload.demand_of_kind Fleet.Workload.Mon in
  let fw = Fleet.Workload.demand_of_kind Fleet.Workload.Fw in
  (* 183 locked entries under Equal-2MB vs a 96-entry budget. *)
  Alcotest.(check bool) "Mon does not fit a small NIC" false (Fleet.Node.admits node mon);
  Alcotest.(check bool) "FW fits" true (Fleet.Node.admits node fw);
  let medium = Fleet.Node.boot ~vendor ~id:1 Fleet.Node.medium in
  Alcotest.(check bool) "Mon fits a flex-menu NIC" true (Fleet.Node.admits medium mon);
  Fleet.Node.kill medium;
  Alcotest.(check bool) "dead NICs admit nothing" false (Fleet.Node.admits medium fw)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Fleet.Policy.of_string (Fleet.Policy.name p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | Error e -> Alcotest.fail e)
    Fleet.Policy.all;
  Alcotest.(check bool) "unknown rejected" true (Result.is_error (Fleet.Policy.of_string "round-robin"))

(* ---------- end-to-end scenario invariants ---------- *)

let check_invariants policy =
  let report, orch = Fleet.Scenario.run_with (small_config policy) in
  let name = Fleet.Policy.name policy in
  (* Everyone gets placed and attested at boot on this rack. *)
  Alcotest.(check int) (name ^ ": all tenants attested at boot") 18 report.Fleet.Scenario.initial_attested;
  (* Failures were injected and recovered: nobody is left unplaced, and
     every surviving tenant is attested. *)
  Alcotest.(check bool) (name ^ ": failures were injected") true
    (Fleet.Telemetry.nic_kills (Fleet.Orchestrator.telemetry orch) = 1
    && Fleet.Telemetry.nf_kills (Fleet.Orchestrator.telemetry orch) = 2);
  Alcotest.(check bool) (name ^ ": replacements happened") true (report.Fleet.Scenario.replacements > 0);
  Alcotest.(check int) (name ^ ": no tenant left unplaced") 0 report.Fleet.Scenario.final_unplaced;
  Alcotest.(check int) (name ^ ": all tenants attested at end") 18 report.Fleet.Scenario.final_attested;
  (* The acceptance invariants. *)
  Alcotest.(check int) (name ^ ": zero unattested running NFs") 0 report.Fleet.Scenario.unattested_running;
  Alcotest.(check int) (name ^ ": every verified teardown scrubbed") 0 report.Fleet.Scenario.scrub_failures;
  (* The hardware agrees with the control plane's bookkeeping. *)
  Alcotest.(check int) (name ^ ": live functions = attested placements") (Fleet.Orchestrator.attested_count orch)
    (Fleet.Orchestrator.live_nf_total orch);
  (* Traffic flowed. *)
  let forwarded =
    List.fold_left (fun acc r -> acc + r.Fleet.Scenario.traffic.Fleet.Frontend.forwarded) 0
      report.Fleet.Scenario.rounds
  in
  Alcotest.(check bool) (name ^ ": traffic forwarded") true (forwarded > 0)

let test_invariants_first_fit () = check_invariants Fleet.Policy.First_fit

(* The report's gate list is what the CLI exits on: pinned at seed 42,
   and a doctored figure must surface under its own key. *)
let test_gates () =
  let report = Fleet.Scenario.run (small_config Fleet.Policy.First_fit) in
  let gates = Fleet.Scenario.gates report in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [ ("unattested_running", Obs.Gate.Equals 0.); ("scrub_failures", Obs.Gate.Equals 0.) ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  Alcotest.(check (list string)) "doctored field is reported" [ "unattested_running" ]
    (List.map
       (fun (g : Obs.Gate.t) -> g.key)
       (Obs.Gate.failed (Fleet.Scenario.gates { report with Fleet.Scenario.unattested_running = 1 })))
let test_invariants_spread () = check_invariants Fleet.Policy.Spread
let test_invariants_tco_aware () = check_invariants Fleet.Policy.Tco_aware

(* The acceptance-sized rack: 16 NICs, 64 tenants, end to end. *)
let test_full_rack () =
  let report, orch =
    Fleet.Scenario.run_with
      { Fleet.Scenario.default_config with Fleet.Scenario.rounds = 2; packets_per_round = 150 }
  in
  Alcotest.(check int) "64/64 placed and attested at boot" 64 report.Fleet.Scenario.initial_attested;
  Alcotest.(check int) "64/64 attested at end" 64 report.Fleet.Scenario.final_attested;
  Alcotest.(check bool) "recovered from failures" true (report.Fleet.Scenario.replacements > 0);
  Alcotest.(check int) "zero unattested running" 0 report.Fleet.Scenario.unattested_running;
  Alcotest.(check int) "zero scrub failures" 0 report.Fleet.Scenario.scrub_failures;
  (* No Monitor tenant ever lands on an equal-2MB (small) NIC. *)
  Array.iter
    (fun tn ->
      if tn.Fleet.Orchestrator.demand.Fleet.Workload.kind = Fleet.Workload.Mon then
        match tn.Fleet.Orchestrator.placement with
        | Some p ->
          Alcotest.(check bool) "Mon on a flex-menu NIC" true
            ((Fleet.Node.shape p.Fleet.Orchestrator.node).Fleet.Node.tlb_budget_per_core >= 51
            || (Fleet.Node.shape p.Fleet.Orchestrator.node).Fleet.Node.page_menu
               <> Costmodel.Page_packing.equal_2mb)
        | None -> Alcotest.fail "Mon tenant unplaced")
    (Fleet.Orchestrator.tenants orch)

(* ---------- determinism ---------- *)

let test_deterministic_replay () =
  let run () =
    let report, orch = Fleet.Scenario.run_with (small_config Fleet.Policy.Best_fit) in
    let telemetry = Fleet.Orchestrator.telemetry orch in
    ( Fleet.Scenario.summary report,
      Fleet.Telemetry.tenants_csv telemetry,
      Fleet.Telemetry.nics_csv telemetry,
      Fleet.Telemetry.to_json telemetry )
  in
  let s1, t1, n1, j1 = run () in
  let s2, t2, n2, j2 = run () in
  Alcotest.(check string) "summary identical" s1 s2;
  Alcotest.(check string) "tenant CSV identical" t1 t2;
  Alcotest.(check string) "NIC CSV identical" n1 n2;
  Alcotest.(check string) "JSON identical" j1 j2;
  (* A different seed actually changes the run. *)
  let report3, _ =
    Fleet.Scenario.run_with { (small_config Fleet.Policy.Best_fit) with Fleet.Scenario.seed = 1234 }
  in
  Alcotest.(check bool) "different seed, different run" false (Fleet.Scenario.summary report3 = s1)

(* ---------- typed placement outcomes ---------- *)

(* A supervisor must be able to tell "the rack is full" (alarm, do not
   retry) from "the stage/attest path glitched" (transient, retry). *)
let test_place_typed_no_capacity () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 11; n_nics = 2; n_tenants = 3; policy = Fleet.Policy.First_fit; bytes_per_mb = 1024 }
  in
  let tenant = (Fleet.Orchestrator.tenants orch).(0) in
  Fleet.Orchestrator.evict orch tenant;
  Array.iter Fleet.Node.kill (Fleet.Orchestrator.nodes orch);
  (match Fleet.Orchestrator.place orch tenant with
  | Error Fleet.Orchestrator.No_capacity -> ()
  | Error e ->
    Alcotest.fail ("expected No_capacity, got " ^ Fleet.Orchestrator.place_error_to_string e)
  | Ok () -> Alcotest.fail "placement on a dead rack must not succeed");
  Alcotest.(check bool) "No_capacity prints usefully" true
    (String.length (Fleet.Orchestrator.place_error_to_string Fleet.Orchestrator.No_capacity) > 0)

let test_place_typed_stage_fault () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 11; n_nics = 2; n_tenants = 2; policy = Fleet.Policy.First_fit; bytes_per_mb = 1024 }
  in
  let tenant = (Fleet.Orchestrator.tenants orch).(0) in
  Fleet.Orchestrator.evict orch tenant;
  Array.iter
    (fun node ->
      Nicsim.Machine.set_faults
        (Snic.Api.machine (Fleet.Node.api node))
        (Faults.plan ~seed:11 { Faults.none with Faults.dma_error = 1.0 }))
    (Fleet.Orchestrator.nodes orch);
  (match Fleet.Orchestrator.place orch tenant with
  | Error (Fleet.Orchestrator.Create_failed (Snic.Api.Stage_fault ev)) ->
    Alcotest.(check bool) "the event names the DMA site" true (ev.Faults.site = Faults.Dma_error)
  | Error e ->
    Alcotest.fail ("expected Stage_fault, got " ^ Fleet.Orchestrator.place_error_to_string e)
  | Ok () -> Alcotest.fail "placement over a dead DMA engine must not succeed")

(* ---------- evict / replace idempotency + kill-budget clamping ---------- *)

let test_evict_replace_idempotent () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 5; n_nics = 4; n_tenants = 8; policy = Fleet.Policy.First_fit; bytes_per_mb = 1024 }
  in
  let tel = Fleet.Orchestrator.telemetry orch in
  let tenant = (Fleet.Orchestrator.tenants orch).(0) in
  let stats = Fleet.Telemetry.tenant tel tenant.Fleet.Orchestrator.tid in
  (* Placing an already-placed tenant is a no-op with stable counters. *)
  let placements0 = stats.Fleet.Telemetry.placements in
  (match Fleet.Orchestrator.place orch tenant with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e));
  Alcotest.(check int) "re-place of a placed tenant moves nothing" placements0
    stats.Fleet.Telemetry.placements;
  (* Orderly NF kill first ([evict] alone models hardware death and
     would leave the function running on the NIC), then double evict:
     the second is a no-op, counters stay put. *)
  (match tenant.Fleet.Orchestrator.placement with
  | Some p ->
    let handle = Snic.Vnic.handle p.Fleet.Orchestrator.vnic in
    (match
       Snic.Api.nf_destroy (Fleet.Node.api p.Fleet.Orchestrator.node)
         ~id:handle.Snic.Instructions.id
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Snic.Api.destroy_error_to_string e))
  | None -> Alcotest.fail "tenant not placed at boot");
  Fleet.Orchestrator.evict orch tenant;
  let evictions1 = stats.Fleet.Telemetry.evictions in
  Fleet.Orchestrator.evict orch tenant;
  Alcotest.(check int) "double evict counts once" evictions1 stats.Fleet.Telemetry.evictions;
  Alcotest.(check bool) "placement cleared" true (tenant.Fleet.Orchestrator.placement = None);
  (* Replace: exactly one replacement tick; replacing again is a no-op. *)
  let replacements0 = Fleet.Telemetry.replacements tel in
  (match Fleet.Orchestrator.replace orch tenant with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e));
  Alcotest.(check int) "one replacement tick" (replacements0 + 1) (Fleet.Telemetry.replacements tel);
  Alcotest.(check bool) "tenant attested again" true tenant.Fleet.Orchestrator.attested;
  (match Fleet.Orchestrator.replace orch tenant with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fleet.Orchestrator.place_error_to_string e));
  Alcotest.(check int) "replace of a placed tenant is a no-op"
    (replacements0 + 1) (Fleet.Telemetry.replacements tel);
  Alcotest.(check int) "hardware agrees after the churn"
    (Fleet.Orchestrator.attested_count orch) (Fleet.Orchestrator.live_nf_total orch)

let test_failure_inject_clamps () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 13; n_nics = 4; n_tenants = 8; policy = Fleet.Policy.First_fit; bytes_per_mb = 1024 }
  in
  let rng = Trace.Rng.create ~seed:13 in
  (* Budgets far beyond the population clamp instead of raising, and the
     report preserves what was asked so the clamping is observable. *)
  let r = Fleet.Failure.inject orch rng ~kill_nics:100 ~kill_nfs:100 in
  Alcotest.(check int) "requested NIC budget reported" 100 r.Fleet.Failure.nics_requested;
  Alcotest.(check int) "requested NF budget reported" 100 r.Fleet.Failure.nfs_requested;
  Alcotest.(check bool) "NIC kills clamped to the rack" true
    (List.length r.Fleet.Failure.nics_killed <= 4);
  Alcotest.(check bool) "some NICs actually died" true (List.length r.Fleet.Failure.nics_killed > 0);
  Alcotest.(check bool) "NF kills clamped to placed survivors" true
    (List.length r.Fleet.Failure.nfs_killed <= 8);
  Alcotest.(check int) "scrubs all verified" 0 r.Fleet.Failure.scrub_failures;
  Alcotest.(check int) "displaced = replaced + stranded" r.Fleet.Failure.displaced
    (r.Fleet.Failure.replaced + r.Fleet.Failure.stranded);
  (* Negative budgets clamp to zero kills. *)
  let r0 = Fleet.Failure.inject orch rng ~kill_nics:(-3) ~kill_nfs:(-1) in
  Alcotest.(check (list int)) "no NICs killed" [] r0.Fleet.Failure.nics_killed;
  Alcotest.(check (list int)) "no NFs killed" [] r0.Fleet.Failure.nfs_killed;
  Alcotest.(check int) "negative request reported as asked" (-3) r0.Fleet.Failure.nics_requested

(* A NIC kill must drain whatever a batched inject had already queued on
   the dead NIC's RX rings — accounted as tenant drops, never silently
   lost — and the drain must replay byte-identically. *)
let test_nic_kill_drains_in_flight () =
  let load_and_kill () =
    let orch =
      Fleet.Orchestrator.create
        { Fleet.Orchestrator.seed = 13; n_nics = 3; n_tenants = 6; policy = Fleet.Policy.First_fit; bytes_per_mb = 1024 }
    in
    (* Park frames on every tenant's RX ring (matching its steering
       port) without draining any pipeline: a mid-batch snapshot. *)
    Array.iter
      (fun tn ->
        match tn.Fleet.Orchestrator.placement with
        | None -> ()
        | Some p ->
          let api = Fleet.Node.api p.Fleet.Orchestrator.node in
          for i = 1 to 4 do
            match
              Snic.Api.inject_packet api
                (Net.Packet.make ~src_ip:i ~dst_ip:2 ~proto:Net.Packet.Udp ~src_port:(40000 + i)
                   ~dst_port:tn.Fleet.Orchestrator.port "in-flight")
            with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("inject: " ^ e)
          done)
      (Fleet.Orchestrator.tenants orch);
    let telemetry = Fleet.Orchestrator.telemetry orch in
    let dropped_before =
      Array.fold_left
        (fun acc tn -> acc + (Fleet.Telemetry.tenant telemetry tn.Fleet.Orchestrator.tid).Fleet.Telemetry.dropped)
        0 (Fleet.Orchestrator.tenants orch)
    in
    let r = Fleet.Failure.inject orch (Trace.Rng.create ~seed:7) ~kill_nics:3 ~kill_nfs:0 in
    let dropped_after =
      Array.fold_left
        (fun acc tn -> acc + (Fleet.Telemetry.tenant telemetry tn.Fleet.Orchestrator.tid).Fleet.Telemetry.dropped)
        0 (Fleet.Orchestrator.tenants orch)
    in
    (r, dropped_after - dropped_before)
  in
  let r1, drop_delta = load_and_kill () in
  Alcotest.(check bool) "queued frames were drained" true (r1.Fleet.Failure.in_flight_drained > 0);
  Alcotest.(check int) "every queued frame accounted" (6 * 4) r1.Fleet.Failure.in_flight_drained;
  Alcotest.(check int) "drains land as tenant drops" r1.Fleet.Failure.in_flight_drained drop_delta;
  (* Byte-identical replay: same seed, same report. *)
  let r2, _ = load_and_kill () in
  Alcotest.(check bool) "report replays byte-identically" true (r1 = r2)

(* Displaced tenants must never be re-placed onto a quarantined NIC, and
   quarantined NICs still count against the kill budget's alive pool. *)
let test_failover_skips_quarantined () =
  let orch =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 21; n_nics = 4; n_tenants = 6; policy = Fleet.Policy.Spread; bytes_per_mb = 1024 }
  in
  let nodes = Fleet.Orchestrator.nodes orch in
  let quarantined = nodes.(1) in
  Fleet.Node.quarantine quarantined;
  (* Kill every other NIC: survivors can only land on... nothing alive
     and unquarantined, so everyone displaced is stranded — the
     orchestrator must not quietly re-admit the quarantined node. *)
  let rng = Trace.Rng.create ~seed:5 in
  let r = Fleet.Failure.inject orch rng ~kill_nics:4 ~kill_nfs:0 in
  Alcotest.(check bool) "quarantined NICs are still kill-eligible" true
    (List.length r.Fleet.Failure.nics_killed = 4);
  Array.iter
    (fun tn ->
      match tn.Fleet.Orchestrator.placement with
      | None -> ()
      | Some p ->
        Alcotest.(check bool) "no placement on a quarantined NIC" false
          (Fleet.Node.quarantined p.Fleet.Orchestrator.node))
    (Fleet.Orchestrator.tenants orch);
  (* Mid-flight re-placement with a healthy spare: quarantine one node,
     kill one other, and every displaced tenant lands somewhere alive
     and unquarantined. *)
  let orch2 =
    Fleet.Orchestrator.create
      { Fleet.Orchestrator.seed = 22; n_nics = 4; n_tenants = 6; policy = Fleet.Policy.Spread; bytes_per_mb = 1024 }
  in
  let bad = (Fleet.Orchestrator.nodes orch2).(2) in
  Fleet.Node.quarantine bad;
  (* Tenants already sitting on the node keep their placement (quarantine
     is not an eviction); what matters is that nobody *new* lands there. *)
  let node_of tn =
    match tn.Fleet.Orchestrator.placement with None -> None | Some p -> Some (Fleet.Node.id p.Fleet.Orchestrator.node)
  in
  let before = Array.map node_of (Fleet.Orchestrator.tenants orch2) in
  let r2 = Fleet.Failure.inject orch2 (Trace.Rng.create ~seed:6) ~kill_nics:1 ~kill_nfs:0 in
  Alcotest.(check int) "nobody stranded with spares left" 0 r2.Fleet.Failure.stranded;
  Array.iteri
    (fun i tn ->
      match tn.Fleet.Orchestrator.placement with
      | None -> Alcotest.fail "tenant left unplaced with healthy spares"
      | Some p ->
        if node_of tn <> before.(i) then begin
          Alcotest.(check bool) "re-placement avoided the quarantined NIC" false
            (Fleet.Node.id p.Fleet.Orchestrator.node = Fleet.Node.id bad);
          Alcotest.(check bool) "re-placement landed on an alive NIC" true (Fleet.Node.alive p.Fleet.Orchestrator.node)
        end)
    (Fleet.Orchestrator.tenants orch2);
  Alcotest.(check bool) "the kill actually displaced someone" true (r2.Fleet.Failure.displaced > 0)

(* Telemetry CSV export shape stays parseable. *)
let test_csv_shape () =
  let _, orch = Fleet.Scenario.run_with (small_config Fleet.Policy.First_fit) in
  let csv = Fleet.Telemetry.tenants_csv (Fleet.Orchestrator.telemetry orch) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per tenant" 19 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "8 columns" 8 (List.length (String.split_on_char ',' line)))
    lines

(* The heterogeneous rack cycle is load-bearing: the orchestrator boots
   every rack NIC with its shape, so pin it. *)
let test_shape_cycle () =
  let labels = List.init 8 (fun i -> (Fleet.Node.shape_of_index i).Fleet.Node.label) in
  Alcotest.(check (list string)) "rack cycles small, medium, large, medium"
    [ "small"; "medium"; "large"; "medium"; "small"; "medium"; "large"; "medium" ]
    labels

let suite =
  [
    Alcotest.test_case "shape_of_index rack cycle" `Quick test_shape_cycle;
    Alcotest.test_case "demands follow Table 6 profiles" `Quick test_demands_follow_profiles;
    Alcotest.test_case "small NIC rejects Monitor" `Quick test_small_nic_rejects_monitor;
    Alcotest.test_case "policy names roundtrip" `Quick test_policy_names_roundtrip;
    Alcotest.test_case "invariants: first-fit" `Slow test_invariants_first_fit;
    Alcotest.test_case "invariants: spread" `Slow test_invariants_spread;
    Alcotest.test_case "invariants: tco-aware" `Slow test_invariants_tco_aware;
    Alcotest.test_case "full 16-NIC/64-tenant rack" `Slow test_full_rack;
    Alcotest.test_case "deterministic replay" `Slow test_deterministic_replay;
    Alcotest.test_case "typed place error: no capacity" `Quick test_place_typed_no_capacity;
    Alcotest.test_case "typed place error: stage fault" `Quick test_place_typed_stage_fault;
    Alcotest.test_case "evict/replace idempotency" `Quick test_evict_replace_idempotent;
    Alcotest.test_case "kill budgets clamp and report" `Quick test_failure_inject_clamps;
    Alcotest.test_case "NIC kill drains in-flight frames" `Quick test_nic_kill_drains_in_flight;
    Alcotest.test_case "failover skips quarantined NICs" `Quick test_failover_skips_quarantined;
    Alcotest.test_case "telemetry CSV shape" `Slow test_csv_shape;
    Alcotest.test_case "gates: pinned, a doctored figure fails" `Slow test_gates;
  ]
