(* lib/vf: SR-IOV-style virtual functions and the two-stage transmit
   scheduler.

   Covers the VF table lifecycle (page-aligned windows, S-NIC scrub on
   detach), strict per-VF quota accounting, the machine-policed doorbell
   and ring-window accesses, the Fairness summary math, and
   Vf.Scenario's weighted-share convergence and gates (its replay laws
   are in test_scenarios.ml). *)

open Nicsim

let fresh_machine mode = Machine.create (Machine.default_config ~mode)

let small_table ?(mode = Machine.Snic) ?(vfs = 8) () =
  let m = fresh_machine mode in
  (m, Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs })

(* ---- table lifecycle ---------------------------------------------- *)

let test_attach_detach_lifecycle () =
  let _, t = small_table () in
  Alcotest.(check int) "starts empty" 0 (Vf.Table.attached_count t);
  let base =
    match Vf.Table.attach t ~vf:3 ~nf:101 ~weight:4 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  Alcotest.(check int) "window is page-aligned" 0 (base mod Physmem.page_size);
  Alcotest.(check bool) "attached" true (Vf.Table.attached t ~vf:3);
  Alcotest.(check (option int)) "owner" (Some 101) (Vf.Table.owner_nf t ~vf:3);
  Alcotest.(check (option int)) "weight" (Some 4) (Vf.Table.weight t ~vf:3);
  Alcotest.(check (option int)) "base" (Some base) (Vf.Table.window_base t ~vf:3);
  (match Vf.Table.attach t ~vf:3 ~nf:102 ~weight:1 with
  | Ok _ -> Alcotest.fail "double attach must fail"
  | Error _ -> ());
  Vf.Table.detach t ~vf:3;
  Alcotest.(check bool) "detached" false (Vf.Table.attached t ~vf:3);
  Alcotest.(check (option int)) "no owner" None (Vf.Table.owner_nf t ~vf:3);
  (* Idempotent. *)
  Vf.Table.detach t ~vf:3;
  Alcotest.(check int) "empty again" 0 (Vf.Table.attached_count t);
  Alcotest.check_raises "out-of-range vf"
    (Invalid_argument "Vf.Table.attach: vf 99 out of range (table has 8)")
    (fun () -> ignore (Vf.Table.attach t ~vf:99 ~nf:1 ~weight:1))

let test_snic_detach_scrubs_window () =
  let m, t = small_table ~mode:Machine.Snic () in
  let base =
    match Vf.Table.attach t ~vf:0 ~nf:7 ~weight:1 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  (* The ring pattern is live in the window page... *)
  Alcotest.(check bool) "pattern present" false
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size);
  Vf.Table.detach t ~vf:0;
  (* ...and gone after an S-NIC detach: single-owner RAM is returned
     scrubbed, so the next owner can never read VF residue. *)
  Alcotest.(check bool) "window scrubbed" true
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size)

let test_commodity_detach_leaves_residue () =
  let m, t = small_table ~mode:Machine.Liquidio_se_s () in
  let base =
    match Vf.Table.attach t ~vf:0 ~nf:7 ~weight:1 with
    | Ok b -> b
    | Error e -> Alcotest.failf "attach failed: %s" e
  in
  Vf.Table.detach t ~vf:0;
  Alcotest.(check bool) "commodity firmware leaves the ring bytes" false
    (Physmem.is_zero (Machine.mem m) ~pos:base ~len:Physmem.page_size)

(* ---- strict per-VF queue accounting ------------------------------- *)

let test_tx_quota_is_per_vf () =
  let m = fresh_machine Machine.Snic in
  let t = Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs = 4; Vf.Table.tx_quota = 4 } in
  List.iter
    (fun vf ->
      match Vf.Table.attach t ~vf ~nf:(100 + vf) ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach %d: %s" vf e)
    [ 0; 1 ];
  for i = 0 to 3 do
    Alcotest.(check bool) "vf 0 admits up to quota" true
      (Vf.Table.tx_submit t ~vf:0 ~flow:i ~bytes:100)
  done;
  Alcotest.(check bool) "vf 0 over quota drops" false (Vf.Table.tx_submit t ~vf:0 ~flow:9 ~bytes:100);
  (* The full neighbour never bleeds into vf 1's descriptors. *)
  Alcotest.(check bool) "vf 1 unaffected" true (Vf.Table.tx_submit t ~vf:1 ~flow:0 ~bytes:100);
  Alcotest.(check int) "vf 0 backlog at quota" 4 (Vf.Table.tx_backlog t ~vf:0);
  Alcotest.(check int) "vf 1 backlog" 1 (Vf.Table.tx_backlog t ~vf:1);
  Alcotest.(check int) "drop counted against vf 0" 1 (Vf.Table.stats t ~vf:0).Vf.Table.tx_drops;
  Alcotest.(check int) "no drops on vf 1" 0 (Vf.Table.stats t ~vf:1).Vf.Table.tx_drops;
  (* Detached slots refuse descriptors outright. *)
  Alcotest.(check bool) "detached slot refuses" false (Vf.Table.tx_submit t ~vf:2 ~flow:0 ~bytes:100)

let test_rx_quota_bounded () =
  let m = fresh_machine Machine.Snic in
  let t = Vf.Table.create m { Vf.Table.default_config with Vf.Table.vfs = 2; Vf.Table.rx_quota = 2 } in
  (match Vf.Table.attach t ~vf:0 ~nf:1 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  let d = { Vf.Table.flow = 0; Vf.Table.bytes = 64 } in
  Alcotest.(check bool) "rx 1" true (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check bool) "rx 2" true (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check bool) "rx over quota" false (Vf.Table.rx_push t ~vf:0 d);
  Alcotest.(check int) "rx depth" 2 (Vf.Table.rx_depth t ~vf:0);
  Alcotest.(check int) "rx drop counted" 1 (Vf.Table.stats t ~vf:0).Vf.Table.rx_drops;
  Alcotest.(check bool) "rx pop" true (Vf.Table.rx_pop t ~vf:0 = Some d)

let test_detach_drops_queued_descriptors () =
  let _, t = small_table ~vfs:2 () in
  List.iter
    (fun vf ->
      match Vf.Table.attach t ~vf ~nf:(1 + vf) ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach: %s" e)
    [ 0; 1 ];
  for i = 0 to 4 do
    ignore (Vf.Table.tx_submit t ~vf:0 ~flow:0 ~bytes:100);
    ignore (Vf.Table.tx_submit t ~vf:1 ~flow:i ~bytes:100)
  done;
  Vf.Table.detach t ~vf:0;
  (* Every remaining scheduled descriptor belongs to the survivor. *)
  let rec drain n =
    match Vf.Table.tx_next t with
    | None -> n
    | Some (vf, _) ->
      Alcotest.(check int) "survivor only" 1 vf;
      drain (n + 1)
  in
  Alcotest.(check int) "survivor's 5 descriptors" 5 (drain 0)

(* ---- machine-policed window accesses ------------------------------ *)

let test_snic_doorbell_isolation () =
  let _, t = small_table ~mode:Machine.Snic ~vfs:4 () in
  List.iter
    (fun (vf, nf) ->
      match Vf.Table.attach t ~vf ~nf ~weight:1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "attach: %s" e)
    [ (0, 50); (1, 51) ];
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 50) ~vf:0 ~value:7 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "owner doorbell must succeed");
  Alcotest.(check int) "doorbell latched" 7 (Vf.Table.stats t ~vf:0).Vf.Table.last_doorbell;
  Alcotest.(check int) "doorbell counted" 1 (Vf.Table.stats t ~vf:0).Vf.Table.doorbells;
  (* S-NIC single-owner RAM: tenant 51 cannot kick tenant 50's VF. *)
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 51) ~vf:0 ~value:9 with
  | Ok () -> Alcotest.fail "cross-VF doorbell must fault on S-NIC"
  | Error _ -> ());
  Alcotest.(check int) "value unchanged" 7 (Vf.Table.stats t ~vf:0).Vf.Table.last_doorbell;
  Alcotest.check_raises "detached doorbell raises"
    (Invalid_argument "Vf.Table.doorbell: vf not attached")
    (fun () -> ignore (Vf.Table.doorbell t ~principal:Machine.Os ~vf:2 ~value:1))

let test_snic_queue_read_isolation_and_pattern () =
  let _, t = small_table ~mode:Machine.Snic ~vfs:4 () in
  (match Vf.Table.attach t ~vf:2 ~nf:60 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.attach t ~vf:3 ~nf:61 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.queue_read t ~principal:(Machine.Nf_code 60) ~vf:2 ~len:32 with
  | Ok bytes ->
    (* The ring image is the deterministic per-VF pattern, skipping the
       8-byte doorbell register. *)
    Alcotest.(check string) "ring bytes match the pure pattern"
      (String.sub (Vf.Table.window_pattern ~vf:2) 8 32)
      bytes
  | Error _ -> Alcotest.fail "owner ring read must succeed");
  (match Vf.Table.queue_read t ~principal:(Machine.Nf_code 61) ~vf:2 ~len:32 with
  | Ok _ -> Alcotest.fail "cross-VF ring snoop must fault on S-NIC"
  | Error _ -> ())

let test_commodity_cross_vf_access_succeeds () =
  (* The contrast case: a commodity NIC's BAR space takes the cross-VF
     kick and snoop — exactly the gap the oracle classifies. *)
  let _, t = small_table ~mode:Machine.Liquidio_se_s ~vfs:4 () in
  (match Vf.Table.attach t ~vf:0 ~nf:50 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.attach t ~vf:1 ~nf:51 ~weight:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match Vf.Table.doorbell t ~principal:(Machine.Nf_code 51) ~vf:0 ~value:9 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "commodity cross-VF doorbell goes through");
  match Vf.Table.queue_read t ~principal:(Machine.Nf_code 51) ~vf:0 ~len:16 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "commodity cross-VF snoop goes through"

(* ---- fairness math ------------------------------------------------ *)

let test_jain_index_cases () =
  let feq = Alcotest.float 1e-9 in
  Alcotest.(check feq) "empty is fair" 1.0 (Obs.Fairness.jain []);
  Alcotest.(check feq) "all-zero is fair" 1.0 (Obs.Fairness.jain [ 0.; 0. ]);
  Alcotest.(check feq) "equal shares" 1.0 (Obs.Fairness.jain [ 3.; 3.; 3.; 3. ]);
  Alcotest.(check feq) "one hog of n=4" 0.25 (Obs.Fairness.jain [ 8.; 0.; 0.; 0. ]);
  let r = Obs.Fairness.weighted_report [ (0, 100., 1.); (1, 200., 2.); (2, 400., 4.) ] in
  Alcotest.(check feq) "weight-normalized goodput is perfectly fair" 1.0 r.Obs.Fairness.index;
  Alcotest.(check feq) "no share error" 0.0 r.Obs.Fairness.max_rel_err

(* ---- scenario driver ---------------------------------------------- *)

let small = { Vf.Scenario.nics = 1; vfs = 32; cycles = 32; seed = 42; table = Vf.Table.default_config }

let test_scenario_weighted_shares_converge () =
  (* 32 rotations bound the stage-1 quantization error well under the
     5% acceptance bar (error ~ 1/cycles). *)
  let r = Vf.Scenario.run small in
  Alcotest.(check bool) "shares within 5% of weights" true (r.Vf.Scenario.max_rel_err <= 0.05);
  Alcotest.(check bool) "jain above the gate floor" true (r.Vf.Scenario.jain_min >= 0.95)

let test_scenario_gates () =
  let r = Vf.Scenario.run small in
  Alcotest.(check bool) "work got done" true (r.Vf.Scenario.total_pkts > 0);
  Alcotest.(check int) "healthy run has no drops" 0 r.Vf.Scenario.total_drops;
  let gates = Vf.Scenario.gates r in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [ ("jain_min", Obs.Gate.At_least 0.95); ("max_share_err_pct", Obs.Gate.At_most 5.) ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  Alcotest.(check (list string)) "doctored field is reported" [ "max_share_err_pct" ]
    (List.map
       (fun (g : Obs.Gate.t) -> g.key)
       (Obs.Gate.failed (Vf.Scenario.gates { r with Vf.Scenario.max_rel_err = 0.051 })));
  Alcotest.(check string) "run is of_nics over its NICs" (Vf.Scenario.summary r)
    (Vf.Scenario.summary (Vf.Scenario.of_nics r.Vf.Scenario.nics))

let suite =
  [
    Alcotest.test_case "attach/detach lifecycle" `Quick test_attach_detach_lifecycle;
    Alcotest.test_case "snic detach scrubs the window" `Quick test_snic_detach_scrubs_window;
    Alcotest.test_case "commodity detach leaves residue" `Quick test_commodity_detach_leaves_residue;
    Alcotest.test_case "tx quota is strictly per-VF" `Quick test_tx_quota_is_per_vf;
    Alcotest.test_case "rx quota bounded" `Quick test_rx_quota_bounded;
    Alcotest.test_case "detach drops queued descriptors" `Quick test_detach_drops_queued_descriptors;
    Alcotest.test_case "snic doorbell isolation" `Quick test_snic_doorbell_isolation;
    Alcotest.test_case "snic ring-read isolation + pattern" `Quick test_snic_queue_read_isolation_and_pattern;
    Alcotest.test_case "commodity cross-VF access succeeds" `Quick test_commodity_cross_vf_access_succeeds;
    Alcotest.test_case "jain index unit cases" `Quick test_jain_index_cases;
    Alcotest.test_case "scenario weighted shares converge" `Slow test_scenario_weighted_shares_converge;
    Alcotest.test_case "scenario gates: pinned, a doctored figure fails" `Quick test_scenario_gates;
  ]
