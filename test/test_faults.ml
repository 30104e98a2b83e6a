(* Device-level gray-failure injection: plan determinism, each fault
   site surfacing as a typed event at its device boundary, and the
   security checks the chaos layer leans on — a bit flip during image
   staging must change the measurement and fail attestation, never run. *)

open Nicsim

let mb = 1 lsl 20

(* ---------- plan mechanics ---------- *)

let test_plan_determinism () =
  let script plan =
    let hits = ref [] in
    for i = 0 to 199 do
      let site = List.nth Faults.all_sites (i mod List.length Faults.all_sites) in
      if Faults.roll plan site then begin
        let d = Faults.draw_int plan 256 in
        ignore (Faults.record plan ~device:"t" site ~detail:(string_of_int d));
        hits := (i, d) :: !hits
      end
    done;
    (!hits, Faults.log_to_string plan, Faults.total plan)
  in
  let a = script (Faults.plan ~seed:7 (Faults.storm ())) in
  let b = script (Faults.plan ~seed:7 (Faults.storm ())) in
  Alcotest.(check bool) "same seed: same firings, same log" true (a = b);
  let _, log_a, total_a = a in
  Alcotest.(check bool) "the storm actually fired" true (total_a > 0);
  let _, log_c, _ = script (Faults.plan ~seed:8 (Faults.storm ())) in
  Alcotest.(check bool) "different seed: different log" false (String.equal log_a log_c)

let test_rate_endpoints () =
  let off = Faults.plan ~seed:3 Faults.none in
  for _ = 1 to 50 do
    List.iter
      (fun s -> Alcotest.(check bool) "rate 0 never fires" false (Faults.roll off s))
      Faults.all_sites
  done;
  Alcotest.(check int) "no events recorded" 0 (Faults.total off);
  let on = Faults.plan ~seed:3 (Faults.storm ~intensity:1e9 ()) in
  List.iter
    (fun s -> Alcotest.(check bool) "saturated rate always fires" true (Faults.roll on s))
    Faults.all_sites;
  (* A rate-0.0 site consumes no randomness, so arming one site does not
     perturb the schedule of the others. *)
  let p1 = Faults.plan ~seed:11 { Faults.none with Faults.rx_drop = 0.5 } in
  let p2 = Faults.plan ~seed:11 { Faults.none with Faults.rx_drop = 0.5 } in
  ignore (Faults.roll p1 Faults.Dma_error);
  ignore (Faults.roll p1 Faults.Bus_timeout);
  Alcotest.(check bool) "zero-rate rolls consumed no randomness" true
    (Faults.roll p1 Faults.Rx_drop = Faults.roll p2 Faults.Rx_drop);
  Alcotest.(check int) "draw streams still aligned" (Faults.draw_int p1 1000) (Faults.draw_int p2 1000)

(* ---------- DMA faults ---------- *)

let make_dma () =
  let nic = Physmem.create ~size:(4 * mb) and host = Physmem.create ~size:(4 * mb) in
  (Dma.create ~nic_mem:nic ~host_mem:host ~banks:1, nic, host)

let bit_diff a b =
  let n = ref 0 in
  String.iteri
    (fun i ca ->
      let x = Char.code ca lxor Char.code b.[i] in
      for bit = 0 to 7 do
        if x land (1 lsl bit) <> 0 then incr n
      done)
    a;
  !n

let test_dma_error_typed () =
  let d, _, host = make_dma () in
  Physmem.write_bytes host ~pos:0 "twelve bytes";
  let plan = Faults.plan ~seed:1 { Faults.none with Faults.dma_error = 1.0 } in
  Dma.set_faults d plan;
  (match Dma.transfer ~checked:false d ~bank:0 ~direction:Dma.To_nic ~nic_addr:0x1000 ~host_addr:0 ~len:12 with
  | Error (Dma.Fault ev) -> Alcotest.(check bool) "typed site" true (ev.Faults.site = Faults.Dma_error)
  | Error (Dma.Violation v) -> Alcotest.fail v
  | Ok () -> Alcotest.fail "fault did not surface");
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Dma_error)

let test_dma_stall_accrues () =
  let d, _, host = make_dma () in
  Physmem.write_bytes host ~pos:0 "twelve bytes";
  Dma.set_faults d (Faults.plan ~seed:2 { Faults.none with Faults.dma_stall = 1.0 });
  (match Dma.transfer ~checked:false d ~bank:0 ~direction:Dma.To_nic ~nic_addr:0x1000 ~host_addr:0 ~len:12 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Dma.error_to_string e));
  Alcotest.(check bool) "stall cycles accrued" true (Dma.stall_cycles d >= 1_000)

let test_dma_corrupt_flips_one_bit () =
  let d, nic, host = make_dma () in
  let payload = "staged-image-payload-0123456789" in
  Physmem.write_bytes host ~pos:0 payload;
  let plan = Faults.plan ~seed:5 { Faults.none with Faults.dma_corrupt = 1.0 } in
  Dma.set_faults d plan;
  (match
     Dma.transfer ~checked:false d ~bank:0 ~direction:Dma.To_nic ~nic_addr:0x1000 ~host_addr:0
       ~len:(String.length payload)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Dma.error_to_string e));
  let landed = Physmem.read_bytes nic ~pos:0x1000 ~len:(String.length payload) in
  Alcotest.(check int) "exactly one bit flipped in flight" 1 (bit_diff payload landed);
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Dma_corrupt)

(* ---------- accelerator faults ---------- *)

let test_accel_hang_horizon () =
  let a = Accel.create ~kind:Accel.Dpi ~threads:16 ~cluster_size:4 in
  Accel.set_faults a (Faults.plan ~seed:2 { Faults.none with Faults.accel_hang = 1.0 });
  let done_at = Accel.submit_any a ~now:0 ~bytes:64 in
  Alcotest.(check bool) "completion pushed past the hang horizon" true (done_at >= Accel.hang_horizon);
  (* The watchdog budget must sit far below the horizon (and far above an
     honest request) for hang detection to be meaningful. *)
  Alcotest.(check bool) "watchdog budget below horizon" true
    (Fleet.Supervisor.watchdog_budget < Accel.hang_horizon)

let test_accel_garbage_flag () =
  let a = Accel.create ~kind:Accel.Zip ~threads:16 ~cluster_size:4 in
  Accel.set_faults a (Faults.plan ~seed:3 { Faults.none with Faults.accel_garbage = 1.0 });
  let done_at = Accel.submit_any a ~now:0 ~bytes:64 in
  Alcotest.(check bool) "completes on time" true (done_at < Accel.hang_horizon);
  Alcotest.(check bool) "garbage flagged" true (Accel.take_garbage a);
  Alcotest.(check bool) "flag cleared by take" false (Accel.take_garbage a)

(* ---------- packet IO faults ---------- *)

let udp_frame ?(dport = 9000) () =
  let p =
    Net.Packet.make ~src_ip:(Net.Ipv4_addr.of_string "10.0.0.1") ~dst_ip:(Net.Ipv4_addr.of_string "10.0.0.2")
      ~proto:Net.Packet.Udp ~src_port:1111 ~dst_port:dport "payload!"
  in
  Net.Packet.serialize p

let make_pktio () =
  let m = Physmem.create ~size:(32 * mb) in
  let a = Alloc.init m ~base:0x10000 ~heap_base:(16 * mb) ~heap_size:(16 * mb) ~max_entries:256 in
  (m, Pktio.create m a ~rx_buffer_bytes:(2 * mb) ~tx_buffer_bytes:(2 * mb))

let test_pktio_rx_drop () =
  let _, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536);
  Pktio.add_rule io ~m:{ Pktio.match_any with dst_port = Some 9000 } ~nf:0;
  let plan = Faults.plan ~seed:4 { Faults.none with Faults.rx_drop = 1.0 } in
  Pktio.set_faults io plan;
  (match Pktio.deliver io (udp_frame ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "injected RX drop did not drop");
  Alcotest.(check int) "counted as a drop" 1 (Pktio.drop_count io);
  Alcotest.(check int) "nothing queued" 0 (Pktio.rx_depth io ~nf:0);
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Rx_drop)

let test_pktio_rx_corrupt () =
  let m, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536);
  Pktio.add_rule io ~m:{ Pktio.match_any with dst_port = Some 9000 } ~nf:0;
  let plan = Faults.plan ~seed:5 { Faults.none with Faults.rx_corrupt = 1.0 } in
  Pktio.set_faults io plan;
  (match Pktio.deliver io (udp_frame ()) with
  | Ok nf -> Alcotest.(check int) "still routed" 0 nf
  | Error e -> Alcotest.fail e);
  (match Pktio.rx_pop io ~nf:0 with
  | Some (addr, len) ->
    let landed = Physmem.read_bytes m ~pos:addr ~len in
    Alcotest.(check int) "exactly one bit flipped at ingress" 1 (bit_diff (Bytes.to_string (udp_frame ())) landed)
  | None -> Alcotest.fail "no descriptor");
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Rx_corrupt)

let test_pktio_tx_drop () =
  let _, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536);
  Pktio.add_rule io ~m:{ Pktio.match_any with dst_port = Some 9000 } ~nf:0;
  let plan = Faults.plan ~seed:6 { Faults.none with Faults.tx_drop = 1.0 } in
  Pktio.set_faults io plan;
  (match Pktio.deliver io (udp_frame ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Pktio.rx_pop io ~nf:0 with
  | Some (addr, len) -> Pktio.transmit io ~nf:0 ~addr ~len
  | None -> Alcotest.fail "no descriptor");
  Alcotest.(check int) "frame eaten before the wire" 0 (List.length (Pktio.wire_out io));
  Alcotest.(check int) "counted as a drop" 1 (Pktio.drop_count io);
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Tx_drop)

(* ---------- bus and DRAM faults ---------- *)

let test_bus_timeout () =
  let bus = Bus.create ~policy:Bus.Free_for_all ~clients:2 in
  let plan = Faults.plan ~seed:7 { Faults.none with Faults.bus_timeout = 1.0 } in
  Bus.set_faults bus plan;
  let done_at = Bus.request bus ~client:0 ~now:0 ~cost:8 in
  Alcotest.(check bool) "stalled past the timeout penalty" true (done_at >= Bus.timeout_penalty);
  Alcotest.(check int) "logged" 1 (Faults.count plan Faults.Bus_timeout)

let test_flip_bit () =
  let m = Physmem.create ~size:mb in
  Physmem.write_u8 m 100 0x55;
  Physmem.flip_bit m ~pos:100 ~bit:1;
  Alcotest.(check int) "bit 1 flipped" 0x57 (Physmem.read_u8 m 100);
  Physmem.flip_bit m ~pos:100 ~bit:1;
  Alcotest.(check int) "flip is an involution" 0x55 (Physmem.read_u8 m 100);
  Alcotest.check_raises "bit index validated" (Invalid_argument "Physmem.flip_bit: bit must be in 0..7")
    (fun () -> Physmem.flip_bit m ~pos:100 ~bit:8)

(* ---------- the control-plane result path ---------- *)

let test_stage_fault_typed () =
  let api = Snic.Api.boot () in
  Machine.set_faults (Snic.Api.machine api) (Faults.plan ~seed:4 { Faults.none with Faults.dma_error = 1.0 });
  match Snic.Api.nf_create_r api { Snic.Instructions.default_config with image = "img" } with
  | Error (Snic.Api.Stage_fault ev) ->
    Alcotest.(check bool) "typed DMA fault on the staging path" true (ev.Faults.site = Faults.Dma_error)
  | Error e -> Alcotest.fail (Snic.Api.create_error_to_string e)
  | Ok _ -> Alcotest.fail "staging over a failing DMA engine must not succeed"

(* The headline security invariant: a bit flip while the image is staged
   changes the measured state, so the Appendix A handshake (verifying
   against the measurement the tenant expects) rejects the function —
   corruption downgrades to unavailability, never to running wrong code. *)
let test_corrupt_staging_fails_attestation () =
  let expected (cfg : Snic.Instructions.launch_config) (h : Snic.Instructions.handle) =
    Snic.Measurement.of_config ~image:cfg.Snic.Instructions.image ~cores:h.Snic.Instructions.cores
      ~mem_base:h.Snic.Instructions.mem_base ~mem_len:h.Snic.Instructions.mem_len
      ~rules:cfg.Snic.Instructions.rules ~accels:cfg.Snic.Instructions.accels
      ~rx_bytes:cfg.Snic.Instructions.rx_bytes ~tx_bytes:cfg.Snic.Instructions.tx_bytes
      ~sched:cfg.Snic.Instructions.sched
  in
  let cfg = { Snic.Instructions.default_config with image = "attested-image-payload" } in
  let api = Snic.Api.boot () in
  (* Clean staging: the hardware measurement matches the verifier's. *)
  (match Snic.Api.nf_create_r api cfg with
  | Ok vnic ->
    let h = Snic.Vnic.handle vnic in
    Alcotest.(check string) "clean staging measures as expected" (expected cfg h)
      h.Snic.Instructions.measurement;
    ignore (Snic.Api.nf_destroy api ~id:h.Snic.Instructions.id)
  | Error e -> Alcotest.fail (Snic.Api.create_error_to_string e));
  (* Corrupted staging: measurement differs and the handshake refuses. *)
  Machine.set_faults (Snic.Api.machine api) (Faults.plan ~seed:6 { Faults.none with Faults.dma_corrupt = 1.0 });
  match Snic.Api.nf_create_r api cfg with
  | Error e -> Alcotest.fail (Snic.Api.create_error_to_string e)
  | Ok vnic -> (
    let h = Snic.Vnic.handle vnic in
    Alcotest.(check bool) "corrupt image measures differently" false
      (String.equal (expected cfg h) h.Snic.Instructions.measurement);
    match Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:h.Snic.Instructions.id with
    | Error e -> Alcotest.fail (Snic.Instructions.error_to_string e)
    | Ok attester ->
      let rng = Random.State.make [| 99 |] in
      let result =
        Snic.Session.handshake rng
          ~vendor_public:(Snic.Identity.vendor_public (Snic.Api.vendor api))
          ~expected_measurement:(expected cfg h) attester
      in
      Alcotest.(check bool) "handshake rejects the corrupted function" true (Result.is_error result))

let suite =
  [
    Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
    Alcotest.test_case "rate endpoints and stream isolation" `Quick test_rate_endpoints;
    Alcotest.test_case "DMA error is typed" `Quick test_dma_error_typed;
    Alcotest.test_case "DMA stall accrues cycles" `Quick test_dma_stall_accrues;
    Alcotest.test_case "DMA corruption flips one bit" `Quick test_dma_corrupt_flips_one_bit;
    Alcotest.test_case "accelerator hang horizon" `Quick test_accel_hang_horizon;
    Alcotest.test_case "accelerator garbage flag" `Quick test_accel_garbage_flag;
    Alcotest.test_case "pktio RX drop" `Quick test_pktio_rx_drop;
    Alcotest.test_case "pktio RX corruption" `Quick test_pktio_rx_corrupt;
    Alcotest.test_case "pktio TX drop" `Quick test_pktio_tx_drop;
    Alcotest.test_case "bus timeout" `Quick test_bus_timeout;
    Alcotest.test_case "DRAM flip_bit" `Quick test_flip_bit;
    Alcotest.test_case "staging fault is typed on nf_create" `Quick test_stage_fault_typed;
    Alcotest.test_case "corrupt staging fails attestation" `Quick test_corrupt_staging_fails_attestation;
  ]
