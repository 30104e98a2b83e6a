(* CuckooGuard: the cuckoo-filter flow tracker, the SYN-cookie split
   proxy, the adversarial traffic generators and the end-to-end ddos
   scenario (its replay and validation laws are in test_scenarios.ml).
   The qcheck properties pin the filter's advertised bounds (no false
   negatives, bounded false positives, load factor and occupancy never
   past capacity, memory flat); the unit tests pin the cookie
   protocol's round trip and rejection edges; the determinism
   tests diff generator digests across seeds. *)

let tuple ~a ~b ~port =
  Net.Five_tuple.make
    ~src_ip:(Net.Ipv4_addr.of_octets 10 a b 1)
    ~dst_ip:(Net.Ipv4_addr.of_octets 203 0 113 10)
    ~proto:6 ~src_port:port ~dst_port:443

let distinct_tuples n =
  List.init n (fun i -> tuple ~a:(i lsr 8 land 0xff) ~b:(i land 0xff) ~port:(1024 + (i lsr 16)))

(* ---------- Cuckoo filter ---------- *)

let test_cuckoo_insert_mem_remove () =
  let t = Nf.Cuckoo.create ~fp_bits:12 ~log2_buckets:6 () in
  let f1 = tuple ~a:1 ~b:1 ~port:1024 and f2 = tuple ~a:2 ~b:2 ~port:2048 in
  Alcotest.(check bool) "absent before" false (Nf.Cuckoo.mem t f1);
  Alcotest.(check bool) "insert" true (Nf.Cuckoo.insert t f1);
  Alcotest.(check bool) "present" true (Nf.Cuckoo.mem t f1);
  Alcotest.(check bool) "other absent" false (Nf.Cuckoo.mem t f2);
  Alcotest.(check bool) "remove" true (Nf.Cuckoo.remove t f1);
  Alcotest.(check bool) "absent after" false (Nf.Cuckoo.mem t f1);
  Alcotest.(check bool) "remove of absent" false (Nf.Cuckoo.remove t f2);
  Alcotest.(check int) "occupancy back to 0" 0 (Nf.Cuckoo.occupancy t)

let test_cuckoo_validation () =
  Alcotest.check_raises "fp_bits too small" (Invalid_argument "Cuckoo.create: fp_bits must be in [2, 30]")
    (fun () -> ignore (Nf.Cuckoo.create ~fp_bits:1 ~log2_buckets:4 ()));
  Alcotest.check_raises "log2_buckets too big"
    (Invalid_argument "Cuckoo.create: log2_buckets must be in [1, 28]") (fun () ->
      ignore (Nf.Cuckoo.create ~fp_bits:12 ~log2_buckets:29 ()))

(* No false negatives: every inserted flow is found (until removed). *)
let prop_cuckoo_no_false_negatives =
  QCheck.Test.make ~name:"cuckoo: inserted flows are always found" ~count:50
    QCheck.(small_nat)
    (fun salt ->
      let t = Nf.Cuckoo.create ~fp_bits:12 ~log2_buckets:7 () in
      let flows =
        List.init 100 (fun i -> tuple ~a:(salt land 0xff) ~b:(i land 0xff) ~port:(1024 + i + (salt * 7)))
      in
      let inserted = List.filter (Nf.Cuckoo.insert t) flows in
      List.for_all (Nf.Cuckoo.mem t) inserted)

(* Bounded false positives: with 12-bit fingerprints a lookup probes 8
   slots, so the FP rate at 50% load is ~8 * 0.5 / 2^12 ~ 0.1%.  Pin a
   20x-slack ceiling of 2%. *)
let prop_cuckoo_false_positive_bound =
  QCheck.Test.make ~name:"cuckoo: false-positive rate bounded at half load" ~count:20
    QCheck.(small_nat)
    (fun salt ->
      let t = Nf.Cuckoo.create ~seed:(salt + 1) ~fp_bits:12 ~log2_buckets:7 () in
      (* 256 inserts into 512 slots: 50% load. *)
      List.iter (fun f -> ignore (Nf.Cuckoo.insert t f)) (distinct_tuples 256);
      let probes = 2000 in
      let fp = ref 0 in
      for i = 0 to probes - 1 do
        (* Disjoint from [distinct_tuples]: different dst port range. *)
        let f =
          Net.Five_tuple.make
            ~src_ip:(Net.Ipv4_addr.of_octets 10 (i lsr 8 land 0xff) (i land 0xff) 7)
            ~dst_ip:(Net.Ipv4_addr.of_octets 203 0 113 10)
            ~proto:6 ~src_port:(5000 + (salt land 0xff)) ~dst_port:8080
        in
        if Nf.Cuckoo.mem t f then incr fp
      done;
      float_of_int !fp /. float_of_int probes <= 0.02)

(* Occupancy and load factor never pass capacity, memory never grows:
   overfilling by 2x must saturate (rejections), not expand. *)
let prop_cuckoo_saturation_bounds =
  QCheck.Test.make ~name:"cuckoo: overfill saturates within fixed memory" ~count:10
    QCheck.(small_nat)
    (fun salt ->
      let t = Nf.Cuckoo.create ~seed:(salt + 17) ~fp_bits:12 ~log2_buckets:4 () in
      let cap = Nf.Cuckoo.capacity t in
      let mem0 = Nf.Cuckoo.memory_bytes t in
      List.iter (fun f -> ignore (Nf.Cuckoo.insert t f)) (distinct_tuples (2 * cap));
      Nf.Cuckoo.occupancy t <= cap
      && Nf.Cuckoo.load_factor t <= 1.0
      && Nf.Cuckoo.load_factor t >= 0.9
      && Nf.Cuckoo.rejected t > 0
      && Nf.Cuckoo.memory_bytes t = mem0)

let test_cuckoo_memory_bytes () =
  let t = Nf.Cuckoo.create ~fp_bits:12 ~log2_buckets:14 () in
  (* 2^14 buckets x 4 slots x 2 B/fingerprint = 128 KiB, the registry's
     full-scale CKF reservation. *)
  Alcotest.(check int) "128 KiB" (128 * 1024) (Nf.Cuckoo.memory_bytes t);
  Alcotest.(check int) "capacity" (4 * 16384) (Nf.Cuckoo.capacity t)

(* ---------- SYN-cookie split proxy ---------- *)

let proxy ?(key = "test-key") () = Nf.Syn_proxy.create ~fp_bits:12 ~log2_buckets:6 ~key ()

let test_cookie_round_trip () =
  let p = proxy () in
  let f = tuple ~a:1 ~b:2 ~port:4242 in
  let c = Nf.Syn_proxy.cookie p f in
  Alcotest.(check int) "cookie is 8 bytes hex" 16 (String.length c);
  Alcotest.(check bool) "validate(generate) = true" true (Nf.Syn_proxy.validate p f c);
  Alcotest.(check bool) "other flow rejects it" false (Nf.Syn_proxy.validate p (tuple ~a:9 ~b:9 ~port:4242) c)

let test_cookie_wrong_key () =
  let p1 = proxy ~key:"key-one" () and p2 = proxy ~key:"key-two" () in
  let f = tuple ~a:3 ~b:4 ~port:5555 in
  Alcotest.(check bool) "wrong key rejects" false (Nf.Syn_proxy.validate p2 f (Nf.Syn_proxy.cookie p1 f))

let test_cookie_epoch_grace () =
  let p = proxy () in
  let f = tuple ~a:5 ~b:6 ~port:6666 in
  let c = Nf.Syn_proxy.cookie p f in
  Nf.Syn_proxy.advance_epoch p;
  Alcotest.(check bool) "previous epoch still valid" true (Nf.Syn_proxy.validate p f c);
  Nf.Syn_proxy.advance_epoch p;
  Alcotest.(check bool) "stale cookie rejected" false (Nf.Syn_proxy.validate p f c)

let pkt ?(proto = Net.Packet.Tcp) flow payload =
  Net.Packet.make ~src_ip:flow.Net.Five_tuple.src_ip ~dst_ip:flow.Net.Five_tuple.dst_ip ~proto
    ~src_port:flow.Net.Five_tuple.src_port ~dst_port:flow.Net.Five_tuple.dst_port payload

let test_proxy_handshake_protocol () =
  let p = proxy () in
  let nf = Nf.Syn_proxy.nf p in
  let f = tuple ~a:7 ~b:8 ~port:7777 in
  (* Data before any handshake: dropped. *)
  (match nf.Nf.Types.process (pkt f "payload") with
  | Nf.Types.Drop "no-handshake" -> ()
  | _ -> Alcotest.fail "data before handshake must drop");
  (* SYN: challenged (dropped), zero state kept. *)
  (match nf.Nf.Types.process (pkt f Nf.Syn_proxy.syn_payload) with
  | Nf.Types.Drop reason ->
    Alcotest.(check bool) "challenge carries the cookie" true
      (String.length reason > 20 && String.sub reason 0 21 = "syn-cookie-challenge:")
  | Nf.Types.Forward _ -> Alcotest.fail "SYN must be challenged");
  Alcotest.(check int) "still nothing whitelisted" 0 (Nf.Cuckoo.occupancy (Nf.Syn_proxy.filter p));
  (* Garbage cookie: rejected. *)
  (match nf.Nf.Types.process (pkt f (Nf.Syn_proxy.ack_prefix ^ "0000000000000000")) with
  | Nf.Types.Drop "bad-cookie" -> ()
  | _ -> Alcotest.fail "bad cookie must drop");
  (* Valid echo: admitted; data then flows. *)
  (match nf.Nf.Types.process (pkt f (Nf.Syn_proxy.ack_payload p f)) with
  | Nf.Types.Forward _ -> ()
  | Nf.Types.Drop r -> Alcotest.fail ("valid cookie dropped: " ^ r));
  (match nf.Nf.Types.process (pkt f "payload") with
  | Nf.Types.Forward _ -> ()
  | Nf.Types.Drop r -> Alcotest.fail ("admitted data dropped: " ^ r));
  (* UDP is not the proxy's problem. *)
  (match nf.Nf.Types.process (pkt ~proto:Net.Packet.Udp f "dns") with
  | Nf.Types.Forward _ -> ()
  | Nf.Types.Drop _ -> Alcotest.fail "UDP must pass through");
  Alcotest.(check int) "one challenge" 1 (Nf.Syn_proxy.challenges p);
  Alcotest.(check int) "one admit" 1 (Nf.Syn_proxy.admitted p);
  Alcotest.(check int) "one bad cookie" 1 (Nf.Syn_proxy.bad_cookies p);
  Alcotest.(check int) "one no-handshake" 1 (Nf.Syn_proxy.no_handshake p)

let test_proxy_memory_flat () =
  let p = proxy () in
  let nf = Nf.Syn_proxy.nf p in
  let m0 = Nf.Syn_proxy.memory_bytes p in
  List.iter
    (fun f ->
      ignore (nf.Nf.Types.process (pkt f Nf.Syn_proxy.syn_payload));
      ignore (nf.Nf.Types.process (pkt f (Nf.Syn_proxy.ack_payload p f))))
    (distinct_tuples 1000);
  Alcotest.(check int) "memory flat after 1000 handshakes" m0 (Nf.Syn_proxy.memory_bytes p)

(* ---------- Registry ---------- *)

let test_registry_ddos_pair () =
  let ckf = Nf.Registry.find "CKF" and synp = Nf.Registry.find "SYNP" in
  let run (spec : Nf.Registry.spec) =
    let nf = spec.build ~scale:0.01 () in
    List.iter (fun f -> ignore (nf.Nf.Types.process (pkt f "x"))) (distinct_tuples 50)
  in
  run ckf;
  run synp;
  Alcotest.(check string) "CKF name" "CKF" ckf.short;
  Alcotest.(check string) "SYNP name" "SYNP" synp.short

(* ---------- Attack generators: determinism and shape ---------- *)

let gens =
  [
    ( "syn_flood",
      fun rng f -> Trace.Attackgen.syn_flood rng ~benign_flows:40 ~attack_factor:5 ~packets_per_flow:3 ~f );
  ]

let digest_at gen seed = Trace.Attackgen.digest (fun f -> gen (Trace.Rng.create ~seed) f)

let test_attackgen_determinism () =
  List.iter
    (fun (name, gen) ->
      (* Same seed, same stream — three seeds each replayed twice. *)
      List.iter
        (fun seed ->
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d replays identically" name seed)
            (digest_at gen seed) (digest_at gen seed))
        [ 42; 1337; 20240 ];
      (* Different seeds, different streams. *)
      Alcotest.(check bool)
        (name ^ " seeds diverge")
        true
        (digest_at gen 42 <> digest_at gen 1337 && digest_at gen 1337 <> digest_at gen 20240))
    gens

let test_syn_flood_shape () =
  let benign = ref 0 and attack = ref 0 and acks = ref 0 and data = ref 0 in
  Trace.Attackgen.syn_flood (Trace.Rng.create ~seed:7) ~benign_flows:40 ~attack_factor:5 ~packets_per_flow:3
    ~f:(fun e ->
      if e.Trace.Attackgen.benign then incr benign else incr attack;
      (match e.kind with
      | Trace.Attackgen.Ack -> incr acks
      | Trace.Attackgen.Data -> if e.benign then incr data
      | Trace.Attackgen.Syn -> ());
      if not e.benign then
        Alcotest.(check bool) "attack traffic is all SYNs" true (e.kind = Trace.Attackgen.Syn))
  ;
  (* 40 flows x (SYN + ACK + 3 data) benign; every benign packet shadowed
     by 5 spoofed SYNs. *)
  Alcotest.(check int) "benign packets" (40 * 5) !benign;
  Alcotest.(check int) "attack packets" (40 * 5 * 5) !attack;
  Alcotest.(check int) "one ACK per flow" 40 !acks;
  Alcotest.(check int) "data packets" (40 * 3) !data

let test_attackgen_populations_disjoint () =
  (* Benign sources live in 10/8, spoofed ones never do. *)
  Trace.Attackgen.syn_flood (Trace.Rng.create ~seed:11) ~benign_flows:30 ~attack_factor:4 ~packets_per_flow:2
    ~f:(fun e ->
      let ten8 =
        Net.Ipv4_addr.in_prefix e.Trace.Attackgen.flow.Net.Five_tuple.src_ip
          ~prefix:(Net.Ipv4_addr.of_string "10.0.0.0") ~len:8
      in
      Alcotest.(check bool) "population matches prefix" e.benign ten8)

(* ---------- Flowgen: bounded rejection at storm scale ---------- *)

let test_flowgen_distinct_at_scale () =
  let n = 1_000_000 in
  let flows = Trace.Flowgen.flows (Trace.Rng.create ~seed:3) ~n in
  Alcotest.(check int) "count" n (Array.length flows);
  let seen = Hashtbl.create (2 * n) in
  Array.iter
    (fun f ->
      if Hashtbl.mem seen f then Alcotest.fail "duplicate tuple at storm scale";
      Hashtbl.add seen f ())
    flows

(* ---------- Flowgen: exact wire sizes (Figure 8 frames) ---------- *)

let test_wire_sizes_pinned () =
  let rng = Trace.Rng.create ~seed:5 in
  List.iter
    (fun (proto, hdr) ->
      List.iter
        (fun frame ->
          let len = Trace.Flowgen.payload_for_frame ~frame_size:frame ~proto in
          Alcotest.(check int) (Printf.sprintf "frame %d payload" frame) (frame - hdr) len;
          let f = (Trace.Flowgen.flows rng ~n:1).(0) in
          let p =
            Net.Packet.make ~src_ip:f.Net.Five_tuple.src_ip ~dst_ip:f.Net.Five_tuple.dst_ip ~proto
              ~src_port:f.Net.Five_tuple.src_port ~dst_port:f.Net.Five_tuple.dst_port (String.make len 'x')
          in
          Alcotest.(check int) (Printf.sprintf "frame %d wire bytes" frame) frame (Net.Packet.wire_length p))
        Trace.Flowgen.figure8_frame_sizes;
      (* Below the Ethernet minimum: padded up to a 64 B frame, never a
         sub-minimum one. *)
      Alcotest.(check int) "sub-minimum request pads to 64 B" (64 - hdr)
        (Trace.Flowgen.payload_for_frame ~frame_size:1 ~proto))
    [ (Net.Packet.Tcp, 54); (Net.Packet.Udp, 42) ]

(* ---------- End to end: the ddos scenario ---------- *)

let small_config =
  {
    Fleet.Ddos_scenario.default_config with
    Fleet.Ddos_scenario.d_benign_flows = 32;
    d_attack_factor = 4;
    d_packets_per_flow = 2;
    d_log2_buckets = 6;
  }

let test_run_ddos_snic_invariants () =
  let r = Fleet.Ddos_scenario.run small_config in
  Alcotest.(check bool) "snic: attacker cannot tamper" false r.Fleet.Ddos_scenario.d_snic_tampered;
  Alcotest.(check bool) "snic: attacker cannot steal the key" false r.Fleet.Ddos_scenario.d_snic_key_stolen;
  Alcotest.(check bool) "snic: memory flat" true r.Fleet.Ddos_scenario.d_snic_mem_flat;
  Alcotest.(check bool) "snic: goodput >= 0.8x baseline" true (r.Fleet.Ddos_scenario.d_snic_goodput_ratio >= 0.8);
  (* Every mode drops every attack SYN (the cookie is stateless), and the
     defense footprint never grows anywhere. *)
  List.iter
    (fun (m : Fleet.Ddos_scenario.mode_report) ->
      Alcotest.(check int)
        (Oracle.Campaign.mode_id m.dm_mode ^ " drops all attack SYNs")
        m.Fleet.Ddos_scenario.dm_attack_pkts m.Fleet.Ddos_scenario.dm_attack_dropped;
      Alcotest.(check bool)
        (Oracle.Campaign.mode_id m.dm_mode ^ " memory flat")
        true m.Fleet.Ddos_scenario.dm_mem_flat)
    r.Fleet.Ddos_scenario.d_mode_reports

let test_run_ddos_gates () =
  let r = Fleet.Ddos_scenario.run small_config in
  let gates = Fleet.Ddos_scenario.gates r in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [
        ("snic.goodput_ratio", Obs.Gate.At_least 0.8);
        ("snic.mem_flat", Obs.Gate.Equals 1.);
        ("snic.tampered", Obs.Gate.Equals 0.);
        ("snic.key_stolen", Obs.Gate.Equals 0.);
      ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  Alcotest.(check (list string)) "doctored field is reported" [ "snic.mem_flat" ]
    (List.map
       (fun (g : Obs.Gate.t) -> g.key)
       (Obs.Gate.failed (Fleet.Ddos_scenario.gates { r with Fleet.Ddos_scenario.d_snic_mem_flat = false })))

let test_run_ddos_counters () =
  let sink = Obs.create () in
  ignore (Fleet.Ddos_scenario.run ~sink small_config);
  let counter name =
    match Obs.registry sink with
    | None -> Alcotest.fail "recording sink has a registry"
    | Some reg -> Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters reg))
  in
  Alcotest.(check bool) "challenges counted" true (counter "snic_ddos_syn_challenge_total" > 0);
  Alcotest.(check bool) "attack drops counted" true (counter "snic_ddos_attack_drop_total" > 0);
  Alcotest.(check bool) "goodput counted" true (counter "snic_ddos_goodput_pkt_total" > 0);
  Alcotest.(check bool) "admits counted" true (counter "snic_ddos_admit_total" > 0)

let suite =
  [
    Alcotest.test_case "cuckoo insert/mem/remove" `Quick test_cuckoo_insert_mem_remove;
    Alcotest.test_case "cuckoo validation" `Quick test_cuckoo_validation;
    QCheck_alcotest.to_alcotest prop_cuckoo_no_false_negatives;
    QCheck_alcotest.to_alcotest prop_cuckoo_false_positive_bound;
    QCheck_alcotest.to_alcotest prop_cuckoo_saturation_bounds;
    Alcotest.test_case "cuckoo fixed memory bytes" `Quick test_cuckoo_memory_bytes;
    Alcotest.test_case "syn-cookie round trip" `Quick test_cookie_round_trip;
    Alcotest.test_case "syn-cookie wrong key" `Quick test_cookie_wrong_key;
    Alcotest.test_case "syn-cookie epoch grace" `Quick test_cookie_epoch_grace;
    Alcotest.test_case "proxy handshake protocol" `Quick test_proxy_handshake_protocol;
    Alcotest.test_case "proxy memory flat" `Quick test_proxy_memory_flat;
    Alcotest.test_case "registry ddos pair" `Quick test_registry_ddos_pair;
    Alcotest.test_case "attackgen 3-seed determinism" `Quick test_attackgen_determinism;
    Alcotest.test_case "syn flood shape" `Quick test_syn_flood_shape;
    Alcotest.test_case "attack populations disjoint" `Quick test_attackgen_populations_disjoint;
    Alcotest.test_case "flowgen distinct at 10^6" `Slow test_flowgen_distinct_at_scale;
    Alcotest.test_case "figure-8 wire sizes pinned" `Quick test_wire_sizes_pinned;
    Alcotest.test_case "run_ddos snic invariants" `Quick test_run_ddos_snic_invariants;
    Alcotest.test_case "run_ddos obs counters" `Quick test_run_ddos_counters;
    Alcotest.test_case "run_ddos gates: pinned, a doctored figure fails" `Quick test_run_ddos_gates;
  ]
