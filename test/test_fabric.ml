(* Attested NIC-to-NIC fabric: the MAC'd wire codec, the RFC 4303-style
   anti-replay window, attestation-derived channel keys, the channel
   halves with their replay buffer, fail-closed endpoint establishment,
   and the end-to-end cross-NIC chain scenario with mid-run failover.
   The qcheck properties pin the codec's strictness (round trip, no
   best-effort parses, any bit flip fails the MAC) and the window's
   monotonicity; the scenario's replay, domain, shard and validation
   laws are in test_scenarios.ml. *)

let key_of_seed seed = String.init 32 (fun i -> Char.chr ((i * 7) + seed land 0xff))
let key_a = key_of_seed 1
let key_b = key_of_seed 2

(* ---------- Frame codec ---------- *)

let frame_gen =
  QCheck.Gen.(
    map3
      (fun chan seq payload -> { Fabric.Frame.chan; seq; payload })
      (int_bound 0xFFFF) (int_bound 0xFFFFFF)
      (string_size ~gen:printable (int_range 0 200)))

let frame_arb =
  QCheck.make
    ~print:(fun f ->
      Printf.sprintf "{chan=%d; seq=%d; payload=%S}" f.Fabric.Frame.chan f.Fabric.Frame.seq f.Fabric.Frame.payload)
    frame_gen

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: encode/decode_exact round trip" ~count:300 frame_arb (fun f ->
      match Fabric.Frame.decode_exact ~key:key_a (Fabric.Frame.encode ~key:key_a f) with
      | Ok f' -> f' = f
      | Error _ -> false)

let prop_frame_garbage =
  QCheck.Test.make ~name:"frame: garbage never parses" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 120))
    (fun s -> Result.is_error (Fabric.Frame.decode_exact ~key:key_a s))

let prop_frame_truncation =
  QCheck.Test.make ~name:"frame: every strict prefix is rejected" ~count:60 frame_arb (fun f ->
      let wire = Fabric.Frame.encode ~key:key_a f in
      let ok = ref true in
      for cut = 0 to String.length wire - 1 do
        if Result.is_ok (Fabric.Frame.decode_exact ~key:key_a (String.sub wire 0 cut)) then ok := false
      done;
      !ok)

let prop_frame_bitflip =
  QCheck.Test.make ~name:"frame: any single-bit flip fails" ~count:150
    QCheck.(pair frame_arb (pair small_nat (int_bound 7)))
    (fun (f, (byte_idx, bit)) ->
      let wire = Bytes.of_string (Fabric.Frame.encode ~key:key_a f) in
      let i = byte_idx mod Bytes.length wire in
      Bytes.set wire i (Char.chr (Char.code (Bytes.get wire i) lxor (1 lsl bit)));
      Result.is_error (Fabric.Frame.decode_exact ~key:key_a (Bytes.to_string wire)))

let test_frame_trailing () =
  let wire = Fabric.Frame.encode ~key:key_a { Fabric.Frame.chan = 1; seq = 2; payload = "p" } in
  (match Fabric.Frame.decode_exact ~key:key_a (wire ^ "xyz") with
  | Error (Fabric.Frame.Trailing 3) -> ()
  | Error e -> Alcotest.fail ("expected Trailing 3, got " ^ Fabric.Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  match Fabric.Frame.decode_exact ~key:key_a ("XNF1" ^ String.sub wire 4 (String.length wire - 4)) with
  | Error Fabric.Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_frame_wrong_key () =
  let wire = Fabric.Frame.encode ~key:key_a { Fabric.Frame.chan = 3; seq = 9; payload = "secret" } in
  match Fabric.Frame.decode_exact ~key:key_b wire with
  | Error Fabric.Frame.Bad_mac -> ()
  | Error e -> Alcotest.fail ("expected Bad_mac, got " ^ Fabric.Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "frame authenticated under the wrong key"

let test_frame_concat_walk () =
  let frames =
    List.init 3 (fun i -> { Fabric.Frame.chan = 7; seq = i; payload = String.make (i + 1) (Char.chr (0x61 + i)) })
  in
  let stream = String.concat "" (List.map (Fabric.Frame.encode ~key:key_a) frames) in
  let rec walk pos acc =
    if pos = String.length stream then List.rev acc
    else
      match Fabric.Frame.decode ~key:key_a stream ~pos with
      | Ok (f, next) -> walk next (f :: acc)
      | Error e -> Alcotest.fail ("walk failed: " ^ Fabric.Frame.error_to_string e)
  in
  Alcotest.(check bool) "three frames walked back" true (walk 0 [] = frames)

let test_frame_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "negative chan refused" true
    (raises (fun () -> Fabric.Frame.encode ~key:key_a { Fabric.Frame.chan = -1; seq = 0; payload = "" }));
  Alcotest.(check bool) "negative seq refused" true
    (raises (fun () -> Fabric.Frame.encode ~key:key_a { Fabric.Frame.chan = 0; seq = -1; payload = "" }));
  Alcotest.(check bool) "oversize payload refused" true
    (raises (fun () ->
         Fabric.Frame.encode ~key:key_a
           { Fabric.Frame.chan = 0; seq = 0; payload = String.make (Fabric.Frame.max_payload + 1) 'x' }));
  match
    Fabric.Frame.decode_exact ~key:key_a
      (Fabric.Frame.encode ~key:key_a { Fabric.Frame.chan = 0; seq = 0; payload = String.make Fabric.Frame.max_payload 'x' })
  with
  | Ok f -> Alcotest.(check int) "max payload round trips" Fabric.Frame.max_payload (String.length f.Fabric.Frame.payload)
  | Error e -> Alcotest.fail (Fabric.Frame.error_to_string e)

(* ---------- Anti-replay window ---------- *)

let prop_window_monotone =
  QCheck.Test.make ~name:"window: high monotone, no seq admitted twice" ~count:200
    QCheck.(pair (int_range 1 62) (small_list (int_bound 200)))
    (fun (size, seqs) ->
      let w = Fabric.Window.create ~size in
      let fresh = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun seq ->
          let before = Fabric.Window.high w in
          (match Fabric.Window.admit w seq with
          | Fabric.Window.Fresh ->
            if Hashtbl.mem fresh seq then ok := false;
            Hashtbl.replace fresh seq ()
          | Fabric.Window.Replay -> if not (Hashtbl.mem fresh seq) then ok := false
          | Fabric.Window.Stale -> if seq > Fabric.Window.high w - size then ok := false);
          if Fabric.Window.high w < before then ok := false)
        seqs;
      !ok
      && Fabric.Window.accepted w = Hashtbl.length fresh
      && Fabric.Window.accepted w + Fabric.Window.replays w + Fabric.Window.stales w = List.length seqs)

let test_window_edges () =
  let w = Fabric.Window.create ~size:4 in
  Alcotest.(check int) "high starts at -1" (-1) (Fabric.Window.high w);
  Alcotest.(check string) "10 fresh" "fresh" (Fabric.Window.verdict_to_string (Fabric.Window.admit w 10));
  Alcotest.(check string) "6 stale (= high - size)" "stale" (Fabric.Window.verdict_to_string (Fabric.Window.admit w 6));
  Alcotest.(check string) "7 fresh (oldest in window)" "fresh" (Fabric.Window.verdict_to_string (Fabric.Window.admit w 7));
  Alcotest.(check string) "7 replay" "replay" (Fabric.Window.verdict_to_string (Fabric.Window.admit w 7));
  Alcotest.(check string) "10 replay" "replay" (Fabric.Window.verdict_to_string (Fabric.Window.admit w 10));
  Alcotest.(check int) "high unmoved" 10 (Fabric.Window.high w);
  Alcotest.(check int) "accepted" 2 (Fabric.Window.accepted w);
  Alcotest.(check int) "replays" 2 (Fabric.Window.replays w);
  Alcotest.(check int) "stales" 1 (Fabric.Window.stales w)

let test_window_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "size 0 refused" true (raises (fun () -> Fabric.Window.create ~size:0));
  Alcotest.(check bool) "size 63 refused" true (raises (fun () -> Fabric.Window.create ~size:63));
  Alcotest.(check bool) "negative seq refused" true
    (raises (fun () -> Fabric.Window.admit (Fabric.Window.create ~size:32) (-1)));
  Alcotest.(check int) "size 62 accepted" 62 (Fabric.Window.size (Fabric.Window.create ~size:62))

(* ---------- Key derivation ---------- *)

(* Distinct (secrets, chan, src, dst) must yield distinct keys: a grid of
   nearby establishments can never collide, and swapping the two session
   secrets changes the key (direction is bound in). *)
let test_derive_key_injective () =
  let keys = ref [] in
  List.iter
    (fun (sa, sb) ->
      List.iter
        (fun chan ->
          List.iter
            (fun (src, dst) ->
              keys := Fabric.Endpoint.derive_key ~secret_src:sa ~secret_dst:sb ~chan ~src ~dst :: !keys)
            [ (0, 1); (1, 0); (0, 2) ])
        [ 0; 1; 7 ])
    [ (key_a, key_b); (key_b, key_a); (key_a, key_a) ];
  let all = !keys in
  Alcotest.(check int) "grid size" 27 (List.length all);
  Alcotest.(check int) "all keys distinct" 27 (List.length (List.sort_uniq compare all));
  List.iter (fun k -> Alcotest.(check int) "32-byte key" 32 (String.length k)) all

(* ---------- Channel ---------- *)

let test_channel_roundtrip () =
  let tx, rx = Fabric.Channel.pair ~key:key_a ~chan:5 () in
  Alcotest.(check int) "chan id" 5 (Fabric.Channel.chan tx);
  let wire = Fabric.Channel.send tx "hello fabric" in
  (match Fabric.Channel.recv rx wire with
  | Ok p -> Alcotest.(check string) "payload intact" "hello fabric" p
  | Error e -> Alcotest.fail (Fabric.Channel.recv_error_to_string e));
  Alcotest.(check int) "sent" 1 (Fabric.Channel.sent tx);
  Alcotest.(check int) "delivered" 1 (Fabric.Channel.delivered rx);
  Alcotest.(check int) "no mac failures" 0 (Fabric.Channel.mac_failures rx)

let test_channel_replay_rejected () =
  let tx, rx = Fabric.Channel.pair ~key:key_a ~chan:1 () in
  let wire = Fabric.Channel.send tx "once" in
  (match Fabric.Channel.recv rx wire with Ok _ -> () | Error _ -> Alcotest.fail "first delivery");
  (match Fabric.Channel.recv rx wire with
  | Error (Fabric.Channel.Replayed 0) -> ()
  | Error e -> Alcotest.fail ("expected Replayed 0, got " ^ Fabric.Channel.recv_error_to_string e)
  | Ok _ -> Alcotest.fail "replayed frame delivered twice");
  Alcotest.(check int) "replay counted" 1 (Fabric.Channel.replay_rejects rx);
  Alcotest.(check int) "delivered once" 1 (Fabric.Channel.delivered rx)

let test_channel_stale_rejected () =
  let tx, rx = Fabric.Channel.pair ~window:2 ~key:key_a ~chan:1 () in
  let wires = List.init 6 (fun i -> Fabric.Channel.send tx (string_of_int i)) in
  List.iter (fun w -> match Fabric.Channel.recv rx w with Ok _ -> () | Error _ -> Alcotest.fail "in-order") wires;
  (* seq 0 is far behind high = 5 with a 2-wide window: stale, not replay. *)
  (match Fabric.Channel.recv rx (List.hd wires) with
  | Error (Fabric.Channel.Stale 0) -> ()
  | Error e -> Alcotest.fail ("expected Stale 0, got " ^ Fabric.Channel.recv_error_to_string e)
  | Ok _ -> Alcotest.fail "pre-window frame delivered");
  Alcotest.(check int) "stale counted" 1 (Fabric.Channel.stale_rejects rx)

let test_channel_wrong_channel () =
  (* Same key, different channel ids: the frame authenticates but must
     still bounce — payloads cannot migrate across channels. *)
  let tx1, _ = Fabric.Channel.pair ~key:key_a ~chan:1 () in
  let _, rx2 = Fabric.Channel.pair ~key:key_a ~chan:2 () in
  let wire = Fabric.Channel.send tx1 "stray" in
  (match Fabric.Channel.recv rx2 wire with
  | Error (Fabric.Channel.Wrong_channel 1) -> ()
  | Error e -> Alcotest.fail ("expected Wrong_channel 1, got " ^ Fabric.Channel.recv_error_to_string e)
  | Ok _ -> Alcotest.fail "cross-channel frame delivered");
  Alcotest.(check int) "wrong-channel counted" 1 (Fabric.Channel.wrong_channel_rejects rx2)

let test_channel_garbage () =
  let _, rx = Fabric.Channel.pair ~key:key_a ~chan:1 () in
  (match Fabric.Channel.recv rx "not a frame" with
  | Error (Fabric.Channel.Decode _) -> ()
  | Error e -> Alcotest.fail ("expected Decode, got " ^ Fabric.Channel.recv_error_to_string e)
  | Ok _ -> Alcotest.fail "garbage delivered");
  Alcotest.(check int) "mac failure counted" 1 (Fabric.Channel.mac_failures rx)

let test_channel_buffer_and_tap () =
  let taps = ref [] in
  let tx, _rx = Fabric.Channel.pair ~buffer:3 ~tap:(fun w -> taps := w :: !taps) ~key:key_a ~chan:4 () in
  List.iter (fun p -> ignore (Fabric.Channel.send tx p)) [ "a"; "b"; "c"; "d"; "e" ];
  (* The replay buffer keeps only the newest [buffer] payloads, oldest
     first — that is exactly the state a failover can replay. *)
  Alcotest.(check (list string)) "buffer keeps newest 3, oldest first" [ "c"; "d"; "e" ] (Fabric.Channel.buffered tx);
  Alcotest.(check int) "tap saw every wire frame" 5 (List.length !taps);
  List.iter
    (fun w ->
      match Fabric.Frame.decode_exact ~key:key_a w with
      | Ok f -> Alcotest.(check int) "tapped frame on chan 4" 4 f.Fabric.Frame.chan
      | Error e -> Alcotest.fail (Fabric.Frame.error_to_string e))
    !taps;
  (* The smallest caps: 0 buffers nothing, 1 only the newest send. *)
  List.iter
    (fun (cap, want) ->
      let tx, _ = Fabric.Channel.pair ~buffer:cap ~key:key_a ~chan:4 () in
      List.iter (fun p -> ignore (Fabric.Channel.send tx p)) [ "a"; "b"; "c" ];
      Alcotest.(check (list string)) (Printf.sprintf "cap %d" cap) want (Fabric.Channel.buffered tx))
    [ (0, []); (1, [ "c" ]) ]

let prop_channel_buffer_keeps_newest =
  QCheck.Test.make ~name:"channel: buffer = last min(k, cap) sends, oldest first" ~count:200
    QCheck.(pair (int_bound 8) (int_bound 20))
    (fun (cap, k) ->
      let tx, _ = Fabric.Channel.pair ~buffer:cap ~key:key_a ~chan:4 () in
      let sent = List.init k string_of_int in
      List.iter (fun p -> ignore (Fabric.Channel.send tx p)) sent;
      Fabric.Channel.buffered tx = List.filteri (fun i _ -> i >= k - min k cap) sent)

(* ---------- Endpoint establishment (live S-NIC attestation) ---------- *)

let boot_rig () =
  let api = Snic.Api.boot () in
  let insns = Snic.Api.instructions api in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  let config =
    { Snic.Instructions.default_config with Snic.Instructions.cores = [ 0 ]; image = String.make 4096 '\x5A'; memory_bytes = 4096 }
  in
  match Snic.Api.nf_create api config with
  | Error e -> Alcotest.fail ("nf_create: " ^ e)
  | Ok vnic -> (insns, vendor_public, Snic.Vnic.id vnic)

let rig_rng () = Random.State.make [| 0xFAB; 99 |]

let test_establish_loopback () =
  let insns, vendor_public, nf = boot_rig () in
  let ep = Fabric.Endpoint.make ~nic:0 ~insns ~nf () in
  match Fabric.Endpoint.establish (rig_rng ()) ~vendor_public ~chan:0 ep ep with
  | Error e -> Alcotest.fail (Fabric.Endpoint.error_to_string e)
  | Ok (tx, rx) -> (
    match Fabric.Channel.recv rx (Fabric.Channel.send tx "attested bytes") with
    | Ok p -> Alcotest.(check string) "payload over an attested channel" "attested bytes" p
    | Error e -> Alcotest.fail (Fabric.Channel.recv_error_to_string e))

let test_establish_dead_endpoint () =
  let insns, vendor_public, nf = boot_rig () in
  let live = Fabric.Endpoint.make ~nic:0 ~insns ~nf () in
  let dead = Fabric.Endpoint.make ~alive:(fun () -> false) ~nic:3 ~insns ~nf () in
  match Fabric.Endpoint.establish (rig_rng ()) ~vendor_public ~chan:0 live dead with
  | Error (Fabric.Endpoint.Endpoint_down 3) -> ()
  | Error e -> Alcotest.fail ("expected Endpoint_down 3, got " ^ Fabric.Endpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "established a channel to a dead NIC"

let test_establish_misstaged_image () =
  let insns, vendor_public, nf = boot_rig () in
  let good = Fabric.Endpoint.make ~nic:0 ~insns ~nf () in
  let misstaged = Fabric.Endpoint.make ~expected_measurement:"bogus-measurement" ~nic:0 ~insns ~nf () in
  match Fabric.Endpoint.establish (rig_rng ()) ~vendor_public ~chan:0 good misstaged with
  | Error (Fabric.Endpoint.Attest_failed { nic = 0; reason }) ->
    Alcotest.(check bool) "reason is non-empty" true (String.length reason > 0)
  | Error e -> Alcotest.fail ("expected Attest_failed, got " ^ Fabric.Endpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "mis-staged image attested"

let test_establish_identity_reuse () =
  let insns, vendor_public, nf = boot_rig () in
  let registry = Fabric.Endpoint.registry_create () in
  let ep = Fabric.Endpoint.make ~nic:0 ~insns ~nf () in
  (match Fabric.Endpoint.establish ~registry (rig_rng ()) ~vendor_public ~chan:0 ep ep with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("honest establishment refused: " ^ Fabric.Endpoint.error_to_string e));
  (* The same EK surfacing under a fabricated NIC id is a clone. *)
  let clone = Fabric.Endpoint.make ~nic:9 ~insns ~nf () in
  match Fabric.Endpoint.establish ~registry (rig_rng ()) ~vendor_public ~chan:1 ep clone with
  | Error (Fabric.Endpoint.Identity_reuse { nic = 9; prior = 0 }) -> ()
  | Error e -> Alcotest.fail ("expected Identity_reuse, got " ^ Fabric.Endpoint.error_to_string e)
  | Ok _ -> Alcotest.fail "cloned EK under a new NIC id accepted"

(* ---------- End-to-end fabric scenario ---------- *)

let small_config =
  {
    Fleet.Fabric_scenario.default_config with
    Fleet.Fabric_scenario.f_flows = 24;
    f_packets_per_flow = 2;
    f_replay = 8;
    f_reorder = 8;
    f_tamper = 6;
  }

let test_run_fabric_invariants () =
  let (r : Fleet.Fabric_scenario.report) = Fleet.Fabric_scenario.run small_config in
  Alcotest.(check int) "no benign MAC failures" 0 r.f_benign_mac_failures;
  Alcotest.(check int) "every replay rejected" r.f_replay_sent r.f_replay_rejected;
  Alcotest.(check int) "every stale rejected" r.f_stale_sent r.f_stale_rejected;
  Alcotest.(check int) "every tampered frame rejected" r.f_tamper_sent r.f_tamper_rejected;
  Alcotest.(check bool) "adversarial traffic was sent" true
    (r.f_replay_sent > 0 && r.f_stale_sent > 0 && r.f_tamper_sent > 0);
  Alcotest.(check bool) "failed over" true r.f_failed_over;
  Alcotest.(check bool) "fail closed everywhere" true (Fleet.Fabric_scenario.fail_closed r);
  Alcotest.(check bool) "dead NIC refused" true r.f_dead_establish_refused;
  Alcotest.(check bool) "mis-staged image refused" true r.f_misstage_rejected;
  Alcotest.(check bool) "cloned EK refused" true r.f_clone_rejected;
  Alcotest.(check bool) "goodput survives the failover" true (r.f_goodput_ratio >= 0.9);
  Alcotest.(check int) "rebuilt tracker recovered every admitted flow" r.f_admitted
    r.f_state_recovered;
  Alcotest.(check bool) "state was replayed from the buffer" true (r.f_state_replayed > 0);
  Alcotest.(check bool) "attested establishments happened" true (r.f_handshakes >= 2);
  Alcotest.(check bool) "frames crossed the fabric" true (r.f_hops > 0)

let test_run_fabric_gates () =
  let r = Fleet.Fabric_scenario.run small_config in
  let keys gates = List.map (fun (g : Obs.Gate.t) -> g.key) gates in
  let gates = Fleet.Fabric_scenario.gates r in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [
        ("goodput_ratio", Obs.Gate.At_least 0.9);
        ("benign_mac_failures", Obs.Gate.Equals 0.);
        ("adversary_all_rejected", Obs.Gate.Equals 1.);
        ("fail_closed", Obs.Gate.Equals 1.);
        ("failed_over", Obs.Gate.Equals 1.);
      ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  let failed r = keys (Obs.Gate.failed (Fleet.Fabric_scenario.gates r)) in
  Alcotest.(check (list string)) "doctored MAC count is reported" [ "benign_mac_failures" ]
    (failed { r with Fleet.Fabric_scenario.f_benign_mac_failures = 1 });
  Alcotest.(check (list string)) "one unbounced replay is reported" [ "adversary_all_rejected" ]
    (failed { r with Fleet.Fabric_scenario.f_replay_rejected = r.Fleet.Fabric_scenario.f_replay_sent - 1 });
  Alcotest.(check (list string)) "a kill without failover is reported" [ "failed_over" ]
    (failed { r with Fleet.Fabric_scenario.f_failed_over = false });
  Alcotest.(check bool) "no kill, no failover gate" false
    (List.mem "failed_over"
       (keys
          (Fleet.Fabric_scenario.gates
             { r with Fleet.Fabric_scenario.f_config = { small_config with Fleet.Fabric_scenario.f_kill = false } })))

let test_run_fabric_no_kill () =
  let r = Fleet.Fabric_scenario.run { small_config with Fleet.Fabric_scenario.f_kill = false } in
  Alcotest.(check bool) "no failover without a kill" false r.Fleet.Fabric_scenario.f_failed_over;
  Alcotest.(check int) "no state replayed" 0 r.Fleet.Fabric_scenario.f_state_replayed;
  Alcotest.(check (float 0.0001)) "goodput matches the baseline" 1.0 r.Fleet.Fabric_scenario.f_goodput_ratio;
  (* The negative establishment probes still run and still fail closed. *)
  Alcotest.(check bool) "fail closed without the kill" true (Fleet.Fabric_scenario.fail_closed r);
  Alcotest.(check int) "benign traffic still clean" 0 r.Fleet.Fabric_scenario.f_benign_mac_failures

let test_run_fabric_counters () =
  let sink = Obs.create () in
  ignore (Fleet.Fabric_scenario.run ~sink small_config);
  let counter name =
    match Obs.registry sink with
    | None -> Alcotest.fail "recording sink has a registry"
    | Some reg -> Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters reg))
  in
  Alcotest.(check bool) "tx counted" true (counter "snic_fabric_tx_total" > 0);
  Alcotest.(check bool) "rx counted" true (counter "snic_fabric_rx_total" > 0);
  Alcotest.(check bool) "hops counted" true (counter "snic_fabric_hop_total" > 0);
  Alcotest.(check bool) "handshakes counted" true (counter "snic_fabric_handshake_total" > 0);
  Alcotest.(check bool) "replay drops counted" true (counter "snic_fabric_replay_drop_total" > 0);
  Alcotest.(check bool) "stale drops counted" true (counter "snic_fabric_stale_drop_total" > 0);
  Alcotest.(check bool) "mac failures counted" true (counter "snic_fabric_mac_fail_total" > 0);
  Alcotest.(check bool) "failover counted" true (counter "snic_fabric_failover_total" > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_frame_garbage;
    QCheck_alcotest.to_alcotest prop_frame_truncation;
    QCheck_alcotest.to_alcotest prop_frame_bitflip;
    Alcotest.test_case "frame trailing + magic" `Quick test_frame_trailing;
    Alcotest.test_case "frame wrong key" `Quick test_frame_wrong_key;
    Alcotest.test_case "frame concatenated walk" `Quick test_frame_concat_walk;
    Alcotest.test_case "frame validation" `Quick test_frame_validation;
    QCheck_alcotest.to_alcotest prop_window_monotone;
    Alcotest.test_case "window edges" `Quick test_window_edges;
    Alcotest.test_case "window validation" `Quick test_window_validation;
    Alcotest.test_case "derive_key injective" `Quick test_derive_key_injective;
    Alcotest.test_case "channel round trip" `Quick test_channel_roundtrip;
    Alcotest.test_case "channel replay rejected" `Quick test_channel_replay_rejected;
    Alcotest.test_case "channel stale rejected" `Quick test_channel_stale_rejected;
    Alcotest.test_case "channel wrong channel" `Quick test_channel_wrong_channel;
    Alcotest.test_case "channel garbage" `Quick test_channel_garbage;
    Alcotest.test_case "channel buffer + tap" `Quick test_channel_buffer_and_tap;
    QCheck_alcotest.to_alcotest prop_channel_buffer_keeps_newest;
    Alcotest.test_case "establish loopback" `Quick test_establish_loopback;
    Alcotest.test_case "establish dead endpoint" `Quick test_establish_dead_endpoint;
    Alcotest.test_case "establish mis-staged image" `Quick test_establish_misstaged_image;
    Alcotest.test_case "establish identity reuse" `Quick test_establish_identity_reuse;
    Alcotest.test_case "run_fabric invariants" `Quick test_run_fabric_invariants;
    Alcotest.test_case "run_fabric no kill" `Quick test_run_fabric_no_kill;
    Alcotest.test_case "run_fabric obs counters" `Quick test_run_fabric_counters;
    Alcotest.test_case "run_fabric gates: pinned, a doctored figure fails" `Quick test_run_fabric_gates;
  ]
