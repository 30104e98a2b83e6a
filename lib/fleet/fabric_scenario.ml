open Nicsim

type config = {
  f_seed : int;
  f_nics : int; (* >= 3: proxy NIC, tracker NIC, failover spare *)
  f_flows : int; (* benign flows in the seeded stream *)
  f_packets_per_flow : int;
  f_window : int; (* receiver anti-replay window *)
  f_buffer : int; (* sender replay-buffer capacity (failover state) *)
  f_replay : int; (* adversarial re-deliveries of in-window frames *)
  f_reorder : int; (* adversarial re-deliveries of pre-window frames *)
  f_tamper : int; (* adversarial bit-flipped frames *)
  f_kill : bool; (* kill the tracker NIC mid-run and fail over *)
  f_fp_bits : int; (* whitelist fingerprint bits *)
  f_log2_buckets : int; (* whitelist size: 2^k buckets x 4 slots *)
  f_bytes_per_mb : int;
}

let default_config =
  {
    f_seed = 42;
    f_nics = 3;
    f_flows = 96;
    f_packets_per_flow = 4;
    f_window = 32;
    f_buffer = 2048;
    f_replay = 24;
    f_reorder = 24;
    f_tamper = 16;
    f_kill = true;
    f_fp_bits = 12;
    f_log2_buckets = 10;
    f_bytes_per_mb = 1024;
  }

type report = {
  f_config : config;
  f_benign_pkts : int;
  f_events_digest : int; (* generator determinism fingerprint *)
  f_handshakes : int; (* successful attested establishments *)
  f_hops : int; (* frames that crossed an inter-NIC link *)
  f_admitted : int; (* flows the proxy admitted to the whitelist *)
  f_baseline_goodput : int; (* benign data pkts delivered, no failure *)
  f_goodput : int; (* ... with the mid-run NIC kill + failover *)
  f_goodput_ratio : float;
  f_benign_mac_failures : int; (* must stay 0: benign frames never fail *)
  f_replay_sent : int;
  f_replay_rejected : int;
  f_stale_sent : int;
  f_stale_rejected : int;
  f_tamper_sent : int;
  f_tamper_rejected : int;
  f_failed_over : bool; (* the tracker stage was re-homed *)
  f_dead_establish_refused : bool; (* channel to the dead NIC failed closed *)
  f_state_replayed : int; (* buffered payloads replayed into the new stage *)
  f_state_recovered : int; (* admitted flows present in the rebuilt tracker *)
  f_misstage_rejected : bool; (* mis-staged image -> Attest_failed *)
  f_clone_rejected : bool; (* duplicated EK under a new NIC id -> Identity_reuse *)
}

(* Stage NFs are launched through the real control plane (nf_create on
   the node's API) so attestation quotes cover a genuinely staged
   function, not a synthetic identity. *)
let stage_config ~image : Snic.Instructions.launch_config =
  {
    Snic.Instructions.default_config with
    Snic.Instructions.cores = [];
    image;
    memory_bytes = 32 * 1024;
    rules = [ { Pktio.match_any with Pktio.dst_port = Some Trace.Attackgen.victim_port } ];
    rx_bytes = 8 * 1024;
    tx_bytes = 8 * 1024;
    sched = Sched.Fifo;
    accels = [];
  }

let place_stage node ~image =
  let cfg = stage_config ~image in
  match Snic.Api.nf_create_r (Node.api node) cfg with
  | Error e -> failwith (Printf.sprintf "fabric stage launch failed: %s" (Snic.Api.create_error_to_string e))
  | Ok vnic -> (vnic, Orchestrator.expected_measurement cfg (Snic.Vnic.handle vnic))

let endpoint node vnic ~expected =
  Fabric.Endpoint.make
    ~alive:(fun () -> Node.alive node && not (Node.quarantined node))
    ~expected_measurement:expected ~nic:(Node.id node)
    ~insns:(Snic.Api.instructions (Node.api node))
    ~nf:(Snic.Vnic.id vnic) ()

(* The benign half of a seeded SYN-flood stream: same generator as the
   ddos scenario, so the handshake/data mix (and the digest idiom) match. *)
let events config =
  List.filter
    (fun (e : Trace.Attackgen.event) -> e.benign)
    (Ddos_scenario.syn_flood
       (Trace.Rng.create ~seed:(config.f_seed lxor 0xFAB))
       ~benign_flows:config.f_flows ~attack_factor:1 ~packets_per_flow:config.f_packets_per_flow)

type pass = {
  fp_goodput : int;
  fp_admitted : int;
  fp_hops : int;
  fp_handshakes : int;
  fp_benign_mac_failures : int;
  fp_failed_over : bool;
  fp_dead_refused : bool;
  fp_state_replayed : int;
  fp_state_recovered : int;
  fp_replay_sent : int;
  fp_replay_rejected : int;
  fp_stale_sent : int;
  fp_stale_rejected : int;
  fp_tamper_sent : int;
  fp_tamper_rejected : int;
}

(* One pass of the split CuckooGuard chain: SYN proxy on NIC 0, cuckoo
   flow tracker on NIC 1, every inter-stage packet crossing an attested
   channel.  [kill] takes the tracker NIC down mid-stream and fails the
   stage over to the spare; [adversary] replays captured wire frames
   (verbatim, pre-window, and bit-flipped) at the receiver afterwards. *)
let run_pass config ~sink ~domains ~events ~kill ~adversary =
  let orch =
    Orchestrator.create ~sink ~domains
      {
        Orchestrator.seed = config.f_seed;
        n_nics = config.f_nics;
        n_tenants = 0;
        policy = Policy.First_fit;
        bytes_per_mb = config.f_bytes_per_mb;
      }
  in
  let nodes = Orchestrator.nodes orch in
  let telemetry = Orchestrator.telemetry orch in
  let vendor_public = Snic.Identity.vendor_public (Orchestrator.vendor orch) in
  let rng = Random.State.make [| config.f_seed; 0xFAB51 |] in
  let registry = Fabric.Endpoint.registry_create () in
  let handshakes = ref 0 in
  let captures = ref [] in
  let tap w = captures := w :: !captures in
  let establish ~chan src dst =
    match
      Fabric.Endpoint.establish ~registry ~sink ~window:config.f_window ~buffer:config.f_buffer ~tap rng
        ~vendor_public ~chan src dst
    with
    | Ok link ->
      incr handshakes;
      link
    | Error e -> failwith (Fabric.Endpoint.error_to_string e)
  in
  (* The proxy's whitelist and cookie key live on NIC 0 and survive the
     tracker NIC's death; the tracker's flow table is the state the
     failover must rebuild from the channel's replay buffer. *)
  let new_tracker () =
    Ddos_scenario.tracker ~seed:config.f_seed ~fp_bits:config.f_fp_bits ~log2_buckets:config.f_log2_buckets
  in
  let proxy =
    Ddos_scenario.proxy ~name:"fabric" ~seed:config.f_seed ~fp_bits:config.f_fp_bits
      ~log2_buckets:config.f_log2_buckets
  in
  let tracker = ref (new_tracker ()) in
  let _vnic_a, expected_a = place_stage nodes.(0) ~image:"fabric:synp:stage-0" in
  let vnic_b, expected_b = place_stage nodes.(1) ~image:"fabric:ckf:stage-1" in
  let ep_a = endpoint nodes.(0) _vnic_a ~expected:expected_a in
  let ep_b = endpoint nodes.(1) vnic_b ~expected:expected_b in
  let stage_a = { Fabric.Chain.st_nic = 0; st_name = "synp-admit"; st_nf = Nf.Syn_proxy.nf proxy } in
  let stage_b = { Fabric.Chain.st_nic = 1; st_name = "ckf-track"; st_nf = Nf.Cuckoo.nf !tracker } in
  let chain = Fabric.Chain.create ~sink [ stage_a; stage_b ] ~links:[ establish ~chan:1 ep_a ep_b ] in
  let goodput = ref 0 in
  let admitted = Net.Five_tuple.Table.create 256 in
  let failed_over = ref false and dead_refused = ref false and state_replayed = ref 0 in
  let n_events = List.length events in
  let kill_at = n_events / 2 in
  let fail_over () =
    (* Hardware death of the tracker NIC: its flow state is gone and its
       attestation can never pass again — establishment to it must fail
       closed before the stage is re-homed on the spare. *)
    Node.kill nodes.(1);
    Telemetry.nic_kill telemetry;
    (match
       Fabric.Endpoint.establish ~registry ~sink ~window:config.f_window ~buffer:config.f_buffer rng
         ~vendor_public ~chan:2 ep_a ep_b
     with
    | Error (Fabric.Endpoint.Endpoint_down _) -> dead_refused := true
    | Ok _ | Error _ -> ());
    let spare = nodes.(2) in
    let vnic_c, expected_c = place_stage spare ~image:"fabric:ckf:stage-1" in
    let ep_c = endpoint spare vnic_c ~expected:expected_c in
    tracker := new_tracker ();
    let stage_c = { Fabric.Chain.st_nic = Node.id spare; st_name = "ckf-track"; st_nf = Nf.Cuckoo.nf !tracker } in
    (* Frames captured off the dead link can only ever fail the new
       link's MAC — drop them so the adversarial pass exercises the live
       channel's window, not a stale key. *)
    captures := [];
    let link = establish ~chan:2 ep_a ep_c in
    state_replayed := Fabric.Chain.relink chain ~hop:0 stage_c link;
    failed_over := true
  in
  List.iteri
    (fun i (e : Trace.Attackgen.event) ->
      if kill && i = kill_at then fail_over ();
      match (e.Trace.Attackgen.kind, Fabric.Chain.feed chain (Ddos_scenario.packet proxy e)) with
      | Trace.Attackgen.Data, Fabric.Chain.Delivered _ -> incr goodput
      | Trace.Attackgen.Ack, Fabric.Chain.Delivered _ ->
        Net.Five_tuple.Table.replace admitted e.Trace.Attackgen.flow ()
      | _ -> ())
    events;
  (* Benign traffic must never trip the authenticator: snapshot before
     the adversary starts replaying. *)
  let benign_mac_failures = Fabric.Chain.mac_failures chain in
  let replay_sent = ref 0 and replay_rejected = ref 0 in
  let stale_sent = ref 0 and stale_rejected = ref 0 in
  let tamper_sent = ref 0 and tamper_rejected = ref 0 in
  if adversary then begin
    let rx = Fabric.Chain.link_rx chain ~hop:0 in
    let caps = Array.of_list (List.rev !captures) in
    let n = Array.length caps in
    (* Capture order is send order, so index i carries sequence i: the
       newest [window] frames must bounce as replays, anything older
       than the window as stale. *)
    let n_replay = min config.f_replay (min n config.f_window) in
    for k = 0 to n_replay - 1 do
      incr replay_sent;
      match Fabric.Channel.recv rx caps.(n - 1 - k) with
      | Error (Fabric.Channel.Replayed _) -> incr replay_rejected
      | _ -> ()
    done;
    let n_stale = min config.f_reorder (max 0 (n - config.f_window)) in
    for k = 0 to n_stale - 1 do
      incr stale_sent;
      match Fabric.Channel.recv rx caps.(k) with
      | Error (Fabric.Channel.Stale _) -> incr stale_rejected
      | _ -> ()
    done;
    for k = 0 to config.f_tamper - 1 do
      if n > 0 then begin
        incr tamper_sent;
        let w = Bytes.of_string caps.(n - 1 - (k mod n)) in
        let pos = k mod Bytes.length w in
        Bytes.set w pos (Char.chr (Char.code (Bytes.get w pos) lxor 0x40));
        match Fabric.Channel.recv rx (Bytes.to_string w) with
        | Error (Fabric.Channel.Decode _) -> incr tamper_rejected
        | _ -> ()
      end
    done
  end;
  let recovered =
    Net.Five_tuple.Table.fold
      (fun ft () acc -> if Nf.Cuckoo.mem (Nf.Cuckoo.nf_filter !tracker) ft then acc + 1 else acc)
      admitted 0
  in
  ( orch,
    {
      fp_goodput = !goodput;
      fp_admitted = Net.Five_tuple.Table.length admitted;
      fp_hops = Fabric.Chain.hop_count chain;
      fp_handshakes = !handshakes;
      fp_benign_mac_failures = benign_mac_failures;
      fp_failed_over = !failed_over;
      fp_dead_refused = !dead_refused;
      fp_state_replayed = !state_replayed;
      fp_state_recovered = recovered;
      fp_replay_sent = !replay_sent;
      fp_replay_rejected = !replay_rejected;
      fp_stale_sent = !stale_sent;
      fp_stale_rejected = !stale_rejected;
      fp_tamper_sent = !tamper_sent;
      fp_tamper_rejected = !tamper_rejected;
    } )

(* Establishment must fail closed on a mis-staged image and on a cloned
   EK identity; both probes run against freshly launched stages on the
   pass's own rack. *)
let negative_probes config ~orch rng =
  let nodes = Orchestrator.nodes orch in
  let vendor_public = Snic.Identity.vendor_public (Orchestrator.vendor orch) in
  let registry = Fabric.Endpoint.registry_create () in
  let vnic_g, expected_g = place_stage nodes.(0) ~image:"fabric:probe:good" in
  let ep_good = endpoint nodes.(0) vnic_g ~expected:expected_g in
  let spare = nodes.(2) in
  (* The NIC OS staged [evil] but the verifier demands the measurement
     of [good]: the quote covers the staged image, so it cannot match. *)
  let cfg_evil = stage_config ~image:"fabric:probe:evil" in
  let misstage_rejected =
    match Snic.Api.nf_create_r (Node.api spare) cfg_evil with
    | Error _ -> false
    | Ok vnic ->
      let expected =
        Orchestrator.expected_measurement
          { cfg_evil with Snic.Instructions.image = "fabric:probe:good" }
          (Snic.Vnic.handle vnic)
      in
      let ep_bad = endpoint spare vnic ~expected in
      (match Fabric.Endpoint.establish ~registry rng ~vendor_public ~chan:7 ep_good ep_bad with
      | Error (Fabric.Endpoint.Attest_failed _) -> true
      | Ok _ | Error _ -> false)
  in
  (* A clone presents NIC 0's EK under a fabricated NIC id.  The first
     establishment registered the real binding, so the clone is refused. *)
  let ep_clone =
    Fabric.Endpoint.make ~nic:(config.f_nics + 99)
      ~insns:(Snic.Api.instructions (Node.api nodes.(0)))
      ~nf:(Snic.Vnic.id vnic_g) ()
  in
  let clone_rejected =
    match Fabric.Endpoint.establish ~registry rng ~vendor_public ~chan:8 ep_clone ep_good with
    | Error (Fabric.Endpoint.Identity_reuse _) -> true
    | Ok _ | Error _ -> false
  in
  (misstage_rejected, clone_rejected)

let seed c = c.f_seed
let with_seed c f_seed = { c with f_seed }

let validate c =
  Run.check
    [
      (c.f_nics >= 3, "nics must be >= 3 (proxy, tracker, failover spare)");
      (c.f_flows >= 1, "flows must be >= 1");
      (c.f_packets_per_flow >= 1, "packets per flow must be >= 1");
      (c.f_window >= 1 && c.f_window <= 62, "window must be in 1..62");
      (c.f_buffer >= 0, "buffer must be >= 0");
      (c.f_replay >= 0 && c.f_reorder >= 0 && c.f_tamper >= 0, "replay, reorder and tamper counts must be >= 0");
    ]

let run ?(sink = Obs.null) ?(domains = 1) config =
  Run.valid (validate config);
  let events = events config in
  let digest = Trace.Attackgen.digest (fun f -> List.iter f events) in
  let _, base = run_pass config ~sink:Obs.null ~domains ~events ~kill:false ~adversary:false in
  let orch, main = run_pass config ~sink ~domains ~events ~kill:config.f_kill ~adversary:true in
  let probe_rng = Random.State.make [| config.f_seed; 0xFAB9E |] in
  let misstage_rejected, clone_rejected = negative_probes config ~orch probe_rng in
  {
    f_config = config;
    f_benign_pkts = List.length events;
    f_events_digest = digest;
    f_handshakes = main.fp_handshakes;
    f_hops = main.fp_hops;
    f_admitted = main.fp_admitted;
    f_baseline_goodput = base.fp_goodput;
    f_goodput = main.fp_goodput;
    f_goodput_ratio =
      (if base.fp_goodput = 0 then 0. else float_of_int main.fp_goodput /. float_of_int base.fp_goodput);
    f_benign_mac_failures = main.fp_benign_mac_failures;
    f_replay_sent = main.fp_replay_sent;
    f_replay_rejected = main.fp_replay_rejected;
    f_stale_sent = main.fp_stale_sent;
    f_stale_rejected = main.fp_stale_rejected;
    f_tamper_sent = main.fp_tamper_sent;
    f_tamper_rejected = main.fp_tamper_rejected;
    f_failed_over = main.fp_failed_over;
    f_dead_establish_refused = main.fp_dead_refused;
    f_state_replayed = main.fp_state_replayed;
    f_state_recovered = main.fp_state_recovered;
    f_misstage_rejected = misstage_rejected;
    f_clone_rejected = clone_rejected;
  }

let fail_closed r =
  r.f_misstage_rejected && r.f_clone_rejected && ((not r.f_config.f_kill) || r.f_dead_establish_refused)

let summary r =
  let b = Buffer.create 2048 in
  let c = r.f_config in
  let flag v = if v then 1 else 0 in
  Printf.bprintf b
    "fabric scenario: seed=%d nics=%d flows=%d pkts/flow=%d window=%d buffer=%d kill=%d\n" c.f_seed
    c.f_nics c.f_flows c.f_packets_per_flow c.f_window c.f_buffer (flag c.f_kill);
  Printf.bprintf b "  traffic: %d benign pkts, events digest=%d\n" r.f_benign_pkts r.f_events_digest;
  Printf.bprintf b "  channels: handshakes=%d hops=%d admitted=%d benign_mac_fail=%d\n" r.f_handshakes
    r.f_hops r.f_admitted r.f_benign_mac_failures;
  Printf.bprintf b "  goodput: %d/%d (%.4fx)\n" r.f_goodput r.f_baseline_goodput r.f_goodput_ratio;
  Printf.bprintf b
    "  failover: failed_over=%d dead_establish_refused=%d state_replayed=%d state_recovered=%d/%d\n"
    (flag r.f_failed_over) (flag r.f_dead_establish_refused) r.f_state_replayed r.f_state_recovered
    r.f_admitted;
  Printf.bprintf b "  adversary: replay=%d/%d stale=%d/%d tamper=%d/%d\n" r.f_replay_rejected
    r.f_replay_sent r.f_stale_rejected r.f_stale_sent r.f_tamper_rejected r.f_tamper_sent;
  Printf.bprintf b "  establishment: misstage_rejected=%d clone_rejected=%d\n"
    (flag r.f_misstage_rejected) (flag r.f_clone_rejected);
  Printf.bprintf b
    "  invariants: benign_mac_fail=%d replay_rejects=%d/%d stale_rejects=%d/%d tamper_rejects=%d/%d \
goodput_ratio=%.4f failover=%d fail_closed=%d\n"
    r.f_benign_mac_failures r.f_replay_rejected r.f_replay_sent r.f_stale_rejected r.f_stale_sent
    r.f_tamper_rejected r.f_tamper_sent r.f_goodput_ratio (flag r.f_failed_over)
    (flag (fail_closed r));
  Buffer.contents b

let gates r =
  let all_rejected =
    r.f_replay_rejected = r.f_replay_sent
    && r.f_stale_rejected = r.f_stale_sent
    && r.f_tamper_rejected = r.f_tamper_sent
  in
  Obs.Gate.(
    [
      { key = "goodput_ratio"; value = Some r.f_goodput_ratio; rule = At_least 0.9 };
      { key = "benign_mac_failures"; value = int r.f_benign_mac_failures; rule = Equals 0. };
      { key = "adversary_all_rejected"; value = flag all_rejected; rule = Equals 1. };
      { key = "fail_closed"; value = flag (fail_closed r); rule = Equals 1. };
    ]
    @ if r.f_config.f_kill then [ { key = "failed_over"; value = flag r.f_failed_over; rule = Equals 1. } ] else [])
