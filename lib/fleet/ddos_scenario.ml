open Nicsim

type config = {
  d_seed : int;
  d_benign_flows : int;
  d_attack_factor : int; (* spoofed SYNs per benign packet *)
  d_packets_per_flow : int; (* benign data packets after the handshake *)
  d_log2_buckets : int; (* whitelist size: 2^k buckets x 4 slots *)
}

(* The five evaluated protection modes, each run once per scenario. *)
let modes =
  [
    Machine.Liquidio_se_s;
    Machine.Liquidio_se_um { nf_xkphys = true };
    Machine.Agilio;
    Machine.Bluefield;
    Machine.Snic;
  ]

let default_config =
  {
    d_seed = 42;
    d_benign_flows = 256;
    d_attack_factor = 10;
    d_packets_per_flow = 4;
    d_log2_buckets = 10;
  }

type mode_report = {
  dm_mode : Machine.mode;
  dm_tampered : bool; (* a cross-tenant write landed in NF memory *)
  dm_key_stolen : bool; (* a cross-tenant read of NF memory succeeded *)
  dm_baseline_goodput : int; (* benign data pkts delivered, no attack *)
  dm_goodput : int; (* benign data pkts delivered under attack *)
  dm_unprotected_goodput : int; (* naive conntrack proxy, no cookies *)
  dm_goodput_ratio : float;
  dm_unprotected_ratio : float;
  dm_attack_pkts : int;
  dm_attack_dropped : int;
  dm_benign_dropped : int;
  dm_challenges : int;
  dm_admitted : int;
  dm_forged_admits : int; (* key-stolen modes: forged cookies accepted *)
  dm_corrupt_flips : int; (* tampered modes: filter bits flipped *)
  dm_whitelist_load : float;
  dm_mem_reserved_bytes : int; (* proxy whitelist + tracker, fixed *)
  dm_mem_peak_bytes : int;
  dm_mem_flat : bool; (* peak = reserved: the fixed-reservation story *)
  dm_unprotected_mem_peak_bytes : int;
  dm_unprotected_mem_wanted_bytes : int; (* what per-SYN state would need *)
}

type report = {
  d_config : config;
  d_mode_reports : mode_report list;
  d_benign_pkts : int;
  d_attack_pkts : int;
  d_events_digest : int; (* attack-generator determinism fingerprint *)
  d_snic_goodput_ratio : float;
  d_snic_mem_flat : bool;
  d_snic_tampered : bool;
  d_snic_key_stolen : bool;
}

(* Does the isolation mode let tenant 1 reach tenant 0's NF memory?
   Real access checks against the machine, not a table: the attacker
   attempts one store into and one load from the victim's private
   region, exactly like the lib/attacks campaigns. *)
let probe mode =
  let s = Attacks.Scenario.setup mode in
  let m = s.Attacks.Scenario.machine in
  let atk = Attacks.Scenario.as_attacker s in
  let base = s.Attacks.Scenario.victim_mem in
  let tampered =
    match Machine.store_u8 m atk (Machine.Phys (base + 64)) 0xA5 with Ok () -> true | Error _ -> false
  in
  let key_stolen =
    match Machine.load_bytes m atk (Machine.Phys base) ~len:32 with Ok _ -> true | Error _ -> false
  in
  (tampered, key_stolen)

(* The seeded SYN-flood event stream, oldest first. *)
let syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow =
  let evs = ref [] in
  Trace.Attackgen.syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow ~f:(fun e -> evs := e :: !evs);
  List.rev !evs

(* The CuckooGuard pair, with 12-bit whitelist fingerprints.  The
   proxy's cookie key is derived from [name] and [seed], so two
   scenarios on one seed never share a key. *)
let fp_bits = 12

let proxy ~name ~seed ~log2_buckets =
  let key = Crypto.Hmac.derive ~secret:(Printf.sprintf "%s-%08x" name seed) ~label:"synp-cookie" in
  Nf.Syn_proxy.create ~filter_seed:(seed lxor 0xF17) ~fp_bits ~log2_buckets ~key ()

let tracker ~seed ~log2_buckets = Nf.Cuckoo.nf_create ~seed:(seed lxor 0x7CF) ~fp_bits ~log2_buckets ()

(* Per-kind payloads: benign clients follow the cookie protocol (echo
   the proxy's current-epoch cookie); an attacker without the key can
   only guess.  Data payloads are lowercase-only so they can never
   collide with the proxy's "SYN" / "ACK:" payload conventions. *)
let packet ?payload proxy (e : Trace.Attackgen.event) =
  let ft = e.flow in
  let payload =
    match (payload, e.kind) with
    | Some p, _ -> p
    | None, Trace.Attackgen.Syn -> Nf.Syn_proxy.syn_payload
    | None, Trace.Attackgen.Ack ->
      if e.benign then Nf.Syn_proxy.ack_payload proxy ft else Nf.Syn_proxy.ack_prefix ^ "0000000000000000"
    | None, Trace.Attackgen.Data ->
      let len = max 1 (Trace.Flowgen.payload_for_frame ~frame_size:e.size ~proto:Net.Packet.Tcp) in
      let h = Net.Five_tuple.hash ft in
      String.init len (fun i -> Char.chr (97 + ((h + i) mod 26)))
  in
  Net.Packet.make ~src_ip:ft.Net.Five_tuple.src_ip ~dst_ip:ft.Net.Five_tuple.dst_ip ~proto:Net.Packet.Tcp
    ~src_port:ft.Net.Five_tuple.src_port ~dst_port:ft.Net.Five_tuple.dst_port payload

type pass = {
  dp_goodput : int;
  dp_benign_dropped : int;
  dp_attack_dropped : int;
  dp_forged_admits : int;
  dp_corrupt_flips : int;
  dp_challenges : int;
  dp_admitted : int;
  dp_whitelist_load : float;
  dp_reserved : int;
  dp_mem_peak : int;
}

(* One pass of the CuckooGuard chain (SYN proxy -> cuckoo flow tracker)
   over the event stream.  [attack = false] replays only the benign
   events (the goodput baseline).  [tampered] flips one whitelist bit
   every [corrupt_period] attack packets from the attacker's side
   channel; [key_stolen] lets the attacker forge valid cookie echoes for
   its spoofed flows. *)
let corrupt_period = 8

let run_pass config ~sink ~events ~attack ~tampered ~key_stolen =
  let log2_buckets = config.d_log2_buckets in
  let proxy = proxy ~name:"ddos" ~seed:config.d_seed ~log2_buckets in
  let proxy_nf = Nf.Syn_proxy.nf proxy in
  let tracker = tracker ~seed:config.d_seed ~log2_buckets in
  let tracker_nf = Nf.Cuckoo.nf tracker in
  let mem () = Nf.Syn_proxy.memory_bytes proxy + Nf.Cuckoo.memory_bytes (Nf.Cuckoo.nf_filter tracker) in
  let reserved = mem () in
  let rng = Trace.Rng.create ~seed:(config.d_seed lxor 0xC0DE) in
  let goodput = ref 0 and benign_dropped = ref 0 and attack_dropped = ref 0 in
  let forged = ref 0 and flips = ref 0 and attack_seen = ref 0 in
  let mem_peak = ref reserved in
  let feed pkt =
    let v = proxy_nf.Nf.Types.process pkt in
    (match v with Nf.Types.Forward p -> ignore (tracker_nf.Nf.Types.process p) | Nf.Types.Drop _ -> ());
    v
  in
  List.iter
    (fun (e : Trace.Attackgen.event) ->
      if e.benign || attack then begin
        let v = feed (packet proxy e) in
        (match (e.kind, e.benign, v) with
        | Trace.Attackgen.Syn, _, Nf.Types.Drop _ ->
          (* The stateless challenge: expected for every SYN. *)
          Obs.count sink Obs.Ddos_syn_challenge;
          if not e.benign then begin
            incr attack_dropped;
            Obs.count sink Obs.Ddos_attack_drop
          end
        | Trace.Attackgen.Ack, true, Nf.Types.Forward _ -> Obs.count sink Obs.Ddos_admit
        | Trace.Attackgen.Data, true, Nf.Types.Forward _ ->
          incr goodput;
          Obs.count sink Obs.Ddos_goodput_pkt
        | (Trace.Attackgen.Ack | Trace.Attackgen.Data), true, Nf.Types.Drop _ ->
          incr benign_dropped;
          Obs.count sink Obs.Ddos_benign_drop
        | _, false, Nf.Types.Drop _ ->
          incr attack_dropped;
          Obs.count sink Obs.Ddos_attack_drop
        | _ -> ());
        if attack && not e.benign then begin
          incr attack_seen;
          (if key_stolen && e.kind = Trace.Attackgen.Syn then
             (* The stolen HMAC key lets the attacker answer its own
                challenge: a forged echo that validates and pollutes the
                whitelist until the fixed filter saturates. *)
             let ack = packet proxy e ~payload:(Nf.Syn_proxy.ack_payload proxy e.flow) in
             match feed ack with Nf.Types.Forward _ -> incr forged | Nf.Types.Drop _ -> ());
          if tampered && !attack_seen mod corrupt_period = 0 then begin
            Nf.Cuckoo.corrupt (Nf.Syn_proxy.filter proxy) ~bit:(Trace.Rng.bits rng);
            incr flips
          end
        end;
        let m = mem () in
        if m > !mem_peak then mem_peak := m
      end)
    events;
  {
    dp_goodput = !goodput;
    dp_benign_dropped = !benign_dropped;
    dp_attack_dropped = !attack_dropped;
    dp_forged_admits = !forged;
    dp_corrupt_flips = !flips;
    dp_challenges = Nf.Syn_proxy.challenges proxy;
    dp_admitted = Nf.Syn_proxy.admitted proxy;
    dp_whitelist_load = Nf.Cuckoo.load_factor (Nf.Syn_proxy.filter proxy);
    dp_reserved = reserved;
    dp_mem_peak = !mem_peak;
  }

(* The no-defense baseline: a proxy that allocates per-SYN state with no
   cookie, budgeted at the same bytes the CuckooGuard pair reserves.  A
   flood fills the table once and benign handshakes behind it fail —
   classic state exhaustion. *)
let conntrack_entry_bytes = 64

let run_unprotected ~events ~budget_bytes =
  let entry = conntrack_entry_bytes in
  let budget = max 1 (budget_bytes / entry) in
  let tbl = Net.Five_tuple.Table.create 1024 in
  let goodput = ref 0 and benign_dropped = ref 0 and peak = ref 0 and wanted = ref 0 in
  List.iter
    (fun (e : Trace.Attackgen.event) ->
      (match e.Trace.Attackgen.kind with
      | Trace.Attackgen.Syn ->
        wanted := !wanted + entry;
        if not (Net.Five_tuple.Table.mem tbl e.flow) then
          if Net.Five_tuple.Table.length tbl < budget then Net.Five_tuple.Table.add tbl e.flow (ref false)
          else if e.benign then incr benign_dropped
      | Trace.Attackgen.Ack -> (
        match Net.Five_tuple.Table.find_opt tbl e.flow with
        | Some est -> est := true
        | None -> if e.benign then incr benign_dropped)
      | Trace.Attackgen.Data -> (
        match Net.Five_tuple.Table.find_opt tbl e.flow with
        | Some { contents = true } -> if e.benign then incr goodput
        | _ -> if e.benign then incr benign_dropped));
      peak := max !peak (Net.Five_tuple.Table.length tbl * entry))
    events;
  (!goodput, !benign_dropped, !peak, !wanted)

let seed c = c.d_seed
let with_seed c d_seed = { c with d_seed }

let validate c =
  Run.check
    [
      (c.d_benign_flows >= 1, "flows must be >= 1");
      (c.d_attack_factor >= 1, "factor must be >= 1");
      (c.d_packets_per_flow >= 1, "packets per flow must be >= 1");
      (c.d_log2_buckets >= 1 && c.d_log2_buckets <= 28, "log2 buckets must be in 1..28");
    ]

(* No rack to boot: [domains] has nothing to fan out. *)
let run ?(sink = Obs.null) ?domains:_ config =
  Run.valid (validate config);
  let events =
    syn_flood
      (Trace.Rng.create ~seed:(config.d_seed lxor 0xDD05))
      ~benign_flows:config.d_benign_flows ~attack_factor:config.d_attack_factor
      ~packets_per_flow:config.d_packets_per_flow
  in
  let digest = Trace.Attackgen.digest (fun f -> List.iter f events) in
  let benign_pkts = List.length (List.filter (fun (e : Trace.Attackgen.event) -> e.benign) events) in
  let attack_pkts = List.length events - benign_pkts in
  let mode_reports =
    List.map
      (fun mode ->
        let tampered, key_stolen = probe mode in
        let base = run_pass config ~sink:Obs.null ~events ~attack:false ~tampered:false ~key_stolen:false in
        let prot = run_pass config ~sink ~events ~attack:true ~tampered ~key_stolen in
        let ugood, _udrop, upeak, uwanted =
          run_unprotected ~events ~budget_bytes:prot.dp_reserved
        in
        let ratio over =
          if base.dp_goodput = 0 then 0. else float_of_int over /. float_of_int base.dp_goodput
        in
        {
          dm_mode = mode;
          dm_tampered = tampered;
          dm_key_stolen = key_stolen;
          dm_baseline_goodput = base.dp_goodput;
          dm_goodput = prot.dp_goodput;
          dm_unprotected_goodput = ugood;
          dm_goodput_ratio = ratio prot.dp_goodput;
          dm_unprotected_ratio = ratio ugood;
          dm_attack_pkts = attack_pkts;
          dm_attack_dropped = prot.dp_attack_dropped;
          dm_benign_dropped = prot.dp_benign_dropped;
          dm_challenges = prot.dp_challenges;
          dm_admitted = prot.dp_admitted;
          dm_forged_admits = prot.dp_forged_admits;
          dm_corrupt_flips = prot.dp_corrupt_flips;
          dm_whitelist_load = prot.dp_whitelist_load;
          dm_mem_reserved_bytes = prot.dp_reserved;
          dm_mem_peak_bytes = prot.dp_mem_peak;
          dm_mem_flat = prot.dp_mem_peak = prot.dp_reserved;
          dm_unprotected_mem_peak_bytes = upeak;
          dm_unprotected_mem_wanted_bytes = uwanted;
        })
      modes
  in
  let snic = List.find (fun r -> r.dm_mode = Machine.Snic) mode_reports in
  {
    d_config = config;
    d_mode_reports = mode_reports;
    d_benign_pkts = benign_pkts;
    d_attack_pkts = attack_pkts;
    d_events_digest = digest;
    d_snic_goodput_ratio = snic.dm_goodput_ratio;
    d_snic_mem_flat = snic.dm_mem_flat;
    d_snic_tampered = snic.dm_tampered;
    d_snic_key_stolen = snic.dm_key_stolen;
  }

let summary r =
  let b = Buffer.create 4096 in
  let c = r.d_config in
  Printf.bprintf b
    "ddos scenario: seed=%d benign_flows=%d attack_factor=%d pkts/flow=%d filter=2^%d buckets fp=%d bits\n"
    c.d_seed c.d_benign_flows c.d_attack_factor c.d_packets_per_flow c.d_log2_buckets fp_bits;
  Printf.bprintf b "  traffic: %d benign pkts + %d attack pkts, events digest=%d\n" r.d_benign_pkts
    r.d_attack_pkts r.d_events_digest;
  List.iter
    (fun m ->
      Printf.bprintf b
        "  mode %-9s: tampered=%d key_stolen=%d goodput=%.4fx (%d/%d) unprotected=%.4fx attack_dropped=%d/%d \
benign_dropped=%d forged_admits=%d flips=%d load=%.4f mem=%dB peak=%dB flat=%d\n"
        (Oracle.Campaign.mode_id m.dm_mode)
        (if m.dm_tampered then 1 else 0)
        (if m.dm_key_stolen then 1 else 0)
        m.dm_goodput_ratio m.dm_goodput m.dm_baseline_goodput m.dm_unprotected_ratio m.dm_attack_dropped
        m.dm_attack_pkts m.dm_benign_dropped m.dm_forged_admits m.dm_corrupt_flips m.dm_whitelist_load
        m.dm_mem_reserved_bytes m.dm_mem_peak_bytes
        (if m.dm_mem_flat then 1 else 0))
    r.d_mode_reports;
  (* The conntrack budget and demand are mode-independent: print the
     first mode's. *)
  let m = List.hd r.d_mode_reports in
  Printf.bprintf b "  unprotected conntrack: budget=%dB peak=%dB wanted=%dB (per-SYN state at %dB/entry)\n"
    m.dm_mem_reserved_bytes m.dm_unprotected_mem_peak_bytes m.dm_unprotected_mem_wanted_bytes
    conntrack_entry_bytes;
  Printf.bprintf b "  invariants: snic_goodput=%.4f snic_mem_flat=%d snic_tampered=%d snic_key_stolen=%d\n"
    r.d_snic_goodput_ratio
    (if r.d_snic_mem_flat then 1 else 0)
    (if r.d_snic_tampered then 1 else 0)
    (if r.d_snic_key_stolen then 1 else 0);
  Buffer.contents b

let gates r =
  Obs.Gate.
    [
      { key = "snic.goodput_ratio"; value = Some r.d_snic_goodput_ratio; rule = At_least 0.8 };
      { key = "snic.mem_flat"; value = flag r.d_snic_mem_flat; rule = Equals 1. };
      { key = "snic.tampered"; value = flag r.d_snic_tampered; rule = Equals 0. };
      { key = "snic.key_stolen"; value = flag r.d_snic_key_stolen; rule = Equals 0. };
    ]
