(* Deterministic saturation driver for VF fairness runs.

   One scenario NIC is a fresh S-NIC machine with every VF slot attached
   and kept backlogged: each VF starts with [prefill] queued descriptors
   and is topped back up after every service, so the two-stage scheduler
   always chooses among all VFs.  We then serve a fixed byte budget of
   [cycles * quantum * total_weight] — i.e. about [cycles] full stage-1
   rotations — and read the weighted goodput shares off the table.
   Everything (packet sizes, flows) comes from one seeded [Trace.Rng],
   so a run is a pure function of its parameters: the CLI prints it
   twice and diffs, and the bench baselines the totals. *)

open Nicsim

type nic_result = {
  nic : int;
  vnics : int;
  scheduled_pkts : int;
  scheduled_bytes : int;
  rounds : int;
  drops : int;
  report : Obs.Fairness.report;
  lat_report : Obs.Fairness.report;
}

type config = { nics : int; vfs : int; cycles : int; seed : int; table : Table.config }

type report = {
  nics : nic_result list;
  total_pkts : int;
  total_bytes : int;
  total_drops : int;
  total_rounds : int;
  jain_min : float;
  max_rel_err : float;
  lat_jain_min : float;
}

let prefill_depth = 16

(* 64..1023-byte frames: the max frame stays below the stage-1 quantum,
   which keeps the one-packet DRR overshoot small against the credit. *)
let frame_bytes rng = 64 + Trace.Rng.int rng 960

let run_nic ?(sink = Obs.null) ?(config = Table.default_config) ~nic ~cycles ~seed ~vnics () =
  if cycles < 1 then invalid_arg "Vf.Scenario.run_nic: cycles must be >= 1";
  let n = List.length vnics in
  if n < 1 then invalid_arg "Vf.Scenario.run_nic: need at least one vNIC";
  let machine = Machine.create (Machine.default_config ~mode:Machine.Snic) in
  let table = Table.create machine { config with vfs = n } in
  Table.set_sink table sink ~track:Table.track_vf;
  let rng = Trace.Rng.create ~seed:(seed + (nic * 1000003)) in
  List.iteri
    (fun vf (nf, weight) ->
      (match Table.attach table ~vf ~nf ~weight with
      | Ok _ -> ()
      | Error e -> failwith ("Vf.Scenario: attach failed: " ^ e));
      (* Ring the doorbell once as the owner, like a driver kicking its
         freshly initialized queue. *)
      match Table.doorbell table ~principal:(Machine.Nf_code nf) ~vf ~value:(vf + 1) with
      | Ok () -> ()
      | Error f -> failwith ("Vf.Scenario: doorbell failed: " ^ Machine.fault_to_string f))
    vnics;
  let submit vf =
    ignore (Table.tx_submit table ~vf ~flow:(Trace.Rng.int rng 8) ~bytes:(frame_bytes rng) : bool)
  in
  for vf = 0 to n - 1 do
    for _ = 1 to prefill_depth do
      submit vf
    done
  done;
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 vnics in
  let budget = cycles * config.quantum * total_weight in
  let served = ref 0 in
  let pkts = ref 0 in
  (* Per-VF service-latency proxy: the gap, counted in fleet-wide
     services, between consecutive services of the same VF.  A weight-w
     VF is picked ~w times as often, so its tail gap should be ~w times
     shorter — exactly what the latency-weighted Jain report scores. *)
  let last_served = Array.make n (-1) in
  let gaps = Array.make n [] in
  (try
     while !served < budget do
       match Table.tx_next table with
       | None -> raise Exit
       | Some (vf, d) ->
         served := !served + d.bytes;
         if last_served.(vf) >= 0 then gaps.(vf) <- float_of_int (!pkts - last_served.(vf)) :: gaps.(vf);
         last_served.(vf) <- !pkts;
         incr pkts;
         submit vf
     done
   with Exit -> ());
  let drops =
    let acc = ref 0 in
    for vf = 0 to n - 1 do
      let s = Table.stats table ~vf in
      acc := !acc + s.Table.tx_drops + s.Table.rx_drops
    done;
    !acc
  in
  let lat_report =
    Obs.Fairness.latency_weighted_report
      (List.concat
         (List.mapi
            (fun vf (_, weight) ->
              match Obs.Metrics.quantile_of_samples gaps.(vf) 0.99 with
              | Some p99 -> [ (vf, p99, float_of_int weight) ]
              | None -> [])
            vnics))
  in
  {
    nic;
    vnics = n;
    scheduled_pkts = !pkts;
    scheduled_bytes = !served;
    rounds = Table.rounds table;
    drops;
    report = Table.fairness table;
    lat_report;
  }

(* Weights cycle 1,2,4,8 down the VF ids so every NIC hosts a mix. *)
let weight_cycle = [| 1; 2; 4; 8 |]

let default_vnics ~nic ~vfs =
  List.init vfs (fun vf -> ((nic * 10000) + vf + 1, weight_cycle.(vf mod 4)))

let of_nics results =
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let worst pick f init = List.fold_left (fun a r -> pick a (f r)) init results in
  {
    nics = results;
    total_pkts = sum (fun r -> r.scheduled_pkts);
    total_bytes = sum (fun r -> r.scheduled_bytes);
    total_drops = sum (fun r -> r.drops);
    total_rounds = sum (fun r -> r.rounds);
    jain_min = worst Float.min (fun r -> r.report.Obs.Fairness.index) infinity;
    max_rel_err = worst Float.max (fun r -> r.report.Obs.Fairness.max_rel_err) 0.;
    lat_jain_min = worst Float.min (fun r -> r.lat_report.Obs.Fairness.index) infinity;
  }

let seed (c : config) = c.seed
let with_seed c seed = { c with seed }

let validate (c : config) =
  if c.nics < 1 then Error "nics must be >= 1"
  else if c.vfs < 1 || c.vfs > 4096 then Error "vfs must be in 1..4096"
  else if c.cycles < 1 then Error "cycles must be >= 1"
  else if c.table.quantum < 1 then Error "quantum must be >= 1"
  else Ok ()

(* Every NIC is its own machine, driven in turn: [domains] has no rack
   boot to fan out. *)
let run ?(sink = Obs.null) ?domains:_ (c : config) =
  (match validate c with Ok () -> () | Error msg -> invalid_arg msg);
  of_nics
    (List.init c.nics (fun nic ->
         run_nic ~sink ~config:c.table ~nic ~cycles:c.cycles ~seed:c.seed ~vnics:(default_vnics ~nic ~vfs:c.vfs) ()))

let gates r =
  Obs.Gate.
    [
      { key = "jain_min"; value = Some r.jain_min; rule = At_least 0.95 };
      { key = "max_share_err_pct"; value = Some (100. *. r.max_rel_err); rule = At_most 5. };
    ]

let nic_summary r =
  Printf.sprintf
    "nic %3d: vnics=%d pkts=%d bytes=%d rounds=%d drops=%d jain=%.4f max-err=%.2f%% lat-jain=%.4f"
    r.nic r.vnics r.scheduled_pkts r.scheduled_bytes r.rounds r.drops r.report.Obs.Fairness.index
    (100. *. r.report.Obs.Fairness.max_rel_err)
    r.lat_report.Obs.Fairness.index

let summary r =
  let b = Buffer.create 256 in
  List.iter
    (fun nr ->
      Buffer.add_string b (nic_summary nr);
      Buffer.add_char b '\n')
    r.nics;
  Buffer.add_string b
    (Printf.sprintf "total: pkts=%d bytes=%d drops=%d jain-min=%.4f max-err=%.2f%%\n" r.total_pkts
       r.total_bytes r.total_drops r.jain_min (100. *. r.max_rel_err));
  Buffer.contents b
