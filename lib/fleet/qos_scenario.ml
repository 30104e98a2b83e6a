open Nicsim

(* The performance-isolation counterpart of the gray-failure storm
   (Chaos): tenant 0 floods the rack's shared IO fabric (bus
   transactions, DMA bytes, accelerator cycles) while the other tenants
   run latency-sensitive traffic under an SLO.  The fabric is fronted by a
   Qos credit arbiter; the supervisor watches per-round SLO telemetry
   and quarantines the *aggressor tenant* when victim violations are
   sustained.  A second pass replays the identical workload with the
   arbiter bypassed, giving the unprotected baseline the report and
   bench compare against.  Fully deterministic: all issue times come
   from strides plus one seeded stream. *)

type config = {
  q_seed : int;
  q_tenants : int; (* tenant 0 is the aggressor; >= 2 *)
  q_rounds : int;
  q_requests : int; (* victim requests per tenant per round *)
  q_factor : int; (* aggressor load multiplier *)
  q_slo : int; (* victim latency SLO, cycles *)
  q_starve : bool; (* zero structural slack: guarantees only *)
}

let default_config =
  {
    q_seed = 42;
    q_tenants = 8;
    q_rounds = 8;
    q_requests = 40;
    q_factor = 8;
    q_slo = 2_000;
    q_starve = false;
  }

(* The protected pass's rack, and the arbiter's accounting epoch in
   cycles. *)
let nics = 4
let epoch = 10_000

(* Request shapes (credits): victims are small and latency-sensitive,
   the aggressor is bulk.  The victim's SLO-tracked op is the bus
   transaction (its request/response path); DMA and accel jobs are
   fire-and-forget background load.  The aggressor's back-to-back bus
   bursts at each epoch start are what convoy the FCFS bus and blow the
   victims' tail — unless credits cut the convoy short. *)
let epochs_per_round = 4
let accel_threads = 8
let victim_bus_cost = 8
let victim_dma_len = 256
let victim_accel_bytes = 64
let agg_bus_cost = 150
let agg_dma_len = 4096
let agg_accel_bytes = 512

type tenant = {
  qt_tid : int;
  qt_aggressor : bool;
  qt_grants : int;
  qt_throttles : int;
  qt_borrowed : int;
  qt_share : float; (* worst-resource granted/requested fraction *)
  qt_p50 : float option;
  qt_p90 : float option;
  qt_p99 : float option;
  qt_samples : int;
  qt_slo_violations : int;
  qt_quarantined : bool;
}

type report = {
  q_config : config;
  q_outcomes : tenant list;
  q_victim_p99 : float option; (* worst victim p99, whole run *)
  q_victim_p99_steady : float option; (* worst victim p99, final round *)
  q_unprotected_p99 : float option; (* worst victim p99 with qos bypassed *)
  q_share_min : float; (* min victim guaranteed-share kept *)
  q_starved : int; (* victims with zero grants *)
  q_aggressor_throttles : int;
  q_quarantines : int;
  q_readmissions : int;
  q_slo_violations : int;
  q_lat_fairness : Obs.Fairness.report; (* latency-weighted jain over victim p99s *)
}

type fabric = { f_bus : Bus.t; f_dma : Dma.t; f_accel : Accel.t }

let make_fabric config =
  {
    f_bus = Bus.create ~policy:Bus.Free_for_all ~clients:config.q_tenants;
    f_dma =
      Dma.create ~nic_mem:(Physmem.create ~size:(1 lsl 20)) ~host_mem:(Physmem.create ~size:(1 lsl 20))
        ~banks:1;
    f_accel = Accel.create ~kind:Accel.Dpi ~threads:accel_threads ~cluster_size:accel_threads;
  }

type fabric_op = Op_bus of int | Op_dma of int | Op_accel of int

(* One round's event stream, oldest first: victims evenly strided so
   per-epoch demand matches their guarantee exactly; the aggressor
   issues each epoch's burst back-to-back from the epoch start, which
   is what convoys the shared bus in the unprotected pass. *)
let round_events config rng ~round ~active =
  let round_cycles = epoch * epochs_per_round in
  let start = round * round_cycles in
  let evs = ref [] in
  for tid = 1 to config.q_tenants - 1 do
    if active.(tid) then begin
      let stride = round_cycles / config.q_requests in
      for k = 0 to config.q_requests - 1 do
        let t = start + (k * stride) + tid in
        evs := (t, tid, Op_bus victim_bus_cost) :: !evs;
        if k mod 2 = 0 then evs := (t, tid, Op_dma victim_dma_len) :: !evs;
        if k mod 8 = 0 then evs := (t, tid, Op_accel victim_accel_bytes) :: !evs
      done
    end
  done;
  if active.(0) then begin
    let total = config.q_requests * config.q_factor in
    let per_epoch = total / epochs_per_round in
    for e = 0 to epochs_per_round - 1 do
      for j = 0 to per_epoch - 1 do
        let t = start + (e * epoch) + (j * 2) + Trace.Rng.int rng 2 in
        evs := (t, 0, Op_bus agg_bus_cost) :: !evs;
        evs := (t, 0, Op_dma agg_dma_len) :: !evs;
        evs := (t, 0, Op_accel agg_accel_bytes) :: !evs
      done
    done
  end;
  List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !evs)

(* Per-epoch victim demand, the basis for guarantees: a victim's
   guarantee is exactly what its workload needs (plus boundary
   headroom), the OSMOSIS notion of a minimum bandwidth contract. *)
let victim_demand config accel = function
  | Qos.Bus -> config.q_requests * victim_bus_cost / epochs_per_round
  | Qos.Dma -> config.q_requests / 2 * victim_dma_len / epochs_per_round
  | Qos.Accel ->
    ((config.q_requests / 8) + 1) * Qos.accel_cost accel ~bytes:victim_accel_bytes / epochs_per_round

(* Guarantees are OSMOSIS-style minimum contracts: each victim is
   promised exactly its demand (plus boundary headroom).  The aggressor
   gets a generous bus guarantee and — in the normal variant — a cap
   that still lets it convoy most of an epoch, which is precisely the
   degradation the supervisor's quarantine then heals.  The accel
   credit capacity sits at half the cluster's real service rate so
   granted work always drains; in the starvation variant every
   capacity collapses to the sum of guarantees (zero structural
   slack). *)
let make_arbiter config fabric =
  let g r = (victim_demand config fabric.f_accel r * 5 / 4) + 1 in
  let agg_g = function Qos.Bus -> 10 * g Qos.Bus | (Qos.Dma | Qos.Accel) as r -> 4 * g r in
  let total r = ((config.q_tenants - 1) * g r) + agg_g r in
  let capacity = function
    | Qos.Bus -> max epoch (total Qos.Bus)
    | Qos.Dma -> 2 * total Qos.Dma
    | Qos.Accel -> max (accel_threads * epoch / 2) (total Qos.Accel)
  in
  let capacity r = if config.q_starve then total r else capacity r in
  let cap_v r = 2 * g r in
  let cap_a r =
    if config.q_starve then agg_g r
    else max (agg_g r) (match r with Qos.Bus -> capacity Qos.Bus * 4 / 5 | _ -> capacity r / 2)
  in
  let qos =
    Qos.create
      {
        Qos.epoch;
        bus_capacity = capacity Qos.Bus;
        dma_capacity = capacity Qos.Dma;
        accel_capacity = capacity Qos.Accel;
      }
  in
  Qos.register qos ~tenant:0
    {
      Qos.bus = { Qos.guarantee = agg_g Qos.Bus; cap = cap_a Qos.Bus };
      dma = { Qos.guarantee = agg_g Qos.Dma; cap = cap_a Qos.Dma };
      accel = { Qos.guarantee = agg_g Qos.Accel; cap = cap_a Qos.Accel };
      slo = None;
    };
  for tid = 1 to config.q_tenants - 1 do
    Qos.register qos ~tenant:tid
      {
        Qos.bus = { Qos.guarantee = g Qos.Bus; cap = cap_v Qos.Bus };
        dma = { Qos.guarantee = g Qos.Dma; cap = cap_v Qos.Dma };
        accel = { Qos.guarantee = g Qos.Accel; cap = cap_v Qos.Accel };
        slo = Some config.q_slo;
      }
  done;
  qos

(* Replay the workload.  [qos = Some arbiter] is the protected pass
   (credits enforced, supervisor in the loop); [None] is the
   unprotected baseline (every request hits the fabric directly).
   Returns per-tenant latency samples (whole run and final round),
   per-resource requested credits, and grant/throttle counts. *)
(* A resource's column in [p_requested]. *)
let rix = function Qos.Bus -> 0 | Qos.Dma -> 1 | Qos.Accel -> 2

type pass = {
  p_samples : float list array; (* per tenant, newest first *)
  p_last_round : float list array; (* final-round samples only *)
  p_requested : int array array; (* tenant x resource, credits *)
  p_quarantined : bool array;
}

let run_pass config ~qos ~sup ~orch =
  let n = config.q_tenants in
  let fabric = make_fabric config in
  let rng = Trace.Rng.create ~seed:(config.q_seed lxor 0x9005) in
  let samples = Array.make n [] in
  let last_round = Array.make n [] in
  let requested = Array.make_matrix n 3 0 in
  let quarantined = Array.make n false in
  let round_viol = Array.make n 0 in
  let round_samp = Array.make n 0 in
  let prev_borrowed = Array.make n 0 in
  let sample tid ~now ~done_at ~final =
    let lat = float_of_int (done_at - now) in
    samples.(tid) <- lat :: samples.(tid);
    if final then last_round.(tid) <- lat :: last_round.(tid);
    round_samp.(tid) <- round_samp.(tid) + 1;
    if done_at - now > config.q_slo then round_viol.(tid) <- round_viol.(tid) + 1
  in
  let exec ~final now tid op =
    match (op, qos) with
    | Op_bus cost, Some q -> (
      requested.(tid).(rix Qos.Bus) <- requested.(tid).(rix Qos.Bus) + cost;
      match Qos.bus_request q ~bus:fabric.f_bus ~tenant:tid ~client:tid ~now ~cost with
      | Ok done_at -> if tid > 0 then sample tid ~now ~done_at ~final
      | Error _ -> ())
    | Op_bus cost, None ->
      let done_at = Bus.request fabric.f_bus ~client:tid ~now ~cost in
      if tid > 0 then sample tid ~now ~done_at ~final
    | Op_dma len, Some q ->
      requested.(tid).(rix Qos.Dma) <- requested.(tid).(rix Qos.Dma) + len;
      ignore
        (Qos.dma_transfer q ~dma:fabric.f_dma ~tenant:tid ~now ~checked:false ~bank:0
           ~direction:Dma.To_host ~nic_addr:0 ~host_addr:0 ~len)
    | Op_dma len, None ->
      ignore
        (Dma.transfer ~checked:false fabric.f_dma ~bank:0 ~direction:Dma.To_host ~nic_addr:0
           ~host_addr:0 ~len)
    | Op_accel bytes, Some q -> (
      (* Fire-and-forget offload: admission is what is being metered;
         the SLO-tracked op is the bus path, so no latency sample. *)
      let cost = Qos.accel_cost fabric.f_accel ~bytes in
      requested.(tid).(rix Qos.Accel) <- requested.(tid).(rix Qos.Accel) + cost;
      match Qos.admit q ~tenant:tid ~resource:Qos.Accel ~cost ~now with
      | Qos.Granted -> ignore (Accel.submit fabric.f_accel ~cluster:0 ~now ~bytes)
      | Qos.Throttled _ -> ())
    | Op_accel bytes, None -> ignore (Accel.submit fabric.f_accel ~cluster:0 ~now ~bytes)
  in
  let active = Array.make n true in
  for round = 0 to config.q_rounds - 1 do
    (* A drained (quarantined) tenant generates no traffic this round. *)
    (match (sup, orch) with
    | Some _, Some o ->
      Array.iter
        (fun (tn : Orchestrator.tenant) ->
          if tn.Orchestrator.tid < n then active.(tn.Orchestrator.tid) <- tn.Orchestrator.placement <> None)
        (Orchestrator.tenants o)
    | _ -> ());
    Array.fill round_viol 0 n 0;
    Array.fill round_samp 0 n 0;
    let final = round = config.q_rounds - 1 in
    List.iter (fun (t, tid, op) -> exec ~final t tid op) (round_events config rng ~round ~active);
    (* Close the round: hand per-tenant deltas to the supervisor. *)
    match (sup, qos) with
    | Some s, Some q ->
      let stats =
        List.init n (fun tid ->
            let st = Qos.stats q ~tenant:tid in
            let over = st.Qos.borrowed_credits - prev_borrowed.(tid) in
            prev_borrowed.(tid) <- st.Qos.borrowed_credits;
            ( tid,
              {
                Supervisor.violations = round_viol.(tid);
                samples = round_samp.(tid);
                over_credits = over;
              } ))
      in
      Supervisor.note_qos s ~round stats;
      for tid = 0 to n - 1 do
        match Supervisor.tenant_breaker s ~tenant:tid with
        | Supervisor.Open _ -> quarantined.(tid) <- true
        | _ -> ()
      done
    | _ -> ()
  done;
  { p_samples = samples; p_last_round = last_round; p_requested = requested; p_quarantined = quarantined }

let seed c = c.q_seed
let with_seed c q_seed = { c with q_seed }

let validate c =
  Run.check
    [
      (c.q_tenants >= 2, "tenants must be >= 2 (an aggressor and a victim)");
      (c.q_rounds >= 1, "rounds must be >= 1");
      ( c.q_requests >= epochs_per_round,
        Printf.sprintf "requests must be >= %d (one per epoch)" epochs_per_round );
      (c.q_factor >= 1, "factor must be >= 1");
      (c.q_slo >= 1, "slo must be >= 1");
    ]

let run ?(sink = Obs.null) ?domains config =
  Run.valid (validate config);
  (* Protected pass: fleet + arbiter + supervisor. *)
  let orch =
    Orchestrator.create ~sink ?domains
      {
        Orchestrator.seed = config.q_seed;
        n_nics = nics;
        n_tenants = config.q_tenants;
        policy = Policy.First_fit;
      }
  in
  let sup = Supervisor.create ~seed:config.q_seed orch in
  let fabric0 = make_fabric config in
  let qos = make_arbiter config fabric0 in
  Qos.set_sink qos sink ~track_base:920;
  let p = run_pass config ~qos:(Some qos) ~sup:(Some sup) ~orch:(Some orch) in
  (* Unprotected baseline: same workload, arbiter bypassed. *)
  let u = run_pass config ~qos:None ~sup:None ~orch:None in
  let n = config.q_tenants in
  let quant tid q = Obs.Metrics.quantile_of_samples p.p_samples.(tid) q in
  let worst_victim of_tid =
    let vs = List.filter_map of_tid (List.init (n - 1) (fun i -> i + 1)) in
    List.fold_left (fun acc v -> match acc with None -> Some v | Some a -> Some (Float.max a v)) None vs
  in
  let share tid =
    (* Worst resource: granted / requested, 1.0 when nothing was asked. *)
    List.fold_left
      (fun acc r ->
        let req = p.p_requested.(tid).(rix r) in
        if req = 0 then acc
        else Float.min acc (float_of_int (Qos.granted_credits qos ~tenant:tid ~resource:r) /. float_of_int req))
      1.0
      [ Qos.Bus; Qos.Dma; Qos.Accel ]
  in
  let outcomes =
    List.init n (fun tid ->
        let st = Qos.stats qos ~tenant:tid in
        {
          qt_tid = tid;
          qt_aggressor = tid = 0;
          qt_grants = st.Qos.grants;
          qt_throttles = st.Qos.throttles;
          qt_borrowed = st.Qos.borrowed_credits;
          qt_share = share tid;
          qt_p50 = quant tid 0.50;
          qt_p90 = quant tid 0.90;
          qt_p99 = quant tid 0.99;
          qt_samples = st.Qos.samples;
          qt_slo_violations = st.Qos.slo_violations;
          qt_quarantined = p.p_quarantined.(tid);
        })
  in
  let victims = List.filter (fun o -> not o.qt_aggressor) outcomes in
  let telemetry = Orchestrator.telemetry orch in
  {
    q_config = config;
    q_outcomes = outcomes;
    q_victim_p99 = worst_victim (fun tid -> quant tid 0.99);
    q_victim_p99_steady =
      worst_victim (fun tid -> Obs.Metrics.quantile_of_samples p.p_last_round.(tid) 0.99);
    q_unprotected_p99 =
      worst_victim (fun tid -> Obs.Metrics.quantile_of_samples u.p_samples.(tid) 0.99);
    q_share_min = List.fold_left (fun acc o -> Float.min acc o.qt_share) 1.0 victims;
    q_starved = List.length (List.filter (fun o -> o.qt_grants = 0) victims);
    q_aggressor_throttles = (List.hd outcomes).qt_throttles;
    q_quarantines = Telemetry.tenant_quarantines telemetry;
    q_readmissions = Telemetry.tenant_readmissions telemetry;
    q_slo_violations = Telemetry.slo_violations telemetry;
    q_lat_fairness =
      Obs.Fairness.latency_weighted_report
        (List.filter_map
           (fun o -> match o.qt_p99 with Some p99 -> Some (o.qt_tid, p99, 1.0) | None -> None)
           victims);
  }

let cycles_str = function None -> "-" | Some v -> Printf.sprintf "%.0fcyc" v

let summary r =
  let b = Buffer.create 2048 in
  let c = r.q_config in
  Printf.bprintf b
    "qos scenario: seed=%d nics=%d tenants=%d rounds=%d requests=%d factor=%d epoch=%d slo=%d starve=%b\n"
    c.q_seed nics c.q_tenants c.q_rounds c.q_requests c.q_factor epoch c.q_slo c.q_starve;
  List.iter
    (fun o ->
      Printf.bprintf b
        "  tenant %d%s: grants=%d throttles=%d borrowed=%d share=%.4f p50=%s p90=%s p99=%s slo-violations=%d/%d%s\n"
        o.qt_tid
        (if o.qt_aggressor then " (aggressor)" else "")
        o.qt_grants o.qt_throttles o.qt_borrowed o.qt_share (cycles_str o.qt_p50) (cycles_str o.qt_p90)
        (cycles_str o.qt_p99) o.qt_slo_violations o.qt_samples
        (if o.qt_quarantined then " QUARANTINED" else ""))
    r.q_outcomes;
  Printf.bprintf b "  victim p99: run=%s steady=%s unprotected=%s\n" (cycles_str r.q_victim_p99)
    (cycles_str r.q_victim_p99_steady) (cycles_str r.q_unprotected_p99);
  Printf.bprintf b "  healing: tenant-quarantines=%d tenant-readmissions=%d slo-violations=%d\n"
    r.q_quarantines r.q_readmissions r.q_slo_violations;
  Printf.bprintf b "  latency fairness (victims, jain over 1/p99):\n%s"
    (Obs.Fairness.summary r.q_lat_fairness);
  Printf.bprintf b "  invariants: starved_victims=%d share_min=%.4f aggressor_quarantined=%d\n" r.q_starved
    r.q_share_min
    (if (List.hd r.q_outcomes).qt_quarantined then 1 else 0);
  Buffer.contents b

let gates r =
  Obs.Gate.
    [
      { key = "share_min"; value = Some r.q_share_min; rule = At_least 0.9 };
      {
        key = "victim_p99_steady_cycles";
        value = r.q_victim_p99_steady;
        rule = At_most (float_of_int r.q_config.q_slo);
      };
      { key = "starved_victims"; value = int r.q_starved; rule = Equals 0. };
    ]
