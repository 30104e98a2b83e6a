open Nicsim

type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int;
  packets_per_round : int;
  intensity : float;
  flaky_stride : int;
  dram_flips_per_round : int;
  kill_nics : int;
  kill_nfs : int;
  bytes_per_mb : int;
  supervisor : Supervisor.config;
}

let default_config =
  {
    seed = 42;
    n_nics = 8;
    n_tenants = 24;
    policy = Policy.First_fit;
    rounds = 6;
    packets_per_round = 400;
    intensity = 3.0;
    flaky_stride = 3;
    dram_flips_per_round = 2;
    kill_nics = 1;
    kill_nfs = 2;
    bytes_per_mb = 1024;
    supervisor = Supervisor.default_config;
  }

(* Gray failures cluster in real racks: every [flaky_stride]-th NIC gets
   the full storm, the rest only a background drizzle — health scoring
   must tell them apart, quarantining the former without starving the
   fleet of the latter's capacity. *)
let background_scale = 0.05

type round_report = {
  index : int;
  traffic : Frontend.stats;
  failures : Failure.report option;
  unattested_running : int; (* captured at the round's quiesce point *)
  faults_so_far : int;
}

type report = {
  config : config;
  rounds : round_report list;
  settle_ticks : int;
  initial_attested : int;
  final_attested : int;
  final_unplaced : int;
  unattested_running : int;
  max_unattested_observed : int;
  scrub_failures : int;
  replacements : int;
  retries : int;
  quarantines : int;
  readmissions : int;
  watchdog_failovers : int;
  alarms : int;
  fault_counts : (string * int) list;
  total_faults : int;
  injection_log : string;
  recovery_ms : float list;
  recovery_p50 : float option;
  recovery_p90 : float option;
  recovery_p99 : float option;
  goodput : float;
  alive_nics : int;
  quarantined_nics : int;
}

(* Spread the failure budget over the gaps between rounds (same shape as
   Scenario): gap g of R-1 gets the g-th share. *)
let budget_for ~total ~gaps ~gap =
  if gaps <= 0 then if gap = 0 then total else 0
  else (total * (gap + 1) / gaps) - (total * gap / gaps)

let node_plan config node =
  let id = Node.id node in
  let intensity =
    if config.flaky_stride > 0 && id mod config.flaky_stride = config.flaky_stride - 1 then config.intensity
    else config.intensity *. background_scale
  in
  Faults.plan ~seed:(config.seed lxor (0x5EED * (id + 1))) (Faults.storm ~intensity ())

let total_fleet_faults orch =
  Array.fold_left
    (fun acc node ->
      match Machine.faults (Snic.Api.machine (Node.api node)) with
      | Some plan -> acc + Faults.total plan
      | None -> acc)
    0 (Orchestrator.nodes orch)

let dram_rot orch rng =
  let placed =
    Array.of_list
      (List.filter (fun (tn : Orchestrator.tenant) -> tn.Orchestrator.placement <> None)
         (Array.to_list (Orchestrator.tenants orch)))
  in
  if Array.length placed > 0 then begin
    let tn = placed.(Trace.Rng.int rng (Array.length placed)) in
    match tn.Orchestrator.placement with
    | None -> ()
    | Some p ->
      let node = p.Orchestrator.node in
      let handle = Snic.Vnic.handle p.Orchestrator.vnic in
      let off = Trace.Rng.int rng handle.Snic.Instructions.mem_len in
      let bit = Trace.Rng.int rng 8 in
      let machine = Snic.Api.machine (Node.api node) in
      Physmem.flip_bit (Machine.mem machine) ~pos:(handle.Snic.Instructions.mem_base + off) ~bit;
      (match Machine.faults machine with
      | Some plan ->
        ignore
          (Faults.record plan ~device:"dram" Faults.Dram_flip
             ~detail:
               (Printf.sprintf "tenant=%d pos=%#x bit=%d" tn.Orchestrator.tid
                  (handle.Snic.Instructions.mem_base + off) bit))
      | None -> ())
  end

let run_with ?(sink = Obs.null) ?(domains = 1) config =
  let orch =
    Orchestrator.create ~sink ~domains
      {
        Orchestrator.seed = config.seed;
        n_nics = config.n_nics;
        n_tenants = config.n_tenants;
        policy = config.policy;
        bytes_per_mb = config.bytes_per_mb;
      }
  in
  let initial_attested = Orchestrator.attested_count orch in
  (* The fleet boots clean; only then does the storm start. *)
  Array.iter
    (fun node -> Machine.set_faults (Snic.Api.machine (Node.api node)) (node_plan config node))
    (Orchestrator.nodes orch);
  let sup = Supervisor.create ~seed:config.seed orch config.supervisor in
  let chaos_rng = Trace.Rng.create ~seed:(config.seed lxor 0xC4A05) in
  let fail_rng = Trace.Rng.create ~seed:(config.seed lxor 0xDEAD) in
  let gaps = config.rounds - 1 in
  let rounds = ref [] in
  let fail_scrubs = ref 0 in
  let max_unatt = ref 0 in
  let injected_total = ref 0 and forwarded_total = ref 0 in
  for i = 0 to config.rounds - 1 do
    let traffic = Frontend.replay orch ~seed:(config.seed + (131 * i)) ~packets:config.packets_per_round () in
    injected_total := !injected_total + traffic.Frontend.injected;
    forwarded_total := !forwarded_total + traffic.Frontend.forwarded;
    for _ = 1 to config.dram_flips_per_round do
      dram_rot orch chaos_rng
    done;
    let failures =
      if i >= gaps then None
      else begin
        let kn = budget_for ~total:config.kill_nics ~gaps ~gap:i in
        let kf = budget_for ~total:config.kill_nfs ~gaps ~gap:i in
        if kn = 0 && kf = 0 then None
        else begin
          let r = Failure.inject orch fail_rng ~kill_nics:kn ~kill_nfs:kf in
          fail_scrubs := !fail_scrubs + r.Failure.scrub_failures;
          Some r
        end
      end
    in
    Supervisor.tick sup ~round:i;
    let unatt = Orchestrator.unattested_running orch in
    max_unatt := max !max_unatt unatt;
    rounds :=
      { index = i; traffic; failures; unattested_running = unatt; faults_so_far = total_fleet_faults orch }
      :: !rounds
  done;
  (* Settling: a bad final round can leave tenants stranded mid-backoff;
     keep ticking (bounded) until every recoverable tenant is home. *)
  let settle_ticks = ref 0 in
  while !settle_ticks < config.rounds && Orchestrator.unplaced_count orch > 0 do
    incr settle_ticks;
    Supervisor.tick sup ~round:(config.rounds - 1 + !settle_ticks);
    max_unatt := max !max_unatt (Orchestrator.unattested_running orch)
  done;
  let telemetry = Orchestrator.telemetry orch in
  let nodes = Orchestrator.nodes orch in
  let recovery_ms = Supervisor.recovery_samples_ms sup in
  let fault_counts =
    List.map
      (fun site ->
        ( Faults.site_name site,
          Array.fold_left
            (fun acc node ->
              match Machine.faults (Snic.Api.machine (Node.api node)) with
              | Some plan -> acc + Faults.count plan site
              | None -> acc)
            0 nodes ))
      Faults.all_sites
  in
  let injection_log =
    let buf = Buffer.create 4096 in
    Array.iter
      (fun node ->
        match Machine.faults (Snic.Api.machine (Node.api node)) with
        | Some plan when Faults.total plan > 0 ->
          Printf.bprintf buf "=== nic %d ===\n%s" (Node.id node) (Faults.log_to_string plan)
        | _ -> ())
      nodes;
    Buffer.contents buf
  in
  let report =
    {
      config;
      rounds = List.rev !rounds;
      settle_ticks = !settle_ticks;
      initial_attested;
      final_attested = Orchestrator.attested_count orch;
      final_unplaced = Orchestrator.unplaced_count orch;
      unattested_running = Orchestrator.unattested_running orch;
      max_unattested_observed = !max_unatt;
      scrub_failures = !fail_scrubs + Supervisor.scrub_failures sup;
      replacements = Telemetry.replacements telemetry;
      retries = Telemetry.retries telemetry;
      quarantines = Telemetry.quarantines telemetry;
      readmissions = Telemetry.readmissions telemetry;
      watchdog_failovers = Telemetry.watchdog_failovers telemetry;
      alarms = Supervisor.alarms sup;
      fault_counts;
      total_faults = total_fleet_faults orch;
      injection_log;
      recovery_ms;
      recovery_p50 = Supervisor.recovery_quantile_ms sup 0.50;
      recovery_p90 = Supervisor.recovery_quantile_ms sup 0.90;
      recovery_p99 = Supervisor.recovery_quantile_ms sup 0.99;
      goodput =
        (if !injected_total = 0 then 0. else float_of_int !forwarded_total /. float_of_int !injected_total);
      alive_nics = Array.fold_left (fun acc n -> if Node.alive n then acc + 1 else acc) 0 nodes;
      quarantined_nics = Array.fold_left (fun acc n -> if Node.quarantined n then acc + 1 else acc) 0 nodes;
    }
  in
  (report, orch)

let run ?domains config = fst (run_with ?domains config)

(* Sharded storms: shard i replays the identical scenario under its
   derived seed, on a private rack and optional private sink; the merge
   is by shard index, so the report array never depends on which domain
   finished first. *)
let run_many ?(domains = 1) ?(record = false) ~shards config =
  Par.Engine.map_seeded ~domains ~seed:config.seed ~shards (fun ~shard:_ ~seed ->
      let sink = if record then Obs.create () else Obs.null in
      let report, _orch = run_with ~sink { config with seed } in
      (report, sink))

(* ================= noisy-neighbor / starvation ==================== *)

(* The performance-isolation counterpart of the gray-failure storm:
   tenant 0 floods the rack's shared IO fabric (bus transactions, DMA
   bytes, accelerator cycles) while the other tenants run
   latency-sensitive traffic under an SLO.  The fabric is fronted by a
   Qos credit arbiter; the supervisor watches per-round SLO telemetry
   and quarantines the *aggressor tenant* when victim violations are
   sustained.  A second pass replays the identical workload with the
   arbiter bypassed, giving the unprotected baseline the report and
   bench compare against.  Fully deterministic: all issue times come
   from strides plus one seeded stream. *)

type qos_config = {
  q_seed : int;
  q_nics : int;
  q_tenants : int; (* tenant 0 is the aggressor; >= 2 *)
  q_rounds : int;
  q_requests : int; (* victim requests per tenant per round *)
  q_factor : int; (* aggressor load multiplier *)
  q_epoch : int; (* qos accounting epoch, cycles *)
  q_slo : int; (* victim latency SLO, cycles *)
  q_starve : bool; (* zero structural slack: guarantees only *)
  q_policy : Policy.t;
  q_bytes_per_mb : int;
  q_supervisor : Supervisor.config;
}

let default_qos_config =
  {
    q_seed = 42;
    q_nics = 4;
    q_tenants = 8;
    q_rounds = 8;
    q_requests = 40;
    q_factor = 8;
    q_epoch = 10_000;
    q_slo = 2_000;
    q_starve = false;
    q_policy = Policy.First_fit;
    q_bytes_per_mb = 1024;
    q_supervisor = Supervisor.default_config;
  }

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

type qos_tenant = {
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

type qos_report = {
  q_config : qos_config;
  q_outcomes : qos_tenant list;
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
  let round_cycles = config.q_epoch * epochs_per_round in
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
        let t = start + (e * config.q_epoch) + (j * 2) + Trace.Rng.int rng 2 in
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
    | Qos.Bus -> max config.q_epoch (total Qos.Bus)
    | Qos.Dma -> 2 * total Qos.Dma
    | Qos.Accel -> max (accel_threads * config.q_epoch / 2) (total Qos.Accel)
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
        Qos.epoch = config.q_epoch;
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
  let rix = function Qos.Bus -> 0 | Qos.Dma -> 1 | Qos.Accel -> 2 in
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

let run_qos ?(sink = Obs.null) config =
  if config.q_tenants < 2 then invalid_arg "Chaos.run_qos: need at least 2 tenants";
  if config.q_requests < epochs_per_round then invalid_arg "Chaos.run_qos: too few requests per round";
  (* Protected pass: fleet + arbiter + supervisor. *)
  let orch =
    Orchestrator.create ~sink
      {
        Orchestrator.seed = config.q_seed;
        n_nics = config.q_nics;
        n_tenants = config.q_tenants;
        policy = config.q_policy;
        bytes_per_mb = config.q_bytes_per_mb;
      }
  in
  let sup = Supervisor.create ~seed:config.q_seed orch config.q_supervisor in
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
        let req = p.p_requested.(tid).(match r with Qos.Bus -> 0 | Qos.Dma -> 1 | Qos.Accel -> 2) in
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
  let report =
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
  in
  (report, sup)

let cycles_str = function None -> "-" | Some v -> Printf.sprintf "%.0fcyc" v

let qos_summary r =
  let b = Buffer.create 2048 in
  let c = r.q_config in
  Printf.bprintf b
    "qos scenario: seed=%d nics=%d tenants=%d rounds=%d requests=%d factor=%d epoch=%d slo=%d starve=%b\n"
    c.q_seed c.q_nics c.q_tenants c.q_rounds c.q_requests c.q_factor c.q_epoch c.q_slo c.q_starve;
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

let qos_gates r =
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

(* "-" rather than a fabricated 0.00ms when there are too few samples
   for the quantile to mean anything. *)
let quantile_str = function None -> "-" | Some v -> Printf.sprintf "%.2fms" v

let summary r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "chaos scenario: seed=%d nics=%d tenants=%d policy=%s rounds=%d pkts/round=%d intensity=%.2f\n"
    r.config.seed r.config.n_nics r.config.n_tenants (Policy.name r.config.policy) r.config.rounds
    r.config.packets_per_round r.config.intensity;
  Printf.bprintf b "  boot: %d/%d tenants placed and attested (storm armed after boot)\n" r.initial_attested
    r.config.n_tenants;
  List.iter
    (fun round ->
      Printf.bprintf b "  round %d: injected=%d undeliverable=%d forwarded=%d dropped=%d faults=%d unattested=%d\n"
        round.index round.traffic.Frontend.injected round.traffic.Frontend.undeliverable
        round.traffic.Frontend.forwarded round.traffic.Frontend.dropped round.faults_so_far
        round.unattested_running;
      match round.failures with
      | None -> ()
      | Some f ->
        Printf.bprintf b "    fail-stop: nics=[%s] nf-tenants=[%s] displaced=%d replaced=%d stranded=%d\n"
          (String.concat ";" (List.map string_of_int f.Failure.nics_killed))
          (String.concat ";" (List.map string_of_int f.Failure.nfs_killed))
          f.Failure.displaced f.Failure.replaced f.Failure.stranded)
    r.rounds;
  Printf.bprintf b "  faults by site: %s (total=%d)\n"
    (String.concat " " (List.filter_map (fun (n, c) -> if c = 0 then None else Some (Printf.sprintf "%s=%d" n c)) r.fault_counts))
    r.total_faults;
  Printf.bprintf b "  healing: retries=%d quarantines=%d readmissions=%d watchdog-failovers=%d alarms=%d settle-ticks=%d\n"
    r.retries r.quarantines r.readmissions r.watchdog_failovers r.alarms r.settle_ticks;
  Printf.bprintf b "  recovery: samples=%d p50=%s p90=%s p99=%s goodput=%.4f\n"
    (List.length r.recovery_ms) (quantile_str r.recovery_p50) (quantile_str r.recovery_p90)
    (quantile_str r.recovery_p99) r.goodput;
  Printf.bprintf b "  end: attested=%d unplaced=%d replacements=%d nics alive=%d quarantined=%d\n" r.final_attested
    r.final_unplaced r.replacements r.alive_nics r.quarantined_nics;
  Printf.bprintf b "  invariants: unattested_running=%d scrub_failures=%d max_unattested_observed=%d\n"
    r.unattested_running r.scrub_failures r.max_unattested_observed;
  Buffer.contents b

let gates r =
  Obs.Gate.
    [
      { key = "unattested_running"; value = int r.unattested_running; rule = Equals 0. };
      { key = "scrub_failures"; value = int r.scrub_failures; rule = Equals 0. };
    ]

(* ------------------------------------------------------------------ *)
(* DDoS: CuckooGuard SYN-proxy pair under adversarial traffic          *)
(* ------------------------------------------------------------------ *)

type ddos_config = {
  d_seed : int;
  d_benign_flows : int;
  d_attack_factor : int; (* spoofed SYNs per benign packet *)
  d_packets_per_flow : int; (* benign data packets after the handshake *)
  d_fp_bits : int; (* whitelist fingerprint bits *)
  d_log2_buckets : int; (* whitelist size: 2^k buckets x 4 slots *)
  d_conntrack_entry_bytes : int; (* naive per-SYN state, unprotected pass *)
  d_corrupt_period : int; (* tampered modes: one filter bit flip per k attack pkts *)
  d_modes : Machine.mode list;
}

let ddos_modes =
  [
    Machine.Liquidio_se_s;
    Machine.Liquidio_se_um { nf_xkphys = true };
    Machine.Agilio;
    Machine.Bluefield;
    Machine.Snic;
  ]

let default_ddos_config =
  {
    d_seed = 42;
    d_benign_flows = 256;
    d_attack_factor = 10;
    d_packets_per_flow = 4;
    d_fp_bits = 12;
    d_log2_buckets = 10;
    d_conntrack_entry_bytes = 64;
    d_corrupt_period = 8;
    d_modes = ddos_modes;
  }

type ddos_mode_report = {
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

type ddos_report = {
  d_config : ddos_config;
  d_mode_reports : ddos_mode_report list;
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
let ddos_probe mode =
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

let ddos_events config =
  let rng = Trace.Rng.create ~seed:(config.d_seed lxor 0xDD05) in
  let evs = ref [] in
  Trace.Attackgen.syn_flood rng ~benign_flows:config.d_benign_flows ~attack_factor:config.d_attack_factor
    ~packets_per_flow:config.d_packets_per_flow ~f:(fun e -> evs := e :: !evs);
  List.rev !evs

(* Benign data payloads are lowercase-only so they can never collide
   with the proxy's "SYN" / "ACK:" payload conventions. *)
let ddos_packet ?payload (e : Trace.Attackgen.event) =
  let ft = e.Trace.Attackgen.flow in
  let payload =
    match payload with
    | Some p -> p
    | None ->
      let len = max 1 (Trace.Flowgen.payload_for_frame ~frame_size:e.Trace.Attackgen.size ~proto:Net.Packet.Tcp) in
      let h = Net.Five_tuple.hash ft in
      String.init len (fun i -> Char.chr (97 + ((h + i) mod 26)))
  in
  Net.Packet.make ~src_ip:ft.Net.Five_tuple.src_ip ~dst_ip:ft.Net.Five_tuple.dst_ip ~proto:Net.Packet.Tcp
    ~src_port:ft.Net.Five_tuple.src_port ~dst_port:ft.Net.Five_tuple.dst_port payload

type ddos_pass = {
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
   events (the goodput baseline).  [tampered] flips whitelist bits from
   the attacker's side channel; [key_stolen] lets the attacker forge
   valid cookie echoes for its spoofed flows. *)
let ddos_run_pass config ~sink ~events ~attack ~tampered ~key_stolen =
  let key = Crypto.Hmac.derive ~secret:(Printf.sprintf "ddos-%08x" config.d_seed) ~label:"synp-cookie" in
  let proxy =
    Nf.Syn_proxy.create ~filter_seed:(config.d_seed lxor 0xF17) ~fp_bits:config.d_fp_bits
      ~log2_buckets:config.d_log2_buckets ~key ()
  in
  let proxy_nf = Nf.Syn_proxy.nf proxy in
  let tracker =
    Nf.Cuckoo.nf_create ~seed:(config.d_seed lxor 0x7CF) ~fp_bits:config.d_fp_bits
      ~log2_buckets:config.d_log2_buckets ()
  in
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
        (* Per-kind payloads: benign clients follow the cookie protocol
           (echo the proxy's current-epoch cookie); an attacker without
           the key can only guess. *)
        let payload =
          match e.kind with
          | Trace.Attackgen.Syn -> Some Nf.Syn_proxy.syn_payload
          | Trace.Attackgen.Ack ->
            if e.benign then Some (Nf.Syn_proxy.ack_payload proxy e.flow)
            else Some (Nf.Syn_proxy.ack_prefix ^ "0000000000000000")
          | Trace.Attackgen.Data -> None
        in
        let v = feed (ddos_packet ?payload e) in
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
             let ack = ddos_packet e ~payload:(Nf.Syn_proxy.ack_payload proxy e.flow) in
             match feed ack with Nf.Types.Forward _ -> incr forged | Nf.Types.Drop _ -> ());
          if tampered && !attack_seen mod config.d_corrupt_period = 0 then begin
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
let ddos_run_unprotected config ~events ~budget_bytes =
  let entry = config.d_conntrack_entry_bytes in
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

let run_ddos ?(sink = Obs.null) config =
  if config.d_benign_flows < 1 then invalid_arg "Chaos.run_ddos: need at least 1 benign flow";
  if config.d_attack_factor < 1 then invalid_arg "Chaos.run_ddos: attack factor must be >= 1";
  if config.d_corrupt_period < 1 then invalid_arg "Chaos.run_ddos: corrupt period must be >= 1";
  if config.d_modes = [] then invalid_arg "Chaos.run_ddos: need at least one mode";
  let events = ddos_events config in
  let digest = Trace.Attackgen.digest (fun f -> List.iter f events) in
  let benign_pkts = List.length (List.filter (fun (e : Trace.Attackgen.event) -> e.benign) events) in
  let attack_pkts = List.length events - benign_pkts in
  let mode_reports =
    List.map
      (fun mode ->
        let tampered, key_stolen = ddos_probe mode in
        let base = ddos_run_pass config ~sink:Obs.null ~events ~attack:false ~tampered:false ~key_stolen:false in
        let prot = ddos_run_pass config ~sink ~events ~attack:true ~tampered ~key_stolen in
        let ugood, _udrop, upeak, uwanted =
          ddos_run_unprotected config ~events ~budget_bytes:prot.dp_reserved
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
      config.d_modes
  in
  let snic = List.find_opt (fun r -> r.dm_mode = Machine.Snic) mode_reports in
  {
    d_config = config;
    d_mode_reports = mode_reports;
    d_benign_pkts = benign_pkts;
    d_attack_pkts = attack_pkts;
    d_events_digest = digest;
    d_snic_goodput_ratio = (match snic with Some r -> r.dm_goodput_ratio | None -> 0.);
    d_snic_mem_flat = (match snic with Some r -> r.dm_mem_flat | None -> false);
    d_snic_tampered = (match snic with Some r -> r.dm_tampered | None -> true);
    d_snic_key_stolen = (match snic with Some r -> r.dm_key_stolen | None -> true);
  }

let ddos_summary r =
  let b = Buffer.create 4096 in
  let c = r.d_config in
  Printf.bprintf b
    "ddos scenario: seed=%d benign_flows=%d attack_factor=%d pkts/flow=%d filter=2^%d buckets fp=%d bits\n"
    c.d_seed c.d_benign_flows c.d_attack_factor c.d_packets_per_flow c.d_log2_buckets c.d_fp_bits;
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
  (match r.d_mode_reports with
  | m :: _ ->
    Printf.bprintf b "  unprotected conntrack: budget=%dB peak=%dB wanted=%dB (per-SYN state at %dB/entry)\n"
      m.dm_mem_reserved_bytes m.dm_unprotected_mem_peak_bytes m.dm_unprotected_mem_wanted_bytes
      c.d_conntrack_entry_bytes
  | [] -> ());
  Printf.bprintf b "  invariants: snic_goodput=%.4f snic_mem_flat=%d snic_tampered=%d snic_key_stolen=%d\n"
    r.d_snic_goodput_ratio
    (if r.d_snic_mem_flat then 1 else 0)
    (if r.d_snic_tampered then 1 else 0)
    (if r.d_snic_key_stolen then 1 else 0);
  Buffer.contents b

let ddos_gates r =
  Obs.Gate.
    [
      { key = "snic.goodput_ratio"; value = Some r.d_snic_goodput_ratio; rule = At_least 0.8 };
      { key = "snic.mem_flat"; value = flag r.d_snic_mem_flat; rule = Equals 1. };
      { key = "snic.tampered"; value = flag r.d_snic_tampered; rule = Equals 0. };
      { key = "snic.key_stolen"; value = flag r.d_snic_key_stolen; rule = Equals 0. };
    ]

(* ------------------------------------------------------------------ *)
(* Fabric: attested NIC-to-NIC channels carrying a cross-NIC NF chain  *)
(* ------------------------------------------------------------------ *)

type fabric_config = {
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

let default_fabric_config =
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

type fabric_report = {
  f_config : fabric_config;
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
let fabric_stage_config ~image : Snic.Instructions.launch_config =
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

(* Same recomputation a remote verifier does (and Orchestrator.place
   does for tenants): requested config + launch-assigned cores and RAM
   window.  A NIC OS that staged a different image cannot quote this. *)
let fabric_expected (cfg : Snic.Instructions.launch_config) (handle : Snic.Instructions.handle) =
  Snic.Measurement.of_config ~image:cfg.Snic.Instructions.image ~cores:handle.Snic.Instructions.cores
    ~mem_base:handle.Snic.Instructions.mem_base ~mem_len:handle.Snic.Instructions.mem_len
    ~rules:cfg.Snic.Instructions.rules ~accels:cfg.Snic.Instructions.accels
    ~rx_bytes:cfg.Snic.Instructions.rx_bytes ~tx_bytes:cfg.Snic.Instructions.tx_bytes
    ~sched:cfg.Snic.Instructions.sched

let fabric_place_stage node ~image =
  let cfg = fabric_stage_config ~image in
  match Snic.Api.nf_create_r (Node.api node) cfg with
  | Error e -> failwith (Printf.sprintf "fabric stage launch failed: %s" (Snic.Api.create_error_to_string e))
  | Ok vnic -> (vnic, fabric_expected cfg (Snic.Vnic.handle vnic))

let fabric_endpoint node vnic ~expected =
  Fabric.Endpoint.make
    ~alive:(fun () -> Node.alive node && not (Node.quarantined node))
    ~expected_measurement:expected ~nic:(Node.id node)
    ~insns:(Snic.Api.instructions (Node.api node))
    ~nf:(Snic.Vnic.id vnic) ()

(* The benign half of a seeded SYN-flood stream: same generator as the
   ddos scenario, so the handshake/data mix (and the digest idiom) match. *)
let fabric_events config =
  let rng = Trace.Rng.create ~seed:(config.f_seed lxor 0xFAB) in
  let evs = ref [] in
  Trace.Attackgen.syn_flood rng ~benign_flows:config.f_flows ~attack_factor:1
    ~packets_per_flow:config.f_packets_per_flow ~f:(fun e ->
      if e.Trace.Attackgen.benign then evs := e :: !evs);
  List.rev !evs

type fabric_pass = {
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
let fabric_run_pass config ~sink ~domains ~events ~kill ~adversary =
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
  let key = Crypto.Hmac.derive ~secret:(Printf.sprintf "fabric-%08x" config.f_seed) ~label:"synp-cookie" in
  let proxy =
    Nf.Syn_proxy.create ~filter_seed:(config.f_seed lxor 0xF17) ~fp_bits:config.f_fp_bits
      ~log2_buckets:config.f_log2_buckets ~key ()
  in
  let tracker = ref (Nf.Cuckoo.nf_create ~seed:(config.f_seed lxor 0x7CF) ~fp_bits:config.f_fp_bits
      ~log2_buckets:config.f_log2_buckets ())
  in
  let _vnic_a, expected_a = fabric_place_stage nodes.(0) ~image:"fabric:synp:stage-0" in
  let vnic_b, expected_b = fabric_place_stage nodes.(1) ~image:"fabric:ckf:stage-1" in
  let ep_a = fabric_endpoint nodes.(0) _vnic_a ~expected:expected_a in
  let ep_b = fabric_endpoint nodes.(1) vnic_b ~expected:expected_b in
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
    let vnic_c, expected_c = fabric_place_stage spare ~image:"fabric:ckf:stage-1" in
    let ep_c = fabric_endpoint spare vnic_c ~expected:expected_c in
    tracker := Nf.Cuckoo.nf_create ~seed:(config.f_seed lxor 0x7CF) ~fp_bits:config.f_fp_bits
        ~log2_buckets:config.f_log2_buckets ();
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
      let payload =
        match e.Trace.Attackgen.kind with
        | Trace.Attackgen.Syn -> Some Nf.Syn_proxy.syn_payload
        | Trace.Attackgen.Ack -> Some (Nf.Syn_proxy.ack_payload proxy e.Trace.Attackgen.flow)
        | Trace.Attackgen.Data -> None
      in
      match (e.Trace.Attackgen.kind, Fabric.Chain.feed chain (ddos_packet ?payload e)) with
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
let fabric_negative_probes config ~orch rng =
  let nodes = Orchestrator.nodes orch in
  let vendor_public = Snic.Identity.vendor_public (Orchestrator.vendor orch) in
  let registry = Fabric.Endpoint.registry_create () in
  let vnic_g, expected_g = fabric_place_stage nodes.(0) ~image:"fabric:probe:good" in
  let ep_good = fabric_endpoint nodes.(0) vnic_g ~expected:expected_g in
  let spare = nodes.(2) in
  (* The NIC OS staged [evil] but the verifier demands the measurement
     of [good]: the quote covers the staged image, so it cannot match. *)
  let cfg_evil = fabric_stage_config ~image:"fabric:probe:evil" in
  let misstage_rejected =
    match Snic.Api.nf_create_r (Node.api spare) cfg_evil with
    | Error _ -> false
    | Ok vnic ->
      let expected =
        fabric_expected { cfg_evil with Snic.Instructions.image = "fabric:probe:good" } (Snic.Vnic.handle vnic)
      in
      let ep_bad = fabric_endpoint spare vnic ~expected in
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

let run_fabric_with ?(sink = Obs.null) ?(domains = 1) config =
  if config.f_nics < 3 then invalid_arg "Chaos.run_fabric: need at least 3 NICs (two stages + a spare)";
  if config.f_flows < 1 then invalid_arg "Chaos.run_fabric: need at least 1 flow";
  if config.f_packets_per_flow < 1 then invalid_arg "Chaos.run_fabric: need at least 1 packet per flow";
  if config.f_window < 1 || config.f_window > 62 then
    invalid_arg "Chaos.run_fabric: window must be within 1..62";
  if config.f_buffer < 0 then invalid_arg "Chaos.run_fabric: negative replay buffer";
  if config.f_replay < 0 || config.f_reorder < 0 || config.f_tamper < 0 then
    invalid_arg "Chaos.run_fabric: adversarial counts must be >= 0";
  let events = fabric_events config in
  let digest = Trace.Attackgen.digest (fun f -> List.iter f events) in
  let base_orch, base =
    fabric_run_pass config ~sink:Obs.null ~domains ~events ~kill:false ~adversary:false
  in
  ignore base_orch;
  let orch, main = fabric_run_pass config ~sink ~domains ~events ~kill:config.f_kill ~adversary:true in
  let probe_rng = Random.State.make [| config.f_seed; 0xFAB9E |] in
  let misstage_rejected, clone_rejected = fabric_negative_probes config ~orch probe_rng in
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

let run_fabric ?sink config = run_fabric_with ?sink config

(* Sharded fabric storms, merged by shard index like [run_many]. *)
let run_fabric_many ?(domains = 1) ~shards config =
  Par.Engine.map_seeded ~domains ~seed:config.f_seed ~shards (fun ~shard:_ ~seed ->
      run_fabric_with { config with f_seed = seed })

let fabric_fail_closed r =
  r.f_misstage_rejected && r.f_clone_rejected && ((not r.f_config.f_kill) || r.f_dead_establish_refused)

let fabric_summary r =
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
    (flag (fabric_fail_closed r));
  Buffer.contents b

let fabric_gates r =
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
      { key = "fail_closed"; value = flag (fabric_fail_closed r); rule = Equals 1. };
    ]
    @ if r.f_config.f_kill then [ { key = "failed_over"; value = flag r.f_failed_over; rule = Equals 1. } ] else [])
