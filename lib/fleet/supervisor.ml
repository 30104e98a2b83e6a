open Nicsim

type breaker = Closed | Open of { until_round : int } | Probation of { until_round : int }

(* The one circuit breaker, for a NIC or a tenant: its state and how
   often it has tripped. *)
type circuit = { mutable state : breaker; mutable trips : int }

let closed () = { state = Closed; trips = 0 }

(* A tripped breaker stays open [probation_rounds] rounds on its first
   trip, doubling per re-trip up to 16x; probation then lasts
   [probation_rounds] rounds. *)
let probation_rounds = 2

let open_circuit c ~round =
  c.state <- Open { until_round = round + (probation_rounds * (1 lsl min c.trips 4)) };
  c.trips <- c.trips + 1

(* Expire the current window: Open -> Probation ([true]: the caller
   readmits what it quarantined), Probation -> Closed. *)
let expire c ~round =
  match c.state with
  | Open { until_round } when round >= until_round ->
    c.state <- Probation { until_round = round + probation_rounds };
    true
  | Probation { until_round } when round >= until_round ->
    c.state <- Closed;
    false
  | Closed | Open _ | Probation _ -> false

type nic_state = { mutable score : int; nic_cb : circuit; mutable last_faults : int }

(* Per-tenant breaker, driven by SLO telemetry rather than device
   faults: [bad_rounds] counts consecutive rounds in which too many of
   the tenant's requests blew their SLO. *)
type tenant_state = { tenant_cb : circuit; mutable bad_rounds : int }

type t = {
  orch : Orchestrator.t;
  rng : Trace.Rng.t;
  nics : nic_state array;
  mutable clock : int; (* logical cycle clock, shared by probes and backoff *)
  evicted_at : (int, int) Hashtbl.t; (* tenant id -> clock when displaced *)
  mutable recovery_cycles : int list; (* newest first *)
  recovery_hist : Obs.Metrics.histogram; (* same samples, in the shared registry *)
  mutable alarms : int; (* No_capacity placements — retrying cannot help *)
  mutable scrub_failures : int;
  tenant_states : (int, tenant_state) Hashtbl.t; (* tenant id -> SLO breaker *)
}

let create ~seed orch =
  {
    orch;
    rng = Trace.Rng.create ~seed:(seed lxor 0x5AFE);
    nics =
      Array.map
        (fun _ -> { score = 100; nic_cb = closed (); last_faults = 0 })
        (Orchestrator.nodes orch);
    clock = 0;
    evicted_at = Hashtbl.create 64;
    recovery_cycles = [];
    recovery_hist =
      Obs.Metrics.histogram ~help:"tenant displacement-to-reattestation latency"
        (Telemetry.registry (Orchestrator.telemetry orch))
        "fleet_recovery_ms";
    alarms = 0;
    scrub_failures = 0;
    tenant_states = Hashtbl.create 64;
  }

let clock t = t.clock
let alarms t = t.alarms
let scrub_failures t = t.scrub_failures
let health t ~nic = t.nics.(nic).score
let breaker t ~nic = t.nics.(nic).nic_cb.state

let tenant_state t tid =
  match Hashtbl.find_opt t.tenant_states tid with
  | Some s -> s
  | None ->
    let s = { tenant_cb = closed (); bad_rounds = 0 } in
    Hashtbl.replace t.tenant_states tid s;
    s

let tenant_breaker t ~tenant = (tenant_state t tenant).tenant_cb.state
let tenant_quarantined t ~tenant =
  match tenant_breaker t ~tenant with Open _ -> true | Closed | Probation _ -> false

let cycles_per_ms = 1_200_000. (* 1.2 GHz cores *)
let recovery_samples_ms t = List.rev_map (fun c -> float_of_int c /. cycles_per_ms) t.recovery_cycles

(* The shared quantile convention (Metrics.quantile_of_samples): [None]
   until there are at least 2 samples — a single displacement has no
   p99, and the old code happily interpolated garbage out of it. *)
let recovery_quantile_ms t q = Obs.Metrics.quantile_of_samples (recovery_samples_ms t) q

(* Note the displacement time so the re-attestation that eventually
   lands can be turned into a recovery-latency sample. *)
let stamp_evicted t (tenant : Orchestrator.tenant) =
  if not (Hashtbl.mem t.evicted_at tenant.Orchestrator.tid) then
    Hashtbl.replace t.evicted_at tenant.Orchestrator.tid t.clock

let note_evict t tenant =
  stamp_evicted t tenant;
  Orchestrator.evict t.orch tenant

let note_recovered t (tenant : Orchestrator.tenant) =
  match Hashtbl.find_opt t.evicted_at tenant.Orchestrator.tid with
  | None -> ()
  | Some at ->
    let cycles = t.clock - at in
    t.recovery_cycles <- cycles :: t.recovery_cycles;
    Obs.Metrics.observe t.recovery_hist (float_of_int cycles /. cycles_per_ms);
    Hashtbl.remove t.evicted_at tenant.Orchestrator.tid

(* Bounded retry with exponential backoff + seeded jitter. Stage faults
   and attestation rejections are transient under gray failures — retry;
   No_capacity cannot improve by retrying — alarm and give up this tick. *)
let max_attempts = 6
let backoff_base = 50_000 (* cycles before the first retry *)
let backoff_cap = 5_000_000 (* ceiling on a single backoff step *)
let attest_cost = 600_000 (* cycles charged per successful stage + attest *)

let place_with_retry t tenant =
  let rec go attempt =
    match Orchestrator.replace t.orch tenant with
    | Ok () ->
      t.clock <- t.clock + attest_cost;
      note_recovered t tenant;
      Ok ()
    | Error Orchestrator.No_capacity ->
      t.alarms <- t.alarms + 1;
      Error Orchestrator.No_capacity
    | Error (Orchestrator.Create_failed (Snic.Api.Stage_fault _) | Orchestrator.Attest_failed _) as e ->
      if attempt >= max_attempts then (match e with Error err -> Error err | Ok () -> assert false)
      else begin
        Telemetry.retry (Orchestrator.telemetry t.orch);
        let backoff = min backoff_cap (backoff_base * (1 lsl (attempt - 1))) in
        let jitter = Trace.Rng.int t.rng (max 1 (backoff / 4)) in
        t.clock <- t.clock + backoff + jitter;
        go (attempt + 1)
      end
    | Error e -> Error e (* resource exhaustion / launch refusal: not transient *)
  in
  go 1

let scrub_cost = 120_000 (* cycles charged per verified teardown scrub *)

(* The orchestrator's verified teardown, plus what the supervisor keeps:
   the scrub's cost on the logical clock and the displacement time for
   the recovery sample. *)
let destroy_verified t tenant =
  if not (Orchestrator.destroy_verified t.orch tenant) then t.scrub_failures <- t.scrub_failures + 1;
  t.clock <- t.clock + scrub_cost;
  stamp_evicted t tenant

(* Trip a breaker and drain what it guards: every placement [guards]
   names has its NF destroyed (scrub verified) and its tenant evicted, so
   nothing keeps running under a quarantine. *)
let trip t c ~round ~guards =
  open_circuit c ~round;
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      match tn.Orchestrator.placement with Some p when guards tn p -> destroy_verified t tn | _ -> ())
    (Orchestrator.tenants t.orch)

(* ---- per-tenant SLO supervision --------------------------------- *)

type qos_round = { violations : int; samples : int; over_credits : int }

(* Half a round's requests blowing their SLO marks the round bad; two bad
   rounds in a row is "sustained", not a blip. *)
let slo_bad_share = 0.5
let slo_patience = 2

(* One SLO supervision pass: [stats] carries each tenant's round deltas
   (SLO violations, latency samples, credits consumed beyond its
   guarantee).  Sustained violation by any tenant is the health signal;
   the breaker then quarantines the *noisy* tenant — the one burning
   the most over-guarantee credit — not the NIC hosting the victim. *)
let note_qos t ~round stats =
  let tel = Orchestrator.telemetry t.orch in
  (* Breaker transitions first: quarantine windows expire into
     probation (re-place on readmission), probation expires closed. *)
  Hashtbl.iter
    (fun tid st ->
      if expire st.tenant_cb ~round then begin
        Telemetry.tenant_readmission tel;
        Array.iter
          (fun (tn : Orchestrator.tenant) ->
            if tn.Orchestrator.tid = tid && tn.Orchestrator.placement = None then
              ignore (place_with_retry t tn))
          (Orchestrator.tenants t.orch)
      end)
    t.tenant_states;
  (* Score the round. *)
  let sustained = ref false in
  List.iter
    (fun (tid, q) ->
      Telemetry.add_slo_violations tel q.violations;
      let st = tenant_state t tid in
      if not (tenant_quarantined t ~tenant:tid) then begin
        let bad =
          q.samples > 0 && float_of_int q.violations /. float_of_int q.samples > slo_bad_share
        in
        if bad then st.bad_rounds <- st.bad_rounds + 1 else st.bad_rounds <- 0;
        if st.bad_rounds >= slo_patience then sustained := true
      end)
    stats;
  (* Attribute and intervene: the noisy tenant is the top over-guarantee
     consumer this round (ties to the lowest id).  No over-user means
     nobody to blame — leave the breakers alone. *)
  if !sustained then begin
    let noisy =
      List.fold_left
        (fun acc (tid, q) ->
          if q.over_credits <= 0 || tenant_quarantined t ~tenant:tid then acc
          else
            match acc with
            | Some (_, best) when best >= q.over_credits -> acc
            | _ -> Some (tid, q.over_credits))
        None stats
    in
    match noisy with
    | Some (tid, _) ->
      (* Unlike a NIC trip, the hosting NICs stay in service: the health
         signal names a tenant, so the quarantine does too. *)
      Telemetry.tenant_quarantine tel;
      trip t (tenant_state t tid).tenant_cb ~round ~guards:(fun tn _ -> tn.Orchestrator.tid = tid);
      (* The intervention changes the contention picture; restart every
         streak so probation relapses are judged on fresh evidence. *)
      Hashtbl.iter (fun _ st -> st.bad_rounds <- 0) t.tenant_states
    | None -> ()
  end

(* Active health probes against live hardware: a bus heartbeat that must
   complete without a timeout, and a DMA loopback whose pattern must read
   back intact (catching both outright errors and silent corruption).
   Returns the score penalty. *)
let probe t node =
  let tel = Orchestrator.telemetry t.orch in
  let machine = Snic.Api.machine (Node.api node) in
  let penalty = ref 0 in
  Telemetry.health_probe tel;
  let bus_done = Bus.request (Machine.bus machine) ~client:0 ~now:t.clock ~cost:8 in
  if bus_done - t.clock >= Bus.timeout_penalty then begin
    Telemetry.probe_failure tel;
    penalty := !penalty + 20
  end;
  let dma = Machine.dma machine in
  let pattern = Printf.sprintf "health-probe-%08x" (t.clock land 0xFFFFFFFF) in
  let len = String.length pattern in
  (match Alloc.alloc (Machine.alloc machine) ~owner:Physmem.Nic_os len with
  | None -> () (* no scratch space: not a health signal *)
  | Some scratch ->
    let host = Dma.host_mem dma in
    Physmem.write_bytes host ~pos:4096 pattern;
    (match Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_nic ~nic_addr:scratch ~host_addr:4096 ~len with
    | Error _ ->
      Telemetry.probe_failure tel;
      penalty := !penalty + 20
    | Ok () ->
      if Physmem.read_bytes (Machine.mem machine) ~pos:scratch ~len <> pattern then begin
        Telemetry.probe_failure tel;
        penalty := !penalty + 20
      end);
    Alloc.free (Machine.alloc machine) scratch);
  !penalty

(* Watchdog: submit a tiny canary on each accelerator cluster a placed
   tenant owns; a completion past the budget means the engine is wedged
   (an injected hang lands ~1e9 cycles out), so the NF fails over —
   teardown releases the cluster and resets its threads.  The budget is
   far above any honest service time (a jumbo DPI request is ~100k
   cycles) and far below Accel.hang_horizon. *)
let watchdog_budget = 50_000_000

let watchdog t =
  let tel = Orchestrator.telemetry t.orch in
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      match tn.Orchestrator.placement with
      | None -> ()
      | Some p -> (
        let node = p.Orchestrator.node in
        if Node.alive node then
          let handle = Snic.Vnic.handle p.Orchestrator.vnic in
          match handle.Snic.Instructions.clusters with
          | [] -> ()
          | (kind, cluster) :: _ ->
            let a = Machine.accel (Snic.Api.machine (Node.api node)) kind in
            let done_at = Accel.submit a ~cluster ~now:t.clock ~bytes:64 in
            ignore (Accel.take_garbage a);
            if done_at - t.clock > watchdog_budget then begin
              Telemetry.watchdog_failover tel;
              destroy_verified t tn;
              ignore (place_with_retry t tn)
            end))
    (Orchestrator.tenants t.orch)

let round_quantum = 1_000_000
let health_floor = 40 (* a NIC's breaker trips when its score sinks below *)
let fault_penalty = 7 (* score lost per device fault since the last tick *)
let recovery_bonus = 15 (* score regained per tick *)

let tick t ~round =
  t.clock <- t.clock + round_quantum;
  let tel = Orchestrator.telemetry t.orch in
  Array.iteri
    (fun i node ->
      let st = t.nics.(i) in
      if Node.alive node then begin
        (* Passive signal: device faults logged since the last tick. *)
        let total =
          match Machine.faults (Snic.Api.machine (Node.api node)) with Some plan -> Faults.total plan | None -> 0
        in
        let fresh = total - st.last_faults in
        st.last_faults <- total;
        let penalty = (fresh * fault_penalty) + probe t node in
        st.score <- max 0 (min 100 (st.score + recovery_bonus - penalty));
        match st.nic_cb.state with
        | (Closed | Probation _) when st.score < health_floor ->
          (* Quarantine the NIC and drain it in an orderly fashion, so
             nothing keeps running on a NIC the control plane no longer
             trusts; the stranded-tenant pass re-places its tenants. *)
          Node.quarantine node;
          Telemetry.quarantine tel;
          trip t st.nic_cb ~round ~guards:(fun _ p -> Node.id p.Orchestrator.node = Node.id node)
        | Closed | Open _ | Probation _ ->
          if expire st.nic_cb ~round then begin
            Node.unquarantine node;
            (* Readmit with a clean slate — probation re-trips on the
               first sign of relapse anyway. *)
            st.score <- max st.score health_floor;
            Telemetry.readmission tel
          end
      end)
    (Orchestrator.nodes t.orch);
  watchdog t;
  (* Re-place every stranded tenant (bounded retry each) — except the
     quarantined ones, which stay drained until their window expires. *)
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      if tn.Orchestrator.placement = None && not (tenant_quarantined t ~tenant:tn.Orchestrator.tid)
      then ignore (place_with_retry t tn))
    (Orchestrator.tenants t.orch)
