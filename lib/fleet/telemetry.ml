type tenant_stats = {
  mutable placements : int;
  mutable attest_failures : int;
  mutable evictions : int;
  mutable received : int;
  mutable forwarded : int;
  mutable dropped : int;
  mutable faults : int;
}

type nic_stats = {
  mutable hosted : int;
  mutable lost : int;
  mutable scrubs_verified : int;
  mutable injected : int;
}

(* Fleet-wide counters live in a shared Obs.Metrics registry (the same
   one the trace sink uses when the run records a trace), so one
   Prometheus dump covers control-plane and device metrics.  Per-tenant
   and per-NIC stats stay as plain records: they are labelled series the
   CSV/JSON exporters own. *)
type t = {
  tenants : (int, tenant_stats) Hashtbl.t;
  nics : (int, nic_stats) Hashtbl.t;
  registry : Obs.Metrics.registry;
  placement_failures : Obs.Metrics.counter;
  replacements : Obs.Metrics.counter;
  nic_kills : Obs.Metrics.counter;
  nf_kills : Obs.Metrics.counter;
  attest_ms : Obs.Metrics.histogram;
  retries : Obs.Metrics.counter;
  quarantines : Obs.Metrics.counter;
  readmissions : Obs.Metrics.counter;
  watchdog_failovers : Obs.Metrics.counter;
  health_probes : Obs.Metrics.counter;
  probe_failures : Obs.Metrics.counter;
  tenant_quarantines : Obs.Metrics.counter;
  tenant_readmissions : Obs.Metrics.counter;
  slo_violations : Obs.Metrics.counter;
}

let create ?registry () =
  let reg = match registry with Some r -> r | None -> Obs.Metrics.create_registry () in
  let c name help = Obs.Metrics.counter ~help reg name in
  {
    tenants = Hashtbl.create 64;
    nics = Hashtbl.create 16;
    registry = reg;
    placement_failures = c "fleet_placement_failures_total" "placements that exhausted every NIC";
    replacements = c "fleet_replacements_total" "evicted tenants re-homed on another NIC";
    nic_kills = c "fleet_nic_kills_total" "whole-NIC failures injected";
    nf_kills = c "fleet_nf_kills_total" "single-NF failures injected";
    attest_ms =
      Obs.Metrics.histogram ~help:"modeled attestation latency per placement" reg "fleet_attest_ms";
    retries = c "fleet_retries_total" "placement retries burned by the supervisor";
    quarantines = c "fleet_quarantines_total" "circuit-breaker trips";
    readmissions = c "fleet_readmissions_total" "NICs readmitted on probation";
    watchdog_failovers = c "fleet_watchdog_failovers_total" "accelerator watchdog failovers";
    health_probes = c "fleet_health_probes_total" "active health probes issued";
    probe_failures = c "fleet_probe_failures_total" "active health probes that failed";
    tenant_quarantines = c "fleet_tenant_quarantines_total" "noisy tenants drained on sustained SLO violation";
    tenant_readmissions = c "fleet_tenant_readmissions_total" "quarantined tenants readmitted on probation";
    slo_violations = c "fleet_slo_violations_total" "per-round tenant SLO violations reported to the supervisor";
  }

let registry t = t.registry
let prometheus t = Obs.Metrics.prometheus t.registry

let tenant t id =
  match Hashtbl.find_opt t.tenants id with
  | Some s -> s
  | None ->
    let s = { placements = 0; attest_failures = 0; evictions = 0; received = 0; forwarded = 0; dropped = 0; faults = 0 } in
    Hashtbl.replace t.tenants id s;
    s

let nic t id =
  match Hashtbl.find_opt t.nics id with
  | Some s -> s
  | None ->
    let s = { hosted = 0; lost = 0; scrubs_verified = 0; injected = 0 } in
    Hashtbl.replace t.nics id s;
    s

let placement_failure t = Obs.Metrics.incr t.placement_failures
let replacement t = Obs.Metrics.incr t.replacements
let nic_kill t = Obs.Metrics.incr t.nic_kills
let nf_kill t = Obs.Metrics.incr t.nf_kills
let add_attest_ms t ms = Obs.Metrics.observe t.attest_ms ms
let retry t = Obs.Metrics.incr t.retries
let quarantine t = Obs.Metrics.incr t.quarantines
let readmission t = Obs.Metrics.incr t.readmissions
let watchdog_failover t = Obs.Metrics.incr t.watchdog_failovers
let health_probe t = Obs.Metrics.incr t.health_probes
let probe_failure t = Obs.Metrics.incr t.probe_failures
let tenant_quarantine t = Obs.Metrics.incr t.tenant_quarantines
let tenant_readmission t = Obs.Metrics.incr t.tenant_readmissions
let add_slo_violations t n = Obs.Metrics.add t.slo_violations n
let placement_failures t = Obs.Metrics.value t.placement_failures
let replacements t = Obs.Metrics.value t.replacements
let nic_kills t = Obs.Metrics.value t.nic_kills
let nf_kills t = Obs.Metrics.value t.nf_kills
let attest_ms_total t = Obs.Metrics.hist_sum t.attest_ms
let retries t = Obs.Metrics.value t.retries
let quarantines t = Obs.Metrics.value t.quarantines
let readmissions t = Obs.Metrics.value t.readmissions
let watchdog_failovers t = Obs.Metrics.value t.watchdog_failovers
let health_probes t = Obs.Metrics.value t.health_probes
let probe_failures t = Obs.Metrics.value t.probe_failures
let tenant_quarantines t = Obs.Metrics.value t.tenant_quarantines
let tenant_readmissions t = Obs.Metrics.value t.tenant_readmissions
let slo_violations t = Obs.Metrics.value t.slo_violations

let sum_tenants t f = Hashtbl.fold (fun _ s acc -> acc + f s) t.tenants 0
let total_attests t = sum_tenants t (fun s -> s.placements)

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let tenants_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "tenant,placements,attest_failures,evictions,received,forwarded,dropped,faults\n";
  List.iter
    (fun (id, s) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d\n" id s.placements s.attest_failures s.evictions s.received
           s.forwarded s.dropped s.faults))
    (sorted_bindings t.tenants);
  Buffer.contents buf

let nics_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "nic,hosted,lost,scrubs_verified,injected\n";
  List.iter
    (fun (id, s) ->
      Buffer.add_string buf (Printf.sprintf "%d,%d,%d,%d,%d\n" id s.hosted s.lost s.scrubs_verified s.injected))
    (sorted_bindings t.nics);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"fleet\": {\"placement_failures\": %d, \"replacements\": %d, \"nic_kills\": %d, \"nf_kills\": %d, \
        \"attest_ms\": %.3f, \"retries\": %d, \"quarantines\": %d, \"readmissions\": %d, \
        \"watchdog_failovers\": %d, \"health_probes\": %d, \"probe_failures\": %d},\n"
       (placement_failures t) (replacements t) (nic_kills t) (nf_kills t) (attest_ms_total t) (retries t)
       (quarantines t) (readmissions t) (watchdog_failovers t) (health_probes t) (probe_failures t));
  Buffer.add_string buf "  \"tenants\": [\n";
  let tenants = sorted_bindings t.tenants in
  List.iteri
    (fun i (id, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"tenant\": %d, \"placements\": %d, \"attest_failures\": %d, \"evictions\": %d, \"received\": %d, \
            \"forwarded\": %d, \"dropped\": %d, \"faults\": %d}%s\n"
           id s.placements s.attest_failures s.evictions s.received s.forwarded s.dropped s.faults
           (if i = List.length tenants - 1 then "" else ",")))
    tenants;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"nics\": [\n";
  let nics = sorted_bindings t.nics in
  List.iteri
    (fun i (id, s) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"nic\": %d, \"hosted\": %d, \"lost\": %d, \"scrubs_verified\": %d, \"injected\": %d}%s\n"
           id s.hosted s.lost s.scrubs_verified s.injected
           (if i = List.length nics - 1 then "" else ",")))
    nics;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
