type report = {
  nics_requested : int;
  nfs_requested : int;
  nics_killed : int list;
  nfs_killed : int list;
  displaced : int;
  replaced : int;
  stranded : int;
  scrub_failures : int;
  in_flight_drained : int;
}

(* A dead NIC's RX rings still hold whatever the front-end batch-injected
   before the kill.  Pop every descriptor and recycle its buffer so the
   partial batch is accounted as tenant drops instead of silently
   vanishing — replays stay byte-identical because the drain order is the
   ring order. *)
let drain_in_flight telemetry (tn : Orchestrator.tenant) =
  match tn.Orchestrator.placement with
  | None -> 0
  | Some p ->
    let vnic = p.Orchestrator.vnic in
    let rec go n =
      match Snic.Vnic.rx vnic with
      | None -> n
      | Some (buffer, _len) ->
        Snic.Vnic.drop vnic ~buffer;
        go (n + 1)
    in
    let n = go 0 in
    let ts = Telemetry.tenant telemetry tn.Orchestrator.tid in
    ts.Telemetry.dropped <- ts.Telemetry.dropped + n;
    n

(* Budgets beyond the population clamp to "kill them all" (and negative
   budgets to nothing) — the report's requested-vs-killed fields record
   the clamping instead of the injector looping or raising. *)
let pick_distinct rng pool n =
  let pool = Array.copy pool in
  Trace.Rng.shuffle rng pool;
  Array.to_list (Array.sub pool 0 (min (max n 0) (Array.length pool)))

let inject orch rng ~kill_nics ~kill_nfs =
  let telemetry = Orchestrator.telemetry orch in
  let displaced = ref [] and scrub_failures = ref 0 and drained = ref 0 in
  (* NIC deaths first: they also decide which tenants are eligible for
     the orderly NF kills below. *)
  let alive_nodes = Array.of_list (List.filter Node.alive (Array.to_list (Orchestrator.nodes orch))) in
  let victims = pick_distinct rng alive_nodes kill_nics in
  List.iter
    (fun node ->
      Node.kill node;
      Telemetry.nic_kill telemetry;
      Array.iter
        (fun (tn : Orchestrator.tenant) ->
          match tn.Orchestrator.placement with
          | Some p when Node.id p.Orchestrator.node = Node.id node ->
            let ns = Telemetry.nic telemetry (Node.id node) in
            ns.Telemetry.lost <- ns.Telemetry.lost + 1;
            drained := !drained + drain_in_flight telemetry tn;
            Orchestrator.evict orch tn;
            displaced := tn :: !displaced
          | _ -> ())
        (Orchestrator.tenants orch))
    victims;
  let nics_killed = List.map Node.id victims in
  (* Orderly NF kills: real nf_destroy, scrub verified. *)
  let placed =
    Array.of_list
      (List.filter (fun (tn : Orchestrator.tenant) -> tn.Orchestrator.placement <> None)
         (Array.to_list (Orchestrator.tenants orch)))
  in
  let nf_victims = pick_distinct rng placed kill_nfs in
  List.iter
    (fun tn ->
      Telemetry.nf_kill telemetry;
      if not (Orchestrator.destroy_verified orch tn) then incr scrub_failures;
      displaced := tn :: !displaced)
    nf_victims;
  let nfs_killed = List.map (fun (tn : Orchestrator.tenant) -> tn.Orchestrator.tid) nf_victims in
  (* Recovery: re-place + re-attest, lowest tenant id first. *)
  let displaced = List.sort (fun a b -> compare a.Orchestrator.tid b.Orchestrator.tid) !displaced in
  let replaced = List.length (List.filter (fun tn -> Result.is_ok (Orchestrator.replace orch tn)) displaced) in
  {
    nics_requested = kill_nics;
    nfs_requested = kill_nfs;
    nics_killed;
    nfs_killed;
    displaced = List.length displaced;
    replaced;
    stranded = List.length displaced - replaced;
    scrub_failures = !scrub_failures;
    in_flight_drained = !drained;
  }
