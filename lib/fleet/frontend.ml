type stats = { injected : int; undeliverable : int; forwarded : int; dropped : int }

let drain orch (tenant : Orchestrator.tenant) ~max =
  match tenant.Orchestrator.placement with
  | None -> (0, 0, 0)
  | Some p ->
    let rs = Snic.Vnic.process p.Orchestrator.vnic p.Orchestrator.nf ~max in
    let ts = Telemetry.tenant (Orchestrator.telemetry orch) tenant.Orchestrator.tid in
    ts.Telemetry.received <- ts.Telemetry.received + rs.Snic.Vnic.received;
    ts.Telemetry.forwarded <- ts.Telemetry.forwarded + rs.Snic.Vnic.forwarded;
    ts.Telemetry.dropped <- ts.Telemetry.dropped + rs.Snic.Vnic.dropped;
    ts.Telemetry.faults <- ts.Telemetry.faults + rs.Snic.Vnic.faults;
    (rs.Snic.Vnic.received, rs.Snic.Vnic.forwarded, rs.Snic.Vnic.dropped)

(* Frames injected between drain points, and flows in the trace. *)
let batch = 32
let n_flows = 512

let replay orch ~seed ~packets () =
  let trace = Trace.Tracegen.ictf_like ~n_flows ~seed ~packets () in
  let tenants = Orchestrator.tenants orch in
  let n_tenants = Array.length tenants in
  let telemetry = Orchestrator.telemetry orch in
  let nodes = Orchestrator.nodes orch in
  let injected = ref 0 and undeliverable = ref 0 and forwarded = ref 0 and dropped = ref 0 in
  let rng = Trace.Rng.create ~seed:(seed lxor 0xF00D) in
  (* Batched ingress: frames are serialized at event time (so the RNG
     draw order is exactly the per-packet path's) and buffered per node,
     then pushed through one [Snic.Api.inject_batch] per NIC right
     before each drain point.  Per-node frame order is event order, and
     NICs are independent machines, so stats and per-tenant outcomes are
     byte-identical to injecting one packet at a time. *)
  let pending = Array.make (Array.length nodes) [] (* reversed *) in
  let flush () =
    Array.iteri
      (fun nid frames ->
        if frames <> [] then begin
          pending.(nid) <- [];
          let queued, rejected = Snic.Api.inject_batch (Node.api nodes.(nid)) (List.rev frames) in
          injected := !injected + queued;
          dropped := !dropped + rejected;
          let ns = Telemetry.nic telemetry nid in
          ns.Telemetry.injected <- ns.Telemetry.injected + queued
        end)
      pending
  in
  let drain_all () =
    Array.iter
      (fun tn ->
        let _, f, d = drain orch tn ~max:batch in
        forwarded := !forwarded + f;
        dropped := !dropped + d)
      tenants
  in
  Array.iteri
    (fun i (ev : Trace.Tracegen.event) ->
      let flow = trace.Trace.Tracegen.flows.(ev.Trace.Tracegen.flow) in
      let tenant = tenants.(Net.Five_tuple.hash flow mod n_tenants) in
      match tenant.Orchestrator.placement with
      | None -> incr undeliverable
      | Some p ->
        (* Front-end steering: rewrite the destination port so the NIC's
           switch rule for this tenant matches. *)
        let payload_len =
          max 0 (Trace.Flowgen.payload_for_frame ~frame_size:ev.Trace.Tracegen.size ~proto:Net.Packet.Udp)
        in
        let pkt = Trace.Flowgen.packet_of_flow ~payload_len rng flow in
        let pkt = { pkt with Net.Packet.dst_port = tenant.Orchestrator.port } in
        let nid = Node.id p.Orchestrator.node in
        pending.(nid) <- Net.Packet.serialize pkt :: pending.(nid);
        (* Drain the tenants' pipelines every [batch] injections so the
           small per-NF buffer pools keep recycling; the flush lands the
           buffered frames first so the drain sees the same machine
           state as the unbatched path did. *)
        if (i + 1) mod batch = 0 then begin
          flush ();
          drain_all ()
        end)
    trace.Trace.Tracegen.events;
  flush ();
  (* Final drain until every pipeline is empty. *)
  Array.iter
    (fun tn ->
      let rec go () =
        let r, f, d = drain orch tn ~max:batch in
        forwarded := !forwarded + f;
        dropped := !dropped + d;
        if r > 0 then go ()
      in
      go ())
    tenants;
  { injected = !injected; undeliverable = !undeliverable; forwarded = !forwarded; dropped = !dropped }
