type config = { seed : int; n_nics : int; n_tenants : int; policy : Policy.t }

type placement = { node : Node.t; vnic : Snic.Vnic.t; nf : Nf.Types.t }

type tenant = {
  tid : int;
  port : int;
  demand : Workload.demand;
  mutable placement : placement option;
  mutable attested : bool;
}

type t = {
  config : config;
  vendor : Snic.Identity.vendor;
  nodes : Node.t array;
  tenants : tenant array;
  telemetry : Telemetry.t;
  rng : Random.State.t; (* nonces + DH ephemerals for the handshakes *)
}

let nodes t = t.nodes
let tenants t = t.tenants
let telemetry t = t.telemetry
let vendor t = t.vendor

let tenant_port tid = 10000 + tid

let launch_config (tenant : tenant) : Snic.Instructions.launch_config =
  let d = tenant.demand in
  {
    Snic.Instructions.default_config with
    cores = [];
    image = Printf.sprintf "fleet:%s:tenant-%03d" (Workload.kind_name d.Workload.kind) tenant.tid;
    memory_bytes = d.Workload.mem_bytes;
    rules = [ { Nicsim.Pktio.match_any with dst_port = Some tenant.port } ];
    rx_bytes = 16 * 1024;
    tx_bytes = 16 * 1024;
    sched = Nicsim.Sched.Fifo;
    accels = d.Workload.accels;
  }

(* The tenant recomputes the measurement it *expects* from the config it
   requested plus the launch-assigned cores and RAM window the handle
   reports — exactly what a remote verifier would do (§4.6). A NIC OS
   that staged a different image or altered the rules produces a quote
   this rejects. *)
let expected_measurement (cfg : Snic.Instructions.launch_config) (handle : Snic.Instructions.handle) =
  Snic.Measurement.of_config ~image:cfg.Snic.Instructions.image ~cores:handle.Snic.Instructions.cores
    ~mem_base:handle.Snic.Instructions.mem_base ~mem_len:handle.Snic.Instructions.mem_len
    ~rules:cfg.Snic.Instructions.rules ~accels:cfg.Snic.Instructions.accels ~rx_bytes:cfg.Snic.Instructions.rx_bytes
    ~tx_bytes:cfg.Snic.Instructions.tx_bytes ~sched:cfg.Snic.Instructions.sched

let attest t node (vnic : Snic.Vnic.t) ~expected =
  let instr = Snic.Api.instructions (Node.api node) in
  match Snic.Attestation.attester_of_nf instr ~id:(Snic.Vnic.id vnic) with
  | Error e -> Error (Snic.Instructions.error_to_string e)
  | Ok attester -> (
    match
      Snic.Session.handshake t.rng
        ~vendor_public:(Snic.Identity.vendor_public t.vendor)
        ~expected_measurement:expected attester
    with
    | Ok _keys ->
      Telemetry.add_attest_ms t.telemetry Memprof.Instr_latency.attest_ms;
      Ok ()
    | Error e -> Error e)

type place_error =
  | No_capacity (* no alive, unquarantined NIC admits the demand — alarm *)
  | Create_failed of Snic.Api.create_error (* nf_create refused; Stage_fault is retryable *)
  | Attest_failed of string (* launched but rejected the quote; torn back down *)

let place_error_to_string = function
  | No_capacity -> "no NIC admits the demand"
  | Create_failed e -> Printf.sprintf "nf_create failed: %s" (Snic.Api.create_error_to_string e)
  | Attest_failed e -> Printf.sprintf "attestation failed: %s" e

let place t tenant =
  if tenant.placement <> None then Ok () (* already placed: placing again is a no-op *)
  else
    match Policy.choose t.config.policy t.nodes tenant.demand with
    | None ->
      Telemetry.placement_failure t.telemetry;
      Error No_capacity
    | Some node -> (
      let cfg = launch_config tenant in
      match Snic.Api.nf_create_r (Node.api node) cfg with
      | Error e ->
        Telemetry.placement_failure t.telemetry;
        Error (Create_failed e)
      | Ok vnic -> (
        Node.commit node tenant.demand;
        let expected = expected_measurement cfg (Snic.Vnic.handle vnic) in
        match attest t node vnic ~expected with
        | Ok () ->
          tenant.placement <- Some { node; vnic; nf = Workload.nf_instance tenant.demand.Workload.kind };
          tenant.attested <- true;
          (Telemetry.tenant t.telemetry tenant.tid).Telemetry.placements <-
            (Telemetry.tenant t.telemetry tenant.tid).Telemetry.placements + 1;
          (Telemetry.nic t.telemetry (Node.id node)).Telemetry.hosted <-
            (Telemetry.nic t.telemetry (Node.id node)).Telemetry.hosted + 1;
          Ok ()
        | Error e ->
          (* An unattestable function must not run: tear it straight back
             down and report the failure. *)
          (Telemetry.tenant t.telemetry tenant.tid).Telemetry.attest_failures <-
            (Telemetry.tenant t.telemetry tenant.tid).Telemetry.attest_failures + 1;
          (match Snic.Api.nf_destroy (Node.api node) ~id:(Snic.Vnic.id vnic) with _ -> ());
          Node.release node tenant.demand;
          Error (Attest_failed e)))

let replace t tenant =
  if tenant.placement <> None then Ok () (* already placed: nothing to replace *)
  else begin
    Telemetry.replacement t.telemetry;
    place t tenant
  end

let evict t tenant =
  (match tenant.placement with
  | None -> ()
  | Some p ->
    Node.release p.node tenant.demand;
    (Telemetry.tenant t.telemetry tenant.tid).Telemetry.evictions <-
      (Telemetry.tenant t.telemetry tenant.tid).Telemetry.evictions + 1);
  tenant.placement <- None;
  tenant.attested <- false

(* The one verified teardown: [nf_destroy] scrubs the function's RAM, and
   the control plane checks the scrub (RAM reads back zero) before it
   counts the teardown as verified.  A refused destroy counts as a failed
   scrub: the function's memory was not provably cleared. *)
let destroy_verified t tenant =
  match tenant.placement with
  | None -> true
  | Some p ->
    let api = Node.api p.node in
    let handle = Snic.Vnic.handle p.vnic in
    let scrubbed =
      match Snic.Api.nf_destroy api ~id:handle.Snic.Instructions.id with
      | Ok () ->
        Nicsim.Physmem.is_zero
          (Nicsim.Machine.mem (Snic.Api.machine api))
          ~pos:handle.Snic.Instructions.mem_base ~len:handle.Snic.Instructions.mem_len
      | Error _ -> false
    in
    if scrubbed then begin
      let ns = Telemetry.nic t.telemetry (Node.id p.node) in
      ns.Telemetry.scrubs_verified <- ns.Telemetry.scrubs_verified + 1
    end;
    evict t tenant;
    scrubbed

let create ?(sink = Obs.null) ?(domains = 1) config =
  let vendor = Snic.Identity.make_vendor ~seed:config.seed ~name:"Fleet Operator NIC Vendor" () in
  (* NIC boots are independent (each derives its identity from the seed
     and signs with the immutable vendor key), so they fan out across
     domains; everything that touches shared state — sink attachment,
     tenant placement — stays on the calling domain, after the join, in
     NIC order.  The booted rack is bit-identical for any [domains]. *)
  let nodes =
    Par.Engine.map ~domains ~shards:config.n_nics (fun ~shard:i ->
        Node.boot ~identity_seed:(config.seed + (7919 * (i + 1))) ~vendor ~id:i (Node.shape_of_index i))
  in
  Array.iteri
    (fun i node ->
      (* Each NIC records into the shared stream under its own pid. *)
      let nic_sink = Obs.for_process sink ~pid:i in
      Obs.name_process nic_sink ~pid:i (Printf.sprintf "nic%d" i);
      Nicsim.Machine.set_sink (Snic.Api.machine (Node.api node)) nic_sink)
    nodes;
  let tenants =
    Array.init config.n_tenants (fun i ->
        {
          tid = i;
          port = tenant_port i;
          demand = Workload.demand_of_kind (Workload.kind_of_index i);
          placement = None;
          attested = false;
        })
  in
  let t =
    {
      config;
      vendor;
      nodes;
      tenants;
      telemetry = Telemetry.create ?registry:(Obs.registry sink) ();
      rng = Random.State.make [| config.seed; 0xA77E57 |];
    }
  in
  Array.iter (fun tenant -> ignore (place t tenant)) tenants;
  t

let attested_count t =
  Array.fold_left (fun acc tn -> if tn.attested && tn.placement <> None then acc + 1 else acc) 0 t.tenants

let unplaced_count t = Array.fold_left (fun acc tn -> if tn.placement = None then acc + 1 else acc) 0 t.tenants

let live_nf_total t =
  Array.fold_left
    (fun acc node ->
      if Node.alive node then
        acc + List.length (Snic.Instructions.live_functions (Snic.Api.instructions (Node.api node)))
      else acc)
    0 t.nodes

let unattested_running t =
  (* Hardware's view vs the control plane's: every function live on an
     alive NIC must be an attested tenant placement. *)
  let attested = Hashtbl.create 64 in
  Array.iter
    (fun tn ->
      match tn.placement with
      | Some p when tn.attested -> Hashtbl.replace attested (Node.id p.node, Snic.Vnic.id p.vnic) ()
      | _ -> ())
    t.tenants;
  Array.fold_left
    (fun acc node ->
      if not (Node.alive node) then acc
      else
        List.fold_left
          (fun acc (h : Snic.Instructions.handle) ->
            if Hashtbl.mem attested (Node.id node, h.Snic.Instructions.id) then acc else acc + 1)
          acc
          (Snic.Instructions.live_functions (Snic.Api.instructions (Node.api node))))
    0 t.nodes
