(* SR-IOV-style virtual functions over one machine.

   OS4C virtualizes Corundum into 252 VFs behind a two-stage weighted
   transmit scheduler; this is that shape on the simulated NIC.  Each VF
   is (tenant NF, weight, TX/RX descriptor queues, one page of MMIO
   doorbell/ring window).  The window page goes through [Alloc], so on
   S-NIC it is single-owner tenant RAM and the machine's own access
   checks police every doorbell ring and ring read — VF multiplexing
   adds no new policy code, and therefore no new ways to leak.

   Strict per-VF accounting: the TX quota is charged per VF and the
   stage-1 scheduler keeps one backlog per VF, so one tenant's burst can
   fill only its own descriptors — never another VF's. *)

open Nicsim

type config = {
  vfs : int; (* VF slots in the table *)
  quantum : int; (* stage-1 byte quantum per weight unit *)
  tx_quota : int; (* max queued TX descriptors per VF *)
  rx_quota : int; (* max queued RX descriptors per VF *)
}

let default_config = { vfs = 256; quantum = 1024; tx_quota = 128; rx_quota = 64 }

(* Stage 2's per-flow DRR quantum, in bytes. *)
let inner_quantum = 1024

type desc = { flow : int; bytes : int }

type slot = {
  mutable nf : int;
  mutable weight : int;
  mutable base : int;
  mutable live : bool;
  mutable inflight : int; (* TX descriptors currently queued *)
  mutable tx_bytes : int;
  mutable tx_pkts : int;
  mutable tx_drops : int;
  mutable doorbells : int;
  mutable last_doorbell : int;
  rx : desc Queue.t;
  mutable rx_drops : int;
}

type t = {
  machine : Machine.t;
  config : config;
  slots : slot array;
  hier : desc Sched.Hier.t;
  mutable attached : int;
  mutable scheduled : int;
  mutable sink : Obs.sink;
  mutable track : int;
}

(* Machine track map ends at pktio = 910; the VF layer is the next unit. *)
let track_vf = 920

let create machine config =
  if config.vfs < 1 then invalid_arg "Vf.Table.create: vfs must be >= 1";
  if config.tx_quota < 1 || config.rx_quota < 1 then
    invalid_arg "Vf.Table.create: quotas must be >= 1";
  {
    machine;
    config;
    slots =
      Array.init config.vfs (fun _ ->
          {
            nf = -1;
            weight = 1;
            base = 0;
            live = false;
            inflight = 0;
            tx_bytes = 0;
            tx_pkts = 0;
            tx_drops = 0;
            doorbells = 0;
            last_doorbell = 0;
            rx = Queue.create ();
            rx_drops = 0;
          });
    hier = Sched.Hier.create ~inner:(Sched.Drr { quantum = inner_quantum }) ~quantum:config.quantum ();
    attached = 0;
    scheduled = 0;
    sink = Obs.null;
    track = track_vf;
  }

let config t = t.config
let machine t = t.machine

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track;
  Sched.Hier.set_sink t.hier sink ~track

let check_vf t vf name =
  if vf < 0 || vf >= t.config.vfs then
    invalid_arg (Printf.sprintf "Vf.Table.%s: vf %d out of range (table has %d)" name vf t.config.vfs)

let attached t ~vf =
  check_vf t vf "attached";
  t.slots.(vf).live

let attached_count t = t.attached

let owner_nf t ~vf =
  check_vf t vf "owner_nf";
  let s = t.slots.(vf) in
  if s.live then Some s.nf else None

let weight t ~vf =
  check_vf t vf "weight";
  let s = t.slots.(vf) in
  if s.live then Some s.weight else None

let window_base t ~vf =
  check_vf t vf "window_base";
  let s = t.slots.(vf) in
  if s.live then Some s.base else None

(* The doorbell register (u64) sits at window offset 0; the rest of the
   page is the descriptor-ring window, filled with a recognizable per-VF
   pattern so the oracle can predict every ring read byte-for-byte. *)
let window_pattern ~vf =
  String.init Physmem.page_size (fun i ->
      if i < 8 then '\000' else Char.chr (0x41 + ((i + (vf * 11)) mod 26)))

let attach t ~vf ~nf ~weight =
  check_vf t vf "attach";
  if weight < 1 then invalid_arg "Vf.Table.attach: weight must be >= 1";
  let s = t.slots.(vf) in
  if s.live then Error (Printf.sprintf "vf %d already attached" vf)
  else begin
    (* On S-NIC the window page is the tenant's own single-owner RAM; on
       commodity NICs it is NIC-OS BAR space (BlueField additionally
       marks it secure-world, like its accelerator MMIO pages). *)
    let owner =
      match Machine.mode t.machine with Machine.Snic -> Physmem.Nf nf | _ -> Physmem.Nic_os
    in
    match Alloc.alloc (Machine.alloc t.machine) ~align:Physmem.page_size ~owner Physmem.page_size with
    | None -> Error "out of NIC memory for the VF window"
    | Some base ->
      Physmem.write_bytes (Machine.mem t.machine) ~pos:base (window_pattern ~vf);
      if Machine.mode t.machine = Machine.Bluefield then
        Machine.set_secure t.machine ~pos:base ~len:Physmem.page_size true;
      s.nf <- nf;
      s.weight <- weight;
      s.base <- base;
      s.live <- true;
      s.inflight <- 0;
      s.tx_bytes <- 0;
      s.tx_pkts <- 0;
      s.tx_drops <- 0;
      s.doorbells <- 0;
      s.last_doorbell <- 0;
      Queue.clear s.rx;
      s.rx_drops <- 0;
      Sched.Hier.set_class t.hier ~cls:vf ~weight;
      t.attached <- t.attached + 1;
      Ok base
  end

let detach t ~vf =
  check_vf t vf "detach";
  let s = t.slots.(vf) in
  if s.live then begin
    (* Queued descriptors die with the VF — they were charged to this
       VF's quota alone, so nothing else needs rebalancing. *)
    ignore (Sched.Hier.remove_class t.hier ~cls:vf : desc list);
    s.inflight <- 0;
    Queue.clear s.rx;
    (match Machine.mode t.machine with
    | Machine.Snic ->
      (* Single-owner RAM: scrub before the page returns to the pool. *)
      Physmem.zero_range (Machine.mem t.machine) ~pos:s.base ~len:Physmem.page_size
    | Machine.Bluefield -> Machine.set_secure t.machine ~pos:s.base ~len:Physmem.page_size false
    | _ -> ());
    Alloc.free (Machine.alloc t.machine) s.base;
    s.live <- false;
    s.nf <- -1;
    t.attached <- t.attached - 1
  end

let doorbell t ~principal ~vf ~value =
  check_vf t vf "doorbell";
  let s = t.slots.(vf) in
  if not s.live then invalid_arg "Vf.Table.doorbell: vf not attached";
  match Machine.store_u64 t.machine principal (Machine.Phys s.base) value with
  | Ok () ->
    s.doorbells <- s.doorbells + 1;
    s.last_doorbell <- value;
    Obs.count t.sink Obs.Vf_doorbell;
    Ok ()
  | Error f -> Error f

let queue_read t ~principal ~vf ~len =
  check_vf t vf "queue_read";
  let s = t.slots.(vf) in
  if not s.live then invalid_arg "Vf.Table.queue_read: vf not attached";
  let len = max 1 (min len (Physmem.page_size - 8)) in
  Machine.load_bytes t.machine principal (Machine.Phys (s.base + 8)) ~len

let tx_submit t ~vf ~flow ~bytes =
  check_vf t vf "tx_submit";
  let s = t.slots.(vf) in
  if not s.live then false
  else if s.inflight >= t.config.tx_quota then begin
    s.tx_drops <- s.tx_drops + 1;
    Obs.count t.sink Obs.Vf_drop;
    false
  end
  else begin
    Sched.Hier.enqueue t.hier ~cls:vf { Sched.flow; bytes; level = 0; weight = 1 } { flow; bytes };
    s.inflight <- s.inflight + 1;
    true
  end

let tx_next t =
  match Sched.Hier.dequeue t.hier with
  | None -> None
  | Some (vf, d) ->
    let s = t.slots.(vf) in
    s.inflight <- s.inflight - 1;
    s.tx_bytes <- s.tx_bytes + d.bytes;
    s.tx_pkts <- s.tx_pkts + 1;
    t.scheduled <- t.scheduled + 1;
    Obs.count t.sink Obs.Vf_tx;
    Some (vf, d)

let tx_backlog t ~vf =
  check_vf t vf "tx_backlog";
  t.slots.(vf).inflight

let rx_push t ~vf d =
  check_vf t vf "rx_push";
  let s = t.slots.(vf) in
  if not s.live then false
  else if Queue.length s.rx >= t.config.rx_quota then begin
    s.rx_drops <- s.rx_drops + 1;
    Obs.count t.sink Obs.Vf_drop;
    false
  end
  else begin
    Queue.push d s.rx;
    Obs.count t.sink Obs.Vf_rx;
    true
  end

let rx_pop t ~vf =
  check_vf t vf "rx_pop";
  let s = t.slots.(vf) in
  if s.live && not (Queue.is_empty s.rx) then Some (Queue.pop s.rx) else None

let rx_depth t ~vf =
  check_vf t vf "rx_depth";
  Queue.length t.slots.(vf).rx

type stats = {
  tx_bytes : int;
  tx_pkts : int;
  tx_drops : int;
  rx_drops : int;
  doorbells : int;
  last_doorbell : int;
}

let stats t ~vf =
  check_vf t vf "stats";
  let s = t.slots.(vf) in
  {
    tx_bytes = s.tx_bytes;
    tx_pkts = s.tx_pkts;
    tx_drops = s.tx_drops;
    rx_drops = s.rx_drops;
    doorbells = s.doorbells;
    last_doorbell = s.last_doorbell;
  }

let scheduled t = t.scheduled
let rounds t = Sched.Hier.rounds t.hier

let goodput t =
  let acc = ref [] in
  for vf = t.config.vfs - 1 downto 0 do
    let s = t.slots.(vf) in
    if s.live then acc := (vf, s.weight, s.tx_bytes) :: !acc
  done;
  !acc

let fairness t =
  Obs.Fairness.weighted_report
    (List.map (fun (vf, w, b) -> (vf, float_of_int b, float_of_int w)) (goodput t))
