open Nicsim

(* Fixed geometry: slot i owns core i (and DMA bank i), a 256 KB-spaced
   16 KB host DMA window, and UDP port 7000+i for its switch rule. *)
let vbase_const = 0x10000000
let hwin_len = 16 * 1024
let hwin_base slot = 0x100000 + (slot * 0x40000)
let port_of slot = 7000 + slot

type tenant = {
  nf : int;
  base : int;
  len : int;
  vbase : int;
  shadow : Bytes.t; (* mirrors [base, base+len) *)
  cluster : int option; (* claimed DPI cluster *)
  hshadow : Bytes.t; (* mirrors the host window *)
  has_rules : bool;
}

type ghost = { g_nf : int; g_base : int; g_len : int }
type slot_state = Empty | Live of tenant | Ghost of ghost

type t = {
  mode : Machine.mode;
  machine : Machine.t;
  insns : Snic.Instructions.t option; (* Some iff mode = Snic *)
  vendor_public : Crypto.Rsa.public option; (* Some iff mode = Snic *)
  chan_rng : Random.State.t; (* handshake nonces/ephemerals, seeded *)
  chans : (Fabric.Channel.tx * Fabric.Channel.rx) option array; (* per slot *)
  chan_last : string option array; (* last wire frame, for replay probes *)
  mutable chan_next : int; (* channel id allocator *)
  vft : Vf.Table.t; (* one VF slot per tenant slot *)
  qos : Qos.t; (* credit arbiter, one registration per slot *)
  q_spent : int array array; (* reference: slot x resource spend this epoch *)
  mutable q_epoch : int;
  slot_count : int;
  states : slot_state array;
  mutable next_nf : int; (* commodity NF id counter *)
  mutable launches : int; (* varies each launch's secret *)
  mutable step_no : int;
  mutable executed : int;
  mutable skipped : int;
  mutable violations : Refmodel.violation list; (* newest first *)
}

(* The harness pins the arbiter to its degenerate corner: guarantee =
   cap (no borrowing) and capacity = sum of guarantees (no structural
   slack), so the reference model is flat — one per-slot per-epoch
   spend counter, grant iff [spent + cost <= qos_guarantee].  Time is
   the step index, one cycle per op. *)
let qos_guarantee = 64
let qos_epoch_cycles = 256

let create ~mode ~slots =
  if slots < 1 || slots > 8 then invalid_arg "Harness.create: slots must be in 1..8";
  let machine, insns, vendor_public =
    match mode with
    | Machine.Snic ->
      let api = Snic.Api.boot () in
      ( Snic.Api.machine api,
        Some (Snic.Api.instructions api),
        Some (Snic.Identity.vendor_public (Snic.Api.vendor api)) )
    | _ -> (Machine.create (Machine.default_config ~mode), None, None)
  in
  let qos =
    Qos.create
      {
        Qos.epoch = qos_epoch_cycles;
        bus_capacity = slots * qos_guarantee;
        dma_capacity = slots * qos_guarantee;
        accel_capacity = slots * qos_guarantee;
      }
  in
  for s = 0 to slots - 1 do
    Qos.register qos ~tenant:s (Qos.flat ~guarantee:qos_guarantee ~cap:qos_guarantee ())
  done;
  {
    mode;
    machine;
    insns;
    vendor_public;
    chan_rng = Random.State.make [| 0xFAB; slots |];
    chans = Array.make slots None;
    chan_last = Array.make slots None;
    chan_next = 0;
    vft = Vf.Table.create machine { Vf.Table.default_config with Vf.Table.vfs = slots };
    qos;
    q_spent = Array.make_matrix slots 3 0;
    q_epoch = 0;
    slot_count = slots;
    states = Array.make slots Empty;
    next_nf = 0;
    launches = 0;
    step_no = 0;
    executed = 0;
    skipped = 0;
    violations = [];
  }

let mode t = t.mode
let slots t = t.slot_count
let executed t = t.executed
let skipped t = t.skipped
let violations t = List.rev t.violations

let flag t idx op cls detail = t.violations <- { Refmodel.step = idx; op; cls; detail } :: t.violations

let dpi t = Machine.accel t.machine Accel.Dpi

(* Model-side free DPI clusters: total minus live claims. *)
let model_free_clusters t =
  let claimed =
    Array.fold_left (fun n s -> match s with Live { cluster = Some _; _ } -> n + 1 | _ -> n) 0 t.states
  in
  Accel.cluster_count (dpi t) - claimed

(* Recognizable, never-zero per-launch fill patterns. *)
let secret t ~slot ~len =
  let g = t.launches in
  String.init len (fun i -> Char.chr (0x41 + ((i + (slot * 7) + (g * 13)) mod 26)))

let host_pattern t ~slot =
  let g = t.launches in
  String.init hwin_len (fun i -> Char.chr (0x61 + ((i + slot + (g * 5)) mod 26)))

(* Keep a randomly drawn offset inside [0, len - alen]. *)
let clamp ~len ~alen off = if len <= alen then 0 else off mod (len - alen + 1)

let overlaps a alen b blen = a < b + blen && b < a + alen

(* A launch (or a packet buffer) reusing freed pages invalidates any
   ghost covering them: its residue expectations no longer hold. *)
let drop_overlapping_ghosts t ~base ~len ~except =
  Array.iteri
    (fun i s ->
      match s with
      | Ghost g when i <> except && overlaps g.g_base g.g_len base len -> t.states.(i) <- Empty
      | _ -> ())
    t.states

let machine_owner_of_class t = function
  | Refmodel.P_free -> Physmem.Free
  | Refmodel.P_os -> Physmem.Nic_os
  | Refmodel.P_tenant s -> (
    match t.states.(s) with
    | Live u -> Physmem.Nf u.nf
    | _ -> Physmem.Free (* unreachable: class comes from a Live lookup *))

(* Ground-truth page ownership must agree with the model's class. *)
let check_owner t idx op ~addr ~cls =
  let actual = Machine.page_owner t.machine addr in
  let expected = machine_owner_of_class t cls in
  if not (Physmem.owner_equal actual expected) then
    flag t idx op Refmodel.Model_mismatch
      (Format.asprintf "page owner drift at %#x: machine says %a, model says %s" addr Physmem.pp_owner actual
         (Refmodel.class_to_string cls))

let sub_shadow u ~off ~len = Bytes.sub_string u.shadow off len

(* ---- launch ------------------------------------------------------- *)

let install_host_window t ~slot =
  let host = Dma.host_mem (Machine.dma t.machine) in
  let pat = host_pattern t ~slot in
  Physmem.write_bytes host ~pos:(hwin_base slot) pat;
  Bytes.of_string pat

let snic_launch t idx op ~slot ~mem_kb ~accel ~rules =
  let insns = Option.get t.insns in
  let len = mem_kb * 1024 in
  let image = secret t ~slot ~len in
  let free = model_free_clusters t in
  let config =
    {
      Snic.Instructions.default_config with
      cores = [ slot ];
      image;
      memory_bytes = len;
      rules = (if rules then [ { Pktio.match_any with dst_port = Some (port_of slot) } ] else []);
      rx_bytes = 8192;
      tx_bytes = 8192;
      accels = (if accel then [ (Accel.Dpi, 1) ] else []);
      host_window = Some (hwin_base slot, hwin_len);
    }
  in
  match Snic.Instructions.nf_launch insns config with
  | Error e ->
    let expected_full = accel && free = 0 in
    let is_accel_unavailable = match e with Snic.Instructions.Accel_unavailable Accel.Dpi -> true | _ -> false in
    if not (expected_full && is_accel_unavailable) then
      flag t idx op Refmodel.Model_mismatch ("nf_launch refused a configuration the model accepts: " ^ Snic.Instructions.error_to_string e)
  | Ok (h, _) ->
    if accel && free = 0 then
      flag t idx op Refmodel.Model_mismatch "nf_launch granted an accelerator cluster the model thinks is exhausted";
    drop_overlapping_ghosts t ~base:h.mem_base ~len:h.mem_len ~except:slot;
    let hshadow = install_host_window t ~slot in
    let cluster = match h.clusters with (_, c) :: _ -> Some c | [] -> None in
    t.launches <- t.launches + 1;
    t.states.(slot) <-
      Live
        {
          nf = h.id;
          base = h.mem_base;
          len = h.mem_len;
          vbase = h.vbase;
          shadow = Bytes.of_string image;
          cluster;
          hshadow;
          has_rules = rules;
        }

let commodity_launch t idx op ~slot ~mem_kb ~accel ~rules =
  let m = t.machine in
  let mem = Machine.mem m in
  let len = mem_kb * 1024 in
  let nf = t.next_nf in
  t.next_nf <- nf + 1;
  (* Commodity firmware recycles the slot's core lazily, only when the
     next tenant needs it — until now its TLB kept the dead mapping. *)
  (match Machine.core_owner m ~core:slot with
  | Some old -> Machine.unbind_cores m ~nf:old
  | None -> ());
  match Alloc.alloc (Machine.alloc m) ~owner:(Physmem.Nf nf) len with
  | None -> flag t idx op Refmodel.Model_mismatch "allocator refused a launch the model accepts"
  | Some base ->
    (* Commodity managers hand pages over as-is: any predecessor bytes
       still there are a scrub violation, visible at handoff. *)
    if not (Physmem.is_zero mem ~pos:base ~len) then
      flag t idx op Refmodel.Scrub_residue "region handed to a new tenant still holds a predecessor's bytes";
    drop_overlapping_ghosts t ~base ~len ~except:slot;
    Machine.bind_core m ~core:slot ~nf;
    ignore (Tlb.map_region (Machine.core_tlb m ~core:slot) ~vbase:vbase_const ~pbase:base ~len ~writable:true);
    if t.mode = Machine.Bluefield then Machine.set_secure m ~pos:base ~len true;
    let image = secret t ~slot ~len in
    Physmem.write_bytes mem ~pos:base image;
    if rules then begin
      (match Pktio.reserve (Machine.pktio m) ~nf ~rx_bytes:8192 ~tx_bytes:8192 with
      | Ok () -> ()
      | Error e -> flag t idx op Refmodel.Model_mismatch ("VPP reservation refused: " ^ e));
      Pktio.add_rule (Machine.pktio m) ~m:{ Pktio.match_any with dst_port = Some (port_of slot) } ~nf
    end;
    let free = model_free_clusters t in
    let cluster =
      if not accel then None
      else begin
        match Accel.claim_cluster (dpi t) ~nf with
        | None ->
          if free > 0 then
            flag t idx op Refmodel.Model_mismatch "cluster claim refused though the model counts free clusters";
          None
        | Some c ->
          if free = 0 then
            flag t idx op Refmodel.Model_mismatch "cluster claim granted though the model counts none free";
          ignore (Tlb.map_region (Accel.cluster_tlb (dpi t) ~cluster:c) ~vbase:vbase_const ~pbase:base ~len ~writable:true);
          if t.mode = Machine.Bluefield then
            Machine.set_secure m ~pos:(Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:c) ~len:Physmem.page_size true;
          Some c
      end
    in
    let hshadow = install_host_window t ~slot in
    t.launches <- t.launches + 1;
    t.states.(slot) <-
      Live { nf; base; len; vbase = vbase_const; shadow = Bytes.of_string image; cluster; hshadow; has_rules = rules }

(* ---- teardown ----------------------------------------------------- *)

(* Post-teardown obligations (§4.2): freed pages read zero, and no core
   TLB entry still maps the freed region. *)
let check_teardown_hygiene t idx op ~slot ~(u : tenant) =
  let m = t.machine in
  if not (Physmem.is_zero (Machine.mem m) ~pos:u.base ~len:u.len) then
    flag t idx op Refmodel.Scrub_residue "freed region still holds the dead tenant's bytes";
  let stale =
    List.exists
      (fun (e : Tlb.entry) -> overlaps e.pbase e.size u.base u.len)
      (Machine.tlb_entries m ~core:slot)
  in
  if stale then
    flag t idx op Refmodel.Stale_translation "core TLB still translates into the freed region after teardown"

let teardown t idx op ~slot ~(u : tenant) =
  let m = t.machine in
  (* A tenant's VF dies with it: detach first so the window page is
     scrubbed (S-NIC) and freed before the region teardown runs. *)
  if Vf.Table.attached t.vft ~vf:slot then Vf.Table.detach t.vft ~vf:slot;
  (match t.insns with
  | Some insns -> (
    match Snic.Instructions.nf_teardown insns ~id:u.nf with
    | Ok _ -> ()
    | Error e ->
      flag t idx op Refmodel.Model_mismatch ("nf_teardown refused a live function: " ^ Snic.Instructions.error_to_string e))
  | None ->
    (* Commodity path: release resources, scrub nothing, leave the core
       bound and its TLB (and any DMA windows) dangling. *)
    Pktio.release (Machine.pktio m) ~nf:u.nf;
    (match u.cluster with Some _ -> Accel.release_clusters (dpi t) ~nf:u.nf | None -> ());
    Alloc.free (Machine.alloc m) u.base;
    if t.mode = Machine.Bluefield then Machine.set_secure m ~pos:u.base ~len:u.len false);
  check_teardown_hygiene t idx op ~slot ~u;
  t.states.(slot) <- Ghost { g_nf = u.nf; g_base = u.base; g_len = u.len }

(* ---- memory accesses ---------------------------------------------- *)

(* The actor's model identity and machine principal; None if the slot
   actor is not live (nobody to impersonate — op skipped). *)
let resolve_actor t = function
  | Op.Os -> Some (Refmodel.W_os, Machine.Os)
  | Op.Slot a -> (
    match t.states.(a) with
    | Live ua -> Some (Refmodel.W_nf a, Machine.Nf_code ua.nf)
    | _ -> None)

let virt_read t idx op ~target ~(u : tenant) ~off ~alen =
  let res = Machine.load_bytes t.machine (Machine.Nf_code u.nf) (Machine.Virt { core = target; vaddr = u.vbase + off }) ~len:alen in
  if off + alen <= u.len then begin
    match res with
    | Ok bytes ->
      if not (String.equal bytes (sub_shadow u ~off ~len:alen)) then
        flag t idx op Refmodel.Model_mismatch "virtual self-read returned bytes the model did not predict"
    | Error f ->
      flag t idx op Refmodel.Model_mismatch ("virtual self-read faulted inside the window: " ^ Machine.fault_to_string f)
  end
  else begin
    match res with
    | Error (Machine.Tlb_fault _) -> () (* agreement: past the mapped window *)
    | Ok _ -> flag t idx op Refmodel.Model_mismatch "read past the mapped window succeeded"
    | Error f -> flag t idx op Refmodel.Model_mismatch ("read past the window failed oddly: " ^ Machine.fault_to_string f)
  end

let virt_write t idx op ~target ~(u : tenant) ~off ~alen ~byte =
  let off = clamp ~len:u.len ~alen off in
  let data = String.make alen (Char.chr byte) in
  match Machine.store_bytes t.machine (Machine.Nf_code u.nf) (Machine.Virt { core = target; vaddr = u.vbase + off }) data with
  | Ok () ->
    Bytes.blit_string data 0 u.shadow off alen;
    if not (String.equal (Physmem.read_bytes (Machine.mem t.machine) ~pos:(u.base + off) ~len:alen) data) then
      flag t idx op Refmodel.Model_mismatch "virtual self-write did not land in the backing region"
  | Error f -> flag t idx op Refmodel.Model_mismatch ("virtual self-write faulted: " ^ Machine.fault_to_string f)

(* One physical access, checked both ways: permit/deny agreement with
   [Refmodel.allows], data agreement with the shadow, and — when both
   sides permit — classification against the single-owner ideal. *)
let phys_access t idx op ~who ~principal ~target ~off ~alen ~write_byte =
  let write = write_byte <> None in
  match t.states.(target) with
  | Empty -> false
  | Ghost _ when write -> false (* use-after-free writes would poison residue tracking *)
  | (Live _ | Ghost _) as st ->
    let base, rlen, cls =
      match st with
      | Live u -> (u.base, u.len, Refmodel.P_tenant target)
      | Ghost g -> (g.g_base, g.g_len, Refmodel.P_free)
      | Empty -> assert false
    in
    let off = clamp ~len:rlen ~alen off in
    let addr = base + off in
    check_owner t idx op ~addr ~cls;
    let secure = t.mode = Machine.Bluefield && (match st with Live _ -> true | _ -> false) in
    let allowed = Refmodel.allows ~mode:t.mode ~who ~owner:cls ~secure ~via_tlb:false in
    let describe verb =
      Printf.sprintf "%s %s %d bytes of %s memory at %#x"
        (match who with Refmodel.W_os -> "NIC OS" | Refmodel.W_nf a -> Printf.sprintf "tenant %d" a)
        verb alen (Refmodel.class_to_string cls) addr
    in
    (match write_byte with
    | None -> (
      match (Machine.load_bytes t.machine principal (Machine.Phys addr) ~len:alen, allowed) with
      | Ok bytes, true -> (
        (match Refmodel.ideal_breach ~who ~owner:cls ~write:false with
        | Some breach -> flag t idx op breach (describe "read")
        | None -> ());
        match st with
        | Live u ->
          if not (String.equal bytes (sub_shadow u ~off ~len:alen)) then
            flag t idx op Refmodel.Model_mismatch "permitted read returned bytes the model did not predict"
        | _ ->
          if String.exists (fun c -> c <> '\000') bytes then
            flag t idx op Refmodel.Scrub_residue (describe "read stale bytes from freed"))
      | Error _, false -> () (* agreement: denied *)
      | Ok _, false -> flag t idx op Refmodel.Model_mismatch ("machine permitted a read the mode's policy forbids: " ^ describe "read")
      | Error f, true ->
        flag t idx op Refmodel.Model_mismatch ("machine denied a read the mode's policy permits: " ^ Machine.fault_to_string f))
    | Some byte -> (
      let data = String.make alen (Char.chr byte) in
      match (Machine.store_bytes t.machine principal (Machine.Phys addr) data, allowed) with
      | Ok (), true -> (
        (match Refmodel.ideal_breach ~who ~owner:cls ~write:true with
        | Some breach -> flag t idx op breach (describe "wrote")
        | None -> ());
        match st with
        | Live u ->
          Bytes.blit_string data 0 u.shadow off alen;
          if not (String.equal (Physmem.read_bytes (Machine.mem t.machine) ~pos:addr ~len:alen) data) then
            flag t idx op Refmodel.Model_mismatch "permitted write did not land in the backing region"
        | _ -> ())
      | Error _, false -> ()
      | Ok (), false ->
        (* Keep the shadow truthful even on an unpredicted write. *)
        (match st with
        | Live u -> Physmem.blit_to_bytes (Machine.mem t.machine) ~pos:addr u.shadow ~off ~len:alen
        | _ -> ());
        flag t idx op Refmodel.Model_mismatch ("machine permitted a write the mode's policy forbids: " ^ describe "wrote")
      | Error f, true ->
        flag t idx op Refmodel.Model_mismatch ("machine denied a write the mode's policy permits: " ^ Machine.fault_to_string f)));
    true

(* ---- accelerator MMIO --------------------------------------------- *)

let mmio_write t idx op ~actor ~target ~reg ~value =
  match (t.states.(actor), t.states.(target)) with
  | Live ua, Live ({ cluster = Some c; _ } as _ut) ->
    let m = t.machine in
    let reg_off = match reg with Op.Graph -> Machine.mmio_reg_graph | Op.Iq -> Machine.mmio_reg_iq in
    let paddr = Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:c + reg_off in
    let cls = if t.mode = Machine.Snic then Refmodel.P_tenant target else Refmodel.P_os in
    check_owner t idx op ~addr:paddr ~cls;
    let secure = t.mode = Machine.Bluefield in
    let allowed = Refmodel.allows ~mode:t.mode ~who:(Refmodel.W_nf actor) ~owner:cls ~secure ~via_tlb:false in
    (match (Machine.store_u64 m (Machine.Nf_code ua.nf) (Machine.Phys paddr) value, allowed) with
    | Ok (), true ->
      if actor <> target then
        flag t idx op Refmodel.Accel_hijack
          (Printf.sprintf "tenant %d rewrote tenant %d's cluster %s register" actor target
             (match reg with Op.Graph -> "rule-graph" | Op.Iq -> "instruction-queue"))
    | Error _, false -> ()
    | Ok (), false -> flag t idx op Refmodel.Model_mismatch "machine permitted an MMIO write the mode's policy forbids"
    | Error f, true ->
      flag t idx op Refmodel.Model_mismatch ("machine denied an MMIO write the mode's policy permits: " ^ Machine.fault_to_string f));
    true
  | _ -> false

(* ---- virtual functions -------------------------------------------- *)

(* The VF doorbell/ring window mirrors the accelerator-MMIO story: on
   S-NIC the window page is the tenant's single-owner RAM, on commodity
   NICs it is NIC-OS BAR space a raw physical access can reach
   (BlueField additionally marks it secure-world, like its MMIO pages).
   So the model class is [P_tenant target] on S-NIC and [P_os]
   elsewhere, and the verdict comes from the same [Refmodel.allows]
   table every other access uses — VF multiplexing adds no policy. *)
let vf_window_cls t ~target =
  if t.mode = Machine.Snic then Refmodel.P_tenant target else Refmodel.P_os

let vf_attach t idx op ~slot ~weight =
  match t.states.(slot) with
  | Live u when not (Vf.Table.attached t.vft ~vf:slot) ->
    (match Vf.Table.attach t.vft ~vf:slot ~nf:u.nf ~weight with
    | Ok base -> drop_overlapping_ghosts t ~base ~len:Physmem.page_size ~except:(-1)
    | Error e ->
      flag t idx op Refmodel.Model_mismatch ("vf attach refused though a window page should fit: " ^ e));
    true
  | _ -> false

let vf_detach t _idx _op ~slot =
  if Vf.Table.attached t.vft ~vf:slot then begin
    Vf.Table.detach t.vft ~vf:slot;
    true
  end
  else false

let vf_doorbell t idx op ~actor ~target ~value =
  match (t.states.(actor), t.states.(target)) with
  | Live ua, Live _ when Vf.Table.attached t.vft ~vf:target ->
    let base = Option.get (Vf.Table.window_base t.vft ~vf:target) in
    let cls = vf_window_cls t ~target in
    check_owner t idx op ~addr:base ~cls;
    let secure = t.mode = Machine.Bluefield in
    let allowed = Refmodel.allows ~mode:t.mode ~who:(Refmodel.W_nf actor) ~owner:cls ~secure ~via_tlb:false in
    (match (Vf.Table.doorbell t.vft ~principal:(Machine.Nf_code ua.nf) ~vf:target ~value, allowed) with
    | Ok (), true ->
      if actor <> target then
        flag t idx op Refmodel.Cross_tenant_write
          (Printf.sprintf "tenant %d rang tenant %d's VF doorbell" actor target)
    | Error _, false -> ()
    | Ok (), false ->
      flag t idx op Refmodel.Model_mismatch "machine permitted a VF doorbell write the mode's policy forbids"
    | Error f, true ->
      flag t idx op Refmodel.Model_mismatch
        ("machine denied a VF doorbell write the mode's policy permits: " ^ Machine.fault_to_string f));
    true
  | _ -> false

let vf_queue_read t idx op ~actor ~target ~alen =
  match (t.states.(actor), t.states.(target)) with
  | Live ua, Live _ when Vf.Table.attached t.vft ~vf:target ->
    let base = Option.get (Vf.Table.window_base t.vft ~vf:target) in
    let cls = vf_window_cls t ~target in
    check_owner t idx op ~addr:base ~cls;
    let secure = t.mode = Machine.Bluefield in
    let allowed = Refmodel.allows ~mode:t.mode ~who:(Refmodel.W_nf actor) ~owner:cls ~secure ~via_tlb:false in
    (match (Vf.Table.queue_read t.vft ~principal:(Machine.Nf_code ua.nf) ~vf:target ~len:alen, allowed) with
    | Ok bytes, true ->
      (if actor <> target then
         flag t idx op Refmodel.Cross_tenant_read
           (Printf.sprintf "tenant %d read %d bytes of tenant %d's VF descriptor ring" actor
              (String.length bytes) target));
      (* The ring window content is a pure function of the VF id, so the
         returned bytes are fully predicted. *)
      let expected = String.sub (Vf.Table.window_pattern ~vf:target) 8 (String.length bytes) in
      if not (String.equal bytes expected) then
        flag t idx op Refmodel.Model_mismatch "VF ring read returned bytes the model did not predict"
    | Error _, false -> ()
    | Ok _, false ->
      flag t idx op Refmodel.Model_mismatch "machine permitted a VF ring read the mode's policy forbids"
    | Error f, true ->
      flag t idx op Refmodel.Model_mismatch
        ("machine denied a VF ring read the mode's policy permits: " ^ Machine.fault_to_string f));
    true
  | _ -> false

(* ---- DMA ---------------------------------------------------------- *)

let dma t idx op ~actor ~target ~dir ~off ~alen =
  match (t.states.(actor), t.states.(target)) with
  | Live ua, Live ut ->
    let m = t.machine in
    let noff = clamp ~len:ut.len ~alen off in
    let hoff = clamp ~len:hwin_len ~alen off in
    let checked = t.mode = Machine.Snic in
    (* S-NIC DMAs through the bank's locked windows (virtual addresses);
       commodity engines take raw physical addresses on both sides. *)
    let nic_addr = if checked then (if actor = target then ua.vbase + noff else ut.base + noff) else ut.base + noff in
    let host_addr = if checked then hoff else hwin_base actor + hoff in
    let allowed = (not checked) || actor = target in
    let direction = match dir with Op.To_host -> Dma.To_host | Op.To_nic -> Dma.To_nic in
    let host = Dma.host_mem (Machine.dma m) in
    (match (Dma.transfer ~checked (Machine.dma m) ~bank:actor ~direction ~nic_addr ~host_addr ~len:alen, allowed) with
    | Ok (), true -> (
      (if actor <> target then
         let cls = match dir with Op.To_host -> Refmodel.Cross_tenant_read | Op.To_nic -> Refmodel.Cross_tenant_write in
         flag t idx op cls
           (Printf.sprintf "tenant %d DMAed %d bytes %s tenant %d's region" actor alen
              (match dir with Op.To_host -> "out of" | Op.To_nic -> "into")
              target));
      match dir with
      | Op.To_host ->
        Bytes.blit ut.shadow noff ua.hshadow hoff alen;
        if
          not
            (String.equal
               (Physmem.read_bytes host ~pos:(hwin_base actor + hoff) ~len:alen)
               (Bytes.sub_string ua.hshadow hoff alen))
        then flag t idx op Refmodel.Model_mismatch "DMA to host moved bytes the model did not predict"
      | Op.To_nic ->
        Bytes.blit ua.hshadow hoff ut.shadow noff alen;
        if
          not
            (String.equal
               (Physmem.read_bytes (Machine.mem m) ~pos:(ut.base + noff) ~len:alen)
               (sub_shadow ut ~off:noff ~len:alen))
        then flag t idx op Refmodel.Model_mismatch "DMA to NIC moved bytes the model did not predict")
    | Error _, false -> () (* agreement: the locked windows refused it *)
    | Ok (), false ->
      (* Resync both sides from ground truth before flagging. *)
      Physmem.blit_to_bytes (Machine.mem m) ~pos:(ut.base + noff) ut.shadow ~off:noff ~len:alen;
      Physmem.blit_to_bytes host ~pos:(hwin_base actor + hoff) ua.hshadow ~off:hoff ~len:alen;
      flag t idx op Refmodel.Model_mismatch "cross-tenant DMA succeeded through S-NIC's locked windows"
    | Error e, true ->
      flag t idx op Refmodel.Model_mismatch ("DMA the model permits was refused: " ^ Dma.error_to_string e));
    true
  | _ -> false

(* ---- accelerator streaming ---------------------------------------- *)

let stream t idx op ~slot ~src ~dst ~alen =
  match t.states.(slot) with
  | Live ({ cluster = Some c; _ } as u) ->
    let m = t.machine in
    (* Keep source and destination in disjoint halves of the region so
       the expected result is a plain copy. *)
    let half = u.len / 2 in
    let soff = clamp ~len:half ~alen src in
    let doff = half + clamp ~len:half ~alen dst in
    (match
       Accel.stream (dpi t) ~cluster:c ~now:0 ~mem:(Machine.mem m) ~src:(u.vbase + soff) ~src_len:alen
         ~dst:(u.vbase + doff) ~f:Fun.id
     with
    | Ok (n, _) ->
      if n <> alen then flag t idx op Refmodel.Model_mismatch (Printf.sprintf "stream wrote %d bytes, model expected %d" n alen);
      Bytes.blit u.shadow soff u.shadow doff alen;
      if not (String.equal (Physmem.read_bytes (Machine.mem m) ~pos:(u.base + doff) ~len:alen) (sub_shadow u ~off:doff ~len:alen))
      then flag t idx op Refmodel.Model_mismatch "stream output differs from the model's copy"
    | Error e ->
      flag t idx op Refmodel.Model_mismatch ("stream faulted inside its own window: " ^ Accel.stream_error_to_string e));
    true
  | _ -> false

(* ---- packet injection --------------------------------------------- *)

let inject t idx op ~target ~pad =
  let m = t.machine in
  let live = match t.states.(target) with Live u when u.has_rules -> Some u | _ -> None in
  let payload = String.init (20 + pad) (fun i -> Char.chr (0x30 + ((i + pad) mod 64))) in
  let pkt =
    Net.Packet.make
      ~src_ip:(Net.Ipv4_addr.of_octets 10 0 0 1)
      ~dst_ip:(Net.Ipv4_addr.of_octets 10 0 0 2)
      ~proto:Net.Packet.Udp ~src_port:40000 ~dst_port:(port_of target) payload
  in
  let frame = Net.Packet.serialize pkt in
  (match (Pktio.deliver (Machine.pktio m) frame, live) with
  | Ok nf, Some u when nf = u.nf -> (
    match Pktio.rx_pop (Machine.pktio m) ~nf:u.nf with
    | None -> flag t idx op Refmodel.Model_mismatch "delivered frame never appeared on the RX ring"
    | Some (addr, plen) ->
      if plen <> Bytes.length frame then
        flag t idx op Refmodel.Model_mismatch (Printf.sprintf "RX descriptor length %d, frame is %d" plen (Bytes.length frame))
      else if not (String.equal (Physmem.read_bytes (Machine.mem m) ~pos:addr ~len:plen) (Bytes.to_string frame)) then
        flag t idx op Refmodel.Model_mismatch "frame bytes corrupted in the buffer pool";
      Pktio.recycle (Machine.pktio m) ~addr;
      (* The buffer's pages cycled through another owner; any ghost
         covering them no longer predicts their content. *)
      drop_overlapping_ghosts t ~base:addr ~len:plen ~except:(-1))
  | Ok nf, Some _ -> flag t idx op Refmodel.Model_mismatch (Printf.sprintf "frame delivered to NF %d, model expected the slot's tenant" nf)
  | Ok nf, None -> flag t idx op Refmodel.Model_mismatch (Printf.sprintf "frame delivered to NF %d though the model knows no matching rule" nf)
  | Error _, None -> () (* agreement: no live rule for this port *)
  | Error e, Some _ -> flag t idx op Refmodel.Model_mismatch ("delivery refused despite a live rule: " ^ e));
  true

(* ---- QoS credit admission ----------------------------------------- *)

(* Differential check for the credit arbiter.  With the degenerate
   registration above (no borrowing, no slack) work-conservation
   donations can never enable a grant, so verdicts — and the throttle's
   refill cycle — are exact.  The op touches no memory: the only class
   it can ever raise is [Model_mismatch]. *)
let qos_admit t idx op ~actor ~res ~cost =
  let now = idx in
  let epoch = now / qos_epoch_cycles in
  if epoch <> t.q_epoch then begin
    Array.iter (fun row -> Array.fill row 0 3 0) t.q_spent;
    t.q_epoch <- epoch
  end;
  let r = match res with Op.Q_bus -> Qos.Bus | Op.Q_dma -> Qos.Dma | Op.Q_accel -> Qos.Accel in
  let ri = match r with Qos.Bus -> 0 | Qos.Dma -> 1 | Qos.Accel -> 2 in
  let spent = t.q_spent.(actor).(ri) in
  let model_grant = spent + cost <= qos_guarantee in
  (match (Qos.admit t.qos ~tenant:actor ~resource:r ~cost ~now, model_grant) with
  | Qos.Granted, true -> t.q_spent.(actor).(ri) <- spent + cost
  | Qos.Throttled th, false ->
    let until = (epoch + 1) * qos_epoch_cycles in
    if th.Qos.until <> until then
      flag t idx op Refmodel.Model_mismatch
        (Printf.sprintf "throttle promises credit at cycle %d, model expected %d" th.Qos.until until)
  | Qos.Granted, false ->
    t.q_spent.(actor).(ri) <- spent + cost;
    flag t idx op Refmodel.Model_mismatch
      (Printf.sprintf "arbiter granted %d credits past slot %d's exhausted budget" cost actor)
  | Qos.Throttled _, true ->
    flag t idx op Refmodel.Model_mismatch
      (Printf.sprintf "arbiter throttled slot %d though the flat budget has %d credits left" actor
         (qos_guarantee - spent)));
  true

(* ---- attestation -------------------------------------------------- *)

let attest t idx op ~slot =
  match (t.insns, t.states.(slot)) with
  | Some insns, Live u ->
    (match
       Snic.Instructions.nf_attest insns ~id:u.nf ~group:Crypto.Dh.sim_768 ~dh_public:(Bigint.of_int 0xC0FFEE)
         ~nonce:"oracle-nonce"
     with
    | Ok s when String.length s > 0 -> ()
    | Ok _ -> flag t idx op Refmodel.Model_mismatch "attestation returned an empty signature"
    | Error e ->
      flag t idx op Refmodel.Model_mismatch ("nf_attest refused a live function: " ^ Snic.Instructions.error_to_string e));
    true
  | _ -> false (* commodity NICs have no attestation instruction *)

(* ---- fabric channels ---------------------------------------------- *)

(* Loopback attested channels, one per slot.  Establishment runs the
   full handshake against the slot's live NF (so a torn-down or never-
   launched slot has no key source), a send must authenticate and
   deliver exactly the bytes sent, and a replayed wire frame must bounce
   off the receive window.  S-NIC only: commodity NICs cannot attest. *)
let chan_open t idx op ~slot ~window =
  match (t.insns, t.vendor_public, t.states.(slot)) with
  | Some insns, Some vendor_public, Live u ->
    let ep = Fabric.Endpoint.make ~nic:0 ~insns ~nf:u.nf () in
    let chan = t.chan_next in
    t.chan_next <- chan + 1;
    (match Fabric.Endpoint.establish ~window t.chan_rng ~vendor_public ~chan ep ep with
    | Ok link ->
      t.chans.(slot) <- Some link;
      t.chan_last.(slot) <- None
    | Error e ->
      flag t idx op Refmodel.Model_mismatch
        ("channel establishment refused a live attested function: " ^ Fabric.Endpoint.error_to_string e));
    true
  | _ -> false

let chan_send t idx op ~slot ~len =
  match t.chans.(slot) with
  | None -> false
  | Some (tx, rx) ->
    let payload = String.init len (fun i -> Char.chr (0x61 + ((i + slot + idx) mod 26))) in
    let wire = Fabric.Channel.send tx payload in
    t.chan_last.(slot) <- Some wire;
    (match Fabric.Channel.recv rx wire with
    | Ok p when String.equal p payload -> ()
    | Ok _ -> flag t idx op Refmodel.Model_mismatch "channel delivered different bytes than were sent"
    | Error e ->
      flag t idx op Refmodel.Model_mismatch
        ("receiver refused a fresh authenticated frame: " ^ Fabric.Channel.recv_error_to_string e));
    true

let chan_replay t idx op ~slot =
  match (t.chans.(slot), t.chan_last.(slot)) with
  | Some (_, rx), Some wire ->
    (match Fabric.Channel.recv rx wire with
    | Error (Fabric.Channel.Replayed _) -> ()
    | Ok _ -> flag t idx op Refmodel.Model_mismatch "receive window accepted a replayed frame"
    | Error e ->
      flag t idx op Refmodel.Model_mismatch
        ("replayed frame bounced for the wrong reason: " ^ Fabric.Channel.recv_error_to_string e));
    true
  | _ -> false

(* ---- dispatch ----------------------------------------------------- *)

let exec t idx op =
  if Op.max_slot op >= t.slot_count then false
  else begin
    match op with
  | Op.Launch { slot; mem_kb; accel; rules } -> (
    match t.states.(slot) with
    | Live _ -> false
    | Empty | Ghost _ ->
      (match t.insns with
      | Some _ -> snic_launch t idx op ~slot ~mem_kb ~accel ~rules
      | None -> commodity_launch t idx op ~slot ~mem_kb ~accel ~rules);
      true)
  | Op.Teardown { slot } -> (
    match t.states.(slot) with
    | Live u ->
      teardown t idx op ~slot ~u;
      (* The channel's key was bound to the torn-down NF's attestation;
         it dies with the function. *)
      t.chans.(slot) <- None;
      t.chan_last.(slot) <- None;
      true
    | Empty | Ghost _ -> false)
  | Op.Read { actor; target; space = Op.Virt; off; len } -> (
    match (actor, t.states.(target)) with
    | Op.Slot a, Live u when a = target ->
      virt_read t idx op ~target ~u ~off ~alen:len;
      true
    | _ -> false)
  | Op.Write { actor; target; space = Op.Virt; off; len; byte } -> (
    match (actor, t.states.(target)) with
    | Op.Slot a, Live u when a = target ->
      virt_write t idx op ~target ~u ~off ~alen:len ~byte;
      true
    | _ -> false)
  | Op.Read { actor; target; space = Op.Phys; off; len } -> (
    match resolve_actor t actor with
    | Some (who, principal) -> phys_access t idx op ~who ~principal ~target ~off ~alen:len ~write_byte:None
    | None -> false)
  | Op.Write { actor; target; space = Op.Phys; off; len; byte } -> (
    match resolve_actor t actor with
    | Some (who, principal) -> phys_access t idx op ~who ~principal ~target ~off ~alen:len ~write_byte:(Some byte)
    | None -> false)
  | Op.Mmio_write { actor; target; reg; value } -> mmio_write t idx op ~actor ~target ~reg ~value
  | Op.Dma { actor; target; dir; off; len } -> dma t idx op ~actor ~target ~dir ~off ~alen:len
  | Op.Stream { slot; src; dst; len } -> stream t idx op ~slot ~src ~dst ~alen:len
    | Op.Inject { target; pad } -> inject t idx op ~target ~pad
    | Op.Attest { slot } -> attest t idx op ~slot
    | Op.Vf_attach { slot; weight } -> vf_attach t idx op ~slot ~weight
    | Op.Vf_detach { slot } -> vf_detach t idx op ~slot
    | Op.Vf_doorbell { actor; target; value } -> vf_doorbell t idx op ~actor ~target ~value
    | Op.Vf_queue_read { actor; target; len } -> vf_queue_read t idx op ~actor ~target ~alen:len
    | Op.Qos_admit { actor; res; cost } -> qos_admit t idx op ~actor ~res ~cost
    | Op.Chan_open { slot; window } -> chan_open t idx op ~slot ~window
    | Op.Chan_send { slot; len } -> chan_send t idx op ~slot ~len
    | Op.Chan_replay { slot } -> chan_replay t idx op ~slot
  end

let step t op =
  let idx = t.step_no in
  t.step_no <- idx + 1;
  if exec t idx op then t.executed <- t.executed + 1 else t.skipped <- t.skipped + 1
