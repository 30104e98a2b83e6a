open Nicsim

type t = { instr : Instructions.t; handle : Instructions.handle }

let of_handle instr handle = { instr; handle }
let handle t = t.handle
let id t = t.handle.Instructions.id

let principal t = Machine.Nf_code t.handle.Instructions.id
let m t = Instructions.machine t.instr

let first_core t =
  match t.handle.Instructions.cores with
  | c :: _ -> c
  | [] -> invalid_arg "Vnic: function has no cores"

let read_virt t ~vaddr ~len =
  Machine.load_bytes (m t) (principal t) (Machine.Virt { core = first_core t; vaddr }) ~len

let write_virt t ~vaddr s = Machine.store_bytes (m t) (principal t) (Machine.Virt { core = first_core t; vaddr }) s
let read_phys t ~paddr ~len = Machine.load_bytes (m t) (principal t) (Machine.Phys paddr) ~len
let write_phys t ~paddr s = Machine.store_bytes (m t) (principal t) (Machine.Phys paddr) s

let rx t = Pktio.rx_pop (Machine.pktio (m t)) ~nf:(id t)
let rx_depth t = Pktio.rx_depth (Machine.pktio (m t)) ~nf:(id t)

let rx_packet t =
  match rx t with
  | None -> Ok None
  | Some (addr, len) -> begin
    match read_phys t ~paddr:addr ~len with
    | Error f -> Error (Machine.fault_to_string f)
    | Ok frame -> begin
      match Net.Packet.parse (Bytes.of_string frame) with
      | Ok pkt -> Ok (Some (pkt, addr))
      | Error e ->
        Pktio.recycle (Machine.pktio (m t)) ~addr;
        Error (Format.asprintf "rx frame: %a" Net.Packet.pp_parse_error e)
    end
  end

let tx_packet t ~buffer pkt =
  let frame = Bytes.to_string (Net.Packet.serialize pkt) in
  if String.length frame > Physmem.page_size then Error "frame exceeds buffer page"
  else begin
    match write_phys t ~paddr:buffer frame with
    | Error f -> Error (Machine.fault_to_string f)
    | Ok () ->
      Pktio.transmit (Machine.pktio (m t)) ~nf:(id t) ~addr:buffer ~len:(String.length frame);
      Ok ()
  end

let drop t ~buffer = Pktio.recycle (Machine.pktio (m t)) ~addr:buffer

let owned_cluster t kind =
  match List.find_opt (fun (k, _) -> k = kind) t.handle.Instructions.clusters with
  | None -> Error (Printf.sprintf "function owns no %s cluster" (Accel.kind_name kind))
  | Some (_, cluster) -> Ok cluster

let submit_owned t kind ~now ~bytes =
  match owned_cluster t kind with
  | Error e -> Error e
  | Ok cluster ->
    let a = Machine.accel (m t) kind in
    let done_at = Accel.submit a ~cluster ~now ~bytes in
    (* An injected garbage completion is detectable (bad CRC/stripe), so
       it surfaces as an error rather than a silent wrong answer; a hang
       surfaces as a completion time past the watchdog horizon. *)
    if Accel.take_garbage a then Error (Printf.sprintf "%s cluster returned garbage output" (Accel.kind_name kind))
    else Ok done_at

let dpi_submit t ~now ~bytes = submit_owned t Accel.Dpi ~now ~bytes

let zip_compress t ~now data =
  Result.map
    (fun done_at -> (Accelfn.Lz77.compress data, done_at))
    (submit_owned t Accel.Zip ~now ~bytes:(String.length data))

let zip_decompress t ~now data =
  match submit_owned t Accel.Zip ~now ~bytes:(String.length data) with
  | Error e -> Error e
  | Ok done_at -> begin
    match Accelfn.Lz77.decompress data with
    | plain -> Ok (plain, done_at)
    | exception Invalid_argument e -> Error e
  end

let raid_encode t ~now blocks =
  let bytes = Array.fold_left (fun acc b -> acc + String.length b) 0 blocks in
  match submit_owned t Accel.Raid ~now ~bytes with
  | Error e -> Error e
  | Ok done_at -> begin
    match Accelfn.Raid.encode blocks with
    | s -> Ok (s, done_at)
    | exception Invalid_argument e -> Error e
  end

let dma t ~direction ~nic_off ~host_off ~len =
  let bank = first_core t in
  Dma.transfer ~checked:true (Machine.dma (m t)) ~bank ~direction
    ~nic_addr:(t.handle.Instructions.vbase + nic_off) ~host_addr:host_off ~len
  |> Result.map_error Dma.error_to_string

let dma_to_host t ~nic_off ~host_off ~len = dma t ~direction:Dma.To_host ~nic_off ~host_off ~len
let dma_from_host t ~nic_off ~host_off ~len = dma t ~direction:Dma.To_nic ~nic_off ~host_off ~len

type run_stats = { received : int; forwarded : int; dropped : int; faults : int }

let process t (nf : Nf.Types.t) ~max =
  let stats = ref { received = 0; forwarded = 0; dropped = 0; faults = 0 } in
  let continue = ref true in
  while !continue && !stats.received < max do
    match rx_packet t with
    | Ok None -> continue := false
    | Error _ -> stats := { !stats with received = !stats.received + 1; faults = !stats.faults + 1 }
    | Ok (Some (pkt, buffer)) -> begin
      stats := { !stats with received = !stats.received + 1 };
      match nf.Nf.Types.process pkt with
      | Nf.Types.Drop _ ->
        drop t ~buffer;
        stats := { !stats with dropped = !stats.dropped + 1 }
      | Nf.Types.Forward pkt' -> begin
        match tx_packet t ~buffer pkt' with
        | Ok () -> stats := { !stats with forwarded = !stats.forwarded + 1 }
        | Error _ ->
          drop t ~buffer;
          stats := { !stats with faults = !stats.faults + 1 }
      end
    end
  done;
  !stats
