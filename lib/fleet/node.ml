open Nicsim

type shape = {
  label : string;
  cores : int;
  dram_bytes : int;
  accel_clusters : int;
  cluster_size : int;
  page_menu : int list;
  tlb_budget_per_core : int;
}

(* Small NICs carry Equal-2MB TLBs with fewer locked entries than a
   Monitor-class NF needs (~183); medium/large NICs pay for the flexible
   menus of §5.2 and can host anything. *)
let small =
  {
    label = "small";
    cores = 8;
    dram_bytes = 256 * 1024 * 1024;
    accel_clusters = 2;
    cluster_size = 8;
    page_menu = Costmodel.Page_packing.equal_2mb;
    tlb_budget_per_core = 96;
  }

let medium =
  {
    label = "medium";
    cores = 12;
    dram_bytes = 512 * 1024 * 1024;
    accel_clusters = 3;
    cluster_size = 8;
    page_menu = Costmodel.Page_packing.flex_low;
    tlb_budget_per_core = 64;
  }

let large =
  {
    label = "large";
    cores = 16;
    dram_bytes = 1024 * 1024 * 1024;
    accel_clusters = 4;
    cluster_size = 16;
    page_menu = Costmodel.Page_packing.flex_high;
    tlb_budget_per_core = 32;
  }

let shape_of_index i = match i mod 4 with 0 -> small | 1 -> medium | 2 -> large | _ -> medium

type t = {
  id : int;
  serial : string;
  shape : shape;
  api : Snic.Api.t;
  mutable alive : bool;
  mutable quarantined : bool;
  mutable committed_bytes : int;
  mutable nf_count : int;
}

let machine_config shape =
  {
    Machine.mode = Machine.Snic;
    cores = shape.cores;
    dram_bytes = shape.dram_bytes;
    (* Hard partitioning needs at least one way per core domain. *)
    l2 = Cache.create ~sets:1024 ~ways:(max 16 shape.cores) ~line_bits:6 ~mode:Cache.Hard ~domains:shape.cores;
    bus = Bus.create ~policy:(Bus.Temporal { epoch = 96; dead = 16 }) ~clients:shape.cores;
    accels =
      List.map
        (fun kind -> Accel.create ~kind ~threads:(shape.accel_clusters * shape.cluster_size) ~cluster_size:shape.cluster_size)
        [ Accel.Dpi; Accel.Zip; Accel.Raid ];
    host_mem_bytes = 16 * 1024 * 1024;
    rx_buffer_bytes = 512 * 1024;
    tx_buffer_bytes = 512 * 1024;
  }

let boot ?identity_seed ~vendor ~id shape =
  let serial = Printf.sprintf "fleet-%04d" id in
  (* Distinct EK/AK material per NIC — identities must not be
     interchangeable across the rack. *)
  let identity_seed = match identity_seed with Some s -> s | None -> 0x51C + (7919 * (id + 1)) in
  let api = Snic.Api.boot_with ~vendor ~serial ~identity_seed (machine_config shape) in
  { id; serial; shape; api; alive = true; quarantined = false; committed_bytes = 0; nf_count = 0 }

let id t = t.id
let api t = t.api
let shape t = t.shape
let serial t = t.serial
let alive t = t.alive
let kill t = t.alive <- false
let quarantined t = t.quarantined
let quarantine t = t.quarantined <- true
let unquarantine t = t.quarantined <- false
let free_cores t = List.length (Machine.free_cores (Snic.Api.machine t.api))

(* Leave room for the OS staging buffer and buffer pools: the operator
   only promises tenants half the DRAM. *)
let usable_bytes t = t.shape.dram_bytes / 2
let mem_headroom t = usable_bytes t - t.committed_bytes
let free_clusters t kind = Accel.free_clusters (Machine.accel (Snic.Api.machine t.api) kind)
let nf_count t = t.nf_count
let entries_for t (d : Workload.demand) = Workload.tlb_entries d ~page_sizes:t.shape.page_menu

let admits t (d : Workload.demand) =
  t.alive && (not t.quarantined)
  && free_cores t >= d.Workload.cores
  && mem_headroom t >= d.Workload.mem_bytes
  && List.for_all (fun (kind, n) -> free_clusters t kind >= n) d.Workload.accels
  && entries_for t d <= t.shape.tlb_budget_per_core

let commit t (d : Workload.demand) =
  t.committed_bytes <- t.committed_bytes + d.Workload.mem_bytes;
  t.nf_count <- t.nf_count + 1

let release t (d : Workload.demand) =
  t.committed_bytes <- max 0 (t.committed_bytes - d.Workload.mem_bytes);
  t.nf_count <- max 0 (t.nf_count - 1)
