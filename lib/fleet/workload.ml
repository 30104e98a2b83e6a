type kind = Fw | Dpi | Nat | Lb | Lpm | Mon | Ckf | Synp

let all_kinds = [ Fw; Dpi; Nat; Lb; Lpm; Mon; Ckf; Synp ]

let kind_name = function
  | Fw -> "FW"
  | Dpi -> "DPI"
  | Nat -> "NAT"
  | Lb -> "LB"
  | Lpm -> "LPM"
  | Mon -> "Mon"
  | Ckf -> "CKF"
  | Synp -> "SYNP"

let profile k = Memprof.Profiles.find (kind_name k)

type demand = {
  kind : kind;
  mem_bytes : int;
  cores : int;
  accels : (Nicsim.Accel.kind * int) list;
  regions : int list;
}

(* Simulated bytes per profiled MB. *)
let bytes_per_mb = 1024

let demand_of_kind kind =
  let p = profile kind in
  let mem_bytes = max (16 * 1024) (int_of_float (Memprof.Profiles.total_mb p *. float_of_int bytes_per_mb)) in
  (* Only the DPI tenant claims an accelerator cluster; the other five
     NFs are pure programmable-core workloads (Table 7 profiles only the
     three accelerator engines). *)
  let accels = match kind with Dpi -> [ (Nicsim.Accel.Dpi, 1) ] | _ -> [] in
  { kind; mem_bytes; cores = 1; accels; regions = Memprof.Profiles.regions p }

let tlb_entries d ~page_sizes = Costmodel.Page_packing.entries ~page_sizes d.regions

(* Rule/pattern/route counts far below the §5.1 parameters: a fleet
   builds 64 of these, and the orchestration experiments only need the
   NFs' *behavior*, not their full working sets. *)
let instance_scale = function
  | Fw -> 0.05 (* ~32 rules *)
  | Dpi -> 0.002 (* ~66 patterns *)
  | Lpm -> 0.02 (* ~320 routes *)
  | Ckf | Synp -> 0.05 (* ~2^7-bucket filters *)
  | Nat | Lb | Mon -> 1.0 (* scale-independent builders *)

let nf_instance kind = (Nf.Registry.find (kind_name kind)).Nf.Registry.build ~scale:(instance_scale kind) ()

let kind_of_index i = List.nth all_kinds (i mod List.length all_kinds)
