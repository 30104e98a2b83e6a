(** Tenant workloads for the fleet orchestrator.

    A tenant rents a virtual smart NIC for one of the paper's six
    evaluation NFs or the CuckooGuard DDoS-defense pair (CKF / SYNP).
    Its *demand* — how much on-NIC RAM, how many cores,
    which accelerator clusters, and how many locked TLB entries — is
    derived from the measured memory profiles of {!Memprof.Profiles}
    (Table 6). RAM demands are scaled down by a configurable factor so a
    whole rack simulates quickly; the TLB-entry budget is computed from
    the *full-scale* regions, because that is what sizes the real locked
    TLBs (§5.2). *)

type kind = Fw | Dpi | Nat | Lb | Lpm | Mon | Ckf | Synp

val all_kinds : kind list
val kind_name : kind -> string

(** The Table 6 profile behind a kind. *)
val profile : kind -> Memprof.Profiles.t

type demand = {
  kind : kind;
  mem_bytes : int; (* scaled on-NIC RAM reservation *)
  cores : int; (* programmable cores (1 for every NF kind) *)
  accels : (Nicsim.Accel.kind * int) list; (* accelerator clusters *)
  regions : int list; (* full-scale region bytes, for TLB budgeting *)
}

(** [demand_of_kind ?bytes_per_mb kind] — [bytes_per_mb] is the scale
    factor mapping one profiled MB to simulated bytes (default 1024:
    1 MB -> 1 KB, so the Monitor's ~360 MB becomes ~360 KB). *)
val demand_of_kind : ?bytes_per_mb:int -> kind -> demand

(** Locked TLB entries this demand needs on a NIC offering [page_sizes]
    (computed from the full-scale regions via {!Costmodel.Page_packing}). *)
val tlb_entries : demand -> page_sizes:int list -> int

(** A runnable instance of the NF (small rule/pattern/route counts so a
    64-tenant fleet builds quickly). *)
val nf_instance : kind -> Nf.Types.t

(** Deterministic kind assignment for tenant [i] (cycles through all
    eight kinds so every fleet carries a balanced mix). *)
val kind_of_index : int -> kind
