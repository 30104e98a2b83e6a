(** Memory-usage profiles of the paper's six evaluation NFs (Table 6 /
    Appendix B) and the CuckooGuard pair, and the derived TLB sizing.

    The region sizes are the paper's measurements of its Rust NFs (with
    the §5.1 parameters); they are the *inputs* to the reproduced
    experiments — TLB entry counts under each page-size menu, the memory
    utilization ratios, and the TLB hardware cost of Table 5. *)

type t = {
  name : string;
  text_mb : float;
  data_mb : float;
  code_mb : float;
  heap_stack_mb : float;
}

(** FW, DPI, NAT, LB, LPM, Mon in the paper's order, then CKF and SYNP
    (not in the paper's Table 6). *)
val nfs : t list

val find : string -> t
val total_mb : t -> float

(** The four regions in bytes, for page packing. *)
val regions : t -> int list

(** [tlb_entries t ~page_sizes] — Table 6's right-hand columns. *)
val tlb_entries : t -> page_sizes:int list -> int

(** [max_entries ~page_sizes] over all eight NFs — what Table 5 sizes the
    per-core TLB by (CKF and SYNP never set the maximum). *)
val max_entries : page_sizes:int list -> int
