(** Per-NF memory-access streams for the cache/bus timing model.

    The paper's Figure 5 runs the real NF binaries under gem5. Our
    substitute instruments the real OCaml NF implementations: each NF's
    probe callback reports the table slots / automaton states it actually
    touches while processing a seeded ICTF-like trace (Zipf 1.1 flow
    popularity, as §5.3), and those probes are mapped onto a synthetic
    address space sized to the NF's measured working set (Table 6). Each
    packet also contributes streaming accesses over its payload bytes. *)

type t = {
  nf : string;
  addrs : int array; (* line-granular physical addresses, in order *)
  packets : int; (* packets the stream covers *)
  instructions : int; (* modeled dynamic instruction count *)
  exec_cycles_per_access : int; (* compute between recorded accesses *)
}

(** [stream ?packets ?seed name] builds (and memoizes) the stream for one
    of the eight NFs in {!names}. DPI builds its full 33,471-pattern automaton once. *)
val stream : ?packets:int -> ?seed:int -> string -> t

(** [rebase t ~domain] shifts every address into a disjoint per-domain
    window so colocated instances never alias. *)
val rebase : t -> domain:int -> t

(** The paper's six NF names in its order, then CKF and SYNP. *)
val names : string list

(** Modeled working-set bytes of the primary region (for tests). *)
val working_set_bytes : string -> int
