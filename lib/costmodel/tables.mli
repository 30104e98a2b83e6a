(** Structured generators for the silicon-cost tables (2–4) and the
    Table 5 rows, which lib/repro and the tests read instead of
    re-deriving multiplications. *)

type row = {
  label : string;
  entries : int; (* TLB entries per structure *)
  units : int; (* structures (cores / clusters / banks) *)
  area_mm2 : float; (* total across units *)
  power_w : float;
}

(** Table 2: {366,512,1024} MB/core × {4,8,16,48} cores. *)
val table2 : unit -> row list

(** Table 3: DPI/ZIP/RAID × {16,8,4} clusters. *)
val table3 : unit -> row list

(** Table 4: VPP and DMA banks × {12,6,3} units. *)
val table4 : unit -> row list

(** [table5_row ~label ~entries ~cores] — one page-size-menu row (the
    entry count comes from profiling, see [Memprof.Profiles]). *)
val table5_row : label:string -> entries:int -> cores:int -> row

(** [find rows ~label ~units] — one row, or [Invalid_argument]. *)
val find : row list -> label:string -> units:int -> row
