(** Seeded oracle campaigns: generate, execute, report, replay.

    A campaign is fully determined by (mode, slots, ops, seed): the op
    stream is drawn from {!Trace.Rng} independently of execution, so the
    same seed reproduces the same trace byte-for-byte — and any explicit
    op list (a [--replay] file, a shrunk counterexample) runs through
    {!replay} with identical semantics. *)

type report = {
  mode : Nicsim.Machine.mode;
  seed : int option; (* None for explicit-trace replays *)
  ops : int; (* ops driven at the harness *)
  executed : int;
  skipped : int;
  violations : Refmodel.violation list; (* execution order *)
}

(** Stable short mode identifiers for CLIs, trace files and CI: "se-s",
    "se-um", "se-um-xk", "agilio", "bluefield", "snic". *)
val mode_id : Nicsim.Machine.mode -> string

val mode_of_id : string -> Nicsim.Machine.mode option

(** All five architectures (SE-UM in both flavours), commodity first. *)
val all_modes : Nicsim.Machine.mode list

(** The default slot population (6). *)
val default_slots : int

(** [gen_ops ?fabric ~slots ~ops ~seed ()] draws the op stream a seeded
    campaign executes. Generation never consults execution state, so the
    stream depends on the seed alone.  [fabric] (default false) mixes
    the attested-channel ops into the alphabet; the default stream is
    byte-identical to what older campaigns drew, so pinned digests stay
    valid. *)
val gen_ops : ?fabric:bool -> slots:int -> ops:int -> seed:int -> unit -> Op.t list

(** [replay ?slots ~mode ops] runs an explicit op list on a fresh
    harness. *)
val replay : ?slots:int -> mode:Nicsim.Machine.mode -> Op.t list -> report

(** [run ?slots ?fabric ~mode ~ops ~seed ()] = [gen_ops] + [replay],
    with [seed] recorded in the report. *)
val run : ?slots:int -> ?fabric:bool -> mode:Nicsim.Machine.mode -> ops:int -> seed:int -> unit -> report

(** [run_sharded ?domains ~mode ~ops ~seed ~shards ()] runs [shards]
    independent campaigns of [ops] ops each, shard [i] seeded with
    [Par.Seed.derive ~seed ~shard:i], fanned across [domains] OCaml
    domains (default 1).  Reports come back in shard order regardless of
    completion order, each carrying its derived seed — so shard [i] of
    any parallel run reproduces alone via
    [run ~mode ~ops ~seed:(Par.Seed.derive ~seed ~shard:i) ()].  The
    result is byte-identical for every [?domains] value
    (PARALLELISM.md spells out the contract; [test/test_par.ml] and the
    CI [par-smoke] job enforce it). *)
val run_sharded :
  ?domains:int ->
  ?slots:int ->
  ?fabric:bool ->
  mode:Nicsim.Machine.mode ->
  ops:int ->
  seed:int ->
  shards:int ->
  unit ->
  report array

(** Violations per class, in {!Refmodel.all_classes} order, zero-count
    classes included. *)
val counts : report -> (Refmodel.cls * int) list

(** Human-readable, deterministic summary (counts per class and the
    first violation of each class). *)
val to_string : report -> string

(** {2 Trace files}

    Line-oriented: a [# ...] comment header, a [mode <id>] directive, an
    optional [slots <n>] directive, then one {!Op.to_line} per line.
    Blank lines and further comments are ignored. *)

val trace_to_string : mode:Nicsim.Machine.mode -> slots:int -> Op.t list -> string

(** Strict parse; [Error] names the offending line. *)
val trace_of_string : string -> (Nicsim.Machine.mode * int * Op.t list, string) result
