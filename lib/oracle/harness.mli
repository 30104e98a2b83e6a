(** Differential execution harness: one machine, one flat model, one op
    at a time.

    The harness owns a {!Nicsim.Machine} in the campaign's mode (S-NIC
    mode additionally gets the trusted-instruction state of
    {!Snic.Instructions}; commodity modes get a manager that mimics
    commodity firmware — no scrub on teardown, cores recycled lazily,
    accelerator MMIO left writable). Each slot holds at most one live
    tenant with a dedicated core, a private memory region filled with a
    recognizable secret, an optional DPI cluster, a host DMA window and
    optionally a packet-switch rule.

    [step] executes one {!Op.t} against the machine, predicts the
    outcome with {!Refmodel}, and files {!Refmodel.violation}s for
    every disagreement or isolation breach. Ops that do not apply to the
    current slot population (teardown of an empty slot, a read issued by
    a dead actor, ...) are skipped deterministically — the property that
    makes any subsequence of a trace replayable. *)

type t

(** [create ~mode ~slots] boots a fresh machine. [slots] must be in
    [1..8] (each slot gets its own core and DMA bank). *)
val create : mode:Nicsim.Machine.mode -> slots:int -> t

val mode : t -> Nicsim.Machine.mode
val slots : t -> int

(** Execute one op; any violations it provokes are appended. *)
val step : t -> Op.t -> unit

(** Ops that actually ran / were skipped as inapplicable. *)
val executed : t -> int

val skipped : t -> int

(** Violations so far, in execution order. *)
val violations : t -> Refmodel.violation list
