(** The paper's evaluation stated once — Tables 1–8, §5.2, the §1
    offload comparison, Figures 5–8, §3.3 and eight ablations — as data
    that [bench/main.exe], [snic_cli paper] and EXPERIMENTS.md all read.
    Each entry computes rows of cells at print precision, at one
    parameter set (plus a smaller one for [bench --fast] where the paper
    scale is slow), and states its claims as {!Obs.Gate.t} entries: a
    paper value within one unit of the paper's last printed digit unless
    the claim says otherwise; a shape the paper states; or a known
    deviation, claimed at our value with the paper's in the key
    (["FW.flex_low (paper 34)"]).  Claims hold at the paper parameter
    set, over the paper's six NFs ({!Nf.Registry.paper}).  No entry
    reads host time. *)

type table = { title : string; header : string list; rows : string list list; notes : string list }
type output = { tables : table list; claims : Obs.Gate.t list  (** keys relative to the entry *) }
type entry

val all : entry list
(** In the order the bench prints them. *)

val id : entry -> string

val shrinks : entry -> bool
(** [--fast] runs it on a smaller parameter set, where its claims are not evaluated. *)

val run : fast:bool -> entry -> output

val claims : entry -> output -> Obs.Gate.t list
(** Keys prefixed with ["ID."]. *)

val to_text : entry -> output -> string
val to_csv : entry -> output -> string
(** What [snic_cli paper ID] prints and EXPERIMENTS.md embeds. *)

type colocation = { cotenancy : int list; samples : int; packets : int }

val fig5b : colocation
(** Figure 5b's paper-scale parameters, [snic_cli fig5]'s defaults. *)
