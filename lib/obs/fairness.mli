(** Jain's fairness index and weighted goodput-share reports.

    The scalar OSMOSIS-style fairness measure for a multi-tenant
    datapath: [jain xs] is [(sum xs)^2 / (n * sum xs^2)] — 1.0 for a
    perfectly even allocation, [1/n] when one party takes everything.
    For weighted schedulers, {!weighted_report} normalizes each party's
    goodput by its weight before scoring, so weight-proportional service
    also scores 1.0. *)

val jain : float list -> float
(** Jain's fairness index; 1.0 on the empty or all-zero list. *)

type row = {
  id : int;
  value : float;  (** raw goodput (bytes, packets...) *)
  weight : float;
  share : float;  (** value / total value *)
  expected : float;  (** weight / total weight *)
}

type report = {
  rows : row list;
  index : float;  (** Jain's index over weight-normalized goodput *)
  max_rel_err : float;  (** worst [|share - expected| / expected] *)
}

val weighted_report : (int * float * float) list -> report
(** [weighted_report [(id, goodput, weight); ...]] scores how close the
    observed goodput split is to the configured weight split. *)

val latency_weighted_report : (int * float * float) list -> report
(** [latency_weighted_report [(id, p99, weight); ...]] — the weighted
    latency variant: a weight-[w] tenant is expected to see a tail
    [~w] times shorter, so the report is {!weighted_report} over
    [(id, 1/p99, weight)].  Row [value]s are service rates. *)

val summary : report -> string
(** Multi-line human-readable table with a jain/max-err footer. *)
