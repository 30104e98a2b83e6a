(** One shape for every seeded scenario: fleet, the chaos storm, QoS,
    DDoS, the attested fabric and VF fairness all match {!S}, so the CLI
    validates, shards, runs and gates them through one path, and
    [test/test_scenarios.ml] holds them to one law table. *)

module type S = sig
  type config
  type report

  val seed : config -> int
  val with_seed : config -> int -> config

  val validate : config -> (unit, string) result
  (** [Error msg] names the first setting out of range. *)

  val run : ?sink:Obs.sink -> ?domains:int -> config -> report
  (** Deterministic: one config, one byte-identical {!summary}.  [sink]
      (default {!Obs.null}) receives the run's counters and spans;
      [domains] (default 1) fans out rack boots and never changes the
      report.  Raises [Invalid_argument msg] when
      [validate config = Error msg]. *)

  val summary : report -> string
  (** Ends with a stable, greppable [invariants:] line. *)

  val gates : report -> Obs.Gate.t list
  (** What makes the run pass. *)
end

val many :
  (module S with type config = 'c and type report = 'r) ->
  ?domains:int ->
  ?record:bool ->
  shards:int ->
  'c ->
  (int * 'r * Obs.sink) array
(** [many (module M) ?domains ?record ~shards config] runs shard [i]
    under [Par.Seed.derive ~seed:(M.seed config) ~shard:i], fanned
    across [domains] (default 1) domains, each shard on one.  It returns
    each shard's seed, report and sink in shard order, the same for any
    [domains]; a shard replays alone as [M.run (M.with_seed config
    seed)].  With [record] (default false) each shard gets its own
    recording sink for the caller to merge ([Obs.Metrics.merge_into]),
    else {!Obs.null} (see PARALLELISM.md). *)

val check : (bool * string) list -> (unit, string) result
(** [Error msg] for the first [(false, msg)], else [Ok ()]. *)

val valid : (unit, string) result -> unit
(** Raises [Invalid_argument msg] on [Error msg]. *)
