(** Deterministic saturation driver for VF fairness runs (one of the
    six scenarios of shape [Fleet.Run.S]).

    Attaches every VF of a fresh S-NIC machine, keeps all of them
    backlogged, serves roughly [cycles] full stage-1 rotations, and
    reports per-tenant goodput shares.  A run is a pure function of its
    parameters and seed — the CLI diffs two runs for the determinism
    gate, the bench baselines the totals. *)

type nic_result = {
  nic : int;
  vnics : int;
  scheduled_pkts : int;
  scheduled_bytes : int;
  rounds : int;  (** stage-1 quantum refills *)
  drops : int;  (** TX + RX quota drops (0 in a healthy run) *)
  report : Obs.Fairness.report;
  lat_report : Obs.Fairness.report;
      (** {!Obs.Fairness.latency_weighted_report} over each VF's p99
          inter-service gap — the same lower-is-better fairness scoring
          the QoS noisy-neighbor report uses. *)
}

type config = {
  nics : int;  (** independent NICs, each fully populated *)
  vfs : int;  (** VFs per NIC (1..4096) *)
  cycles : int;  (** stage-1 rotations to serve *)
  seed : int;
  table : Table.config;  (** VF table shape; [vfs] is overridden per NIC *)
}

type report = {
  nics : nic_result list;
  total_pkts : int;
  total_bytes : int;
  total_drops : int;
  total_rounds : int;
  jain_min : float;  (** worst per-NIC weighted Jain index *)
  max_rel_err : float;  (** worst per-NIC share error vs weights *)
  lat_jain_min : float;  (** worst per-NIC latency-weighted Jain index *)
}

val prefill_depth : int
(** Descriptors kept in flight per VF (well under the TX quota). *)

val run_nic :
  ?sink:Obs.sink ->
  ?config:Table.config ->
  nic:int ->
  cycles:int ->
  seed:int ->
  vnics:(int * int) list ->
  unit ->
  nic_result
(** Drive one NIC whose VF slot [i] hosts the [i]-th [(nf, weight)] of
    [vnics].  Raises [Invalid_argument] on [cycles < 1] or an empty
    vNIC list. *)

val default_vnics : nic:int -> vfs:int -> (int * int) list
(** [vfs] tenants with weights cycling 1, 2, 4, 8 down the VF ids. *)

val of_nics : nic_result list -> report
(** Totals and worst-case fairness over independently driven NICs. *)

val seed : config -> int
val with_seed : config -> int -> config

val validate : config -> (unit, string) result
(** At least 1 NIC, 1..4096 VFs per NIC, and a cycle count and stage-1
    quantum of at least 1. *)

val run : ?sink:Obs.sink -> ?domains:int -> config -> report
(** [nics] independent NICs, each fully populated via {!default_vnics}.
    The scenario has no rack to boot, so [domains] is ignored.  Raises
    [Invalid_argument] with {!validate}'s message on an invalid config. *)

val gates : report -> Obs.Gate.t list
(** What makes a VF run pass: [jain_min >= 0.95] and every tenant within
    5% of its weighted share ([max_share_err_pct <= 5]). *)

val nic_summary : nic_result -> string
(** One deterministic line (no timing) for a NIC. *)

val summary : report -> string
(** Per-NIC lines plus a totals footer; byte-identical across runs with
    the same parameters. *)
