(** Noisy-neighbor / starvation scenarios.

    The performance-isolation counterpart of the fault storm
    ({!Chaos}): tenant 0 floods the rack's shared IO fabric (bus, DMA,
    accelerator) while the remaining tenants run small
    latency-sensitive requests under an SLO.  The fabric is fronted by a {!Nicsim.Qos} credit arbiter and
    the {!Supervisor} watches per-round SLO deltas, quarantining the
    {e aggressor tenant} (drain + probation readmission) when victim
    violations are sustained.  An identical-seed pass with the arbiter
    bypassed provides the unprotected baseline.  Deterministic: same
    seed, byte-identical summary. *)

type config = {
  q_seed : int;
  q_tenants : int; (* tenant 0 is the aggressor; >= 2 *)
  q_rounds : int;
  q_requests : int; (* victim requests per tenant per round *)
  q_factor : int; (* aggressor load multiplier *)
  q_slo : int; (* victim latency SLO, cycles *)
  q_starve : bool; (* zero structural slack: capacity = sum of guarantees *)
}

(** seed 42, 8 tenants (1 aggressor + 7 victims), 8 rounds of 40 victim
    requests at 8x aggressor load, 2k-cycle SLO, structural slack
    enabled.  The rack is always 4 NICs (first-fit) and the arbiter's
    accounting epoch always 10k cycles. *)
val default_config : config

type tenant = {
  qt_tid : int;
  qt_aggressor : bool;
  qt_grants : int;
  qt_throttles : int;
  qt_borrowed : int; (* credits granted beyond the guarantee *)
  qt_share : float; (* worst-resource granted/requested fraction *)
  qt_p50 : float option; (* latency quantiles, cycles *)
  qt_p90 : float option;
  qt_p99 : float option;
  qt_samples : int;
  qt_slo_violations : int;
  qt_quarantined : bool; (* breaker went Open at least once *)
}

type report = {
  q_config : config;
  q_outcomes : tenant list; (* tenant 0 first *)
  q_victim_p99 : float option; (* worst victim p99 over the whole run *)
  q_victim_p99_steady : float option; (* worst victim p99, final round *)
  q_unprotected_p99 : float option; (* worst victim p99, arbiter bypassed *)
  q_share_min : float; (* min victim guaranteed-share kept — floor 0.9 *)
  q_starved : int; (* victims with zero grants — must be 0 *)
  q_aggressor_throttles : int;
  q_quarantines : int; (* noisy-tenant breaker trips *)
  q_readmissions : int;
  q_slo_violations : int;
  q_lat_fairness : Obs.Fairness.report; (* jain over victim 1/p99 *)
}

(** {!Run.S} for the noisy neighbor.  [validate]: at least 2 tenants
    (an aggressor and a victim), 1 round, one request per accounting
    epoch (4), and a factor and SLO of at least 1.  [run]: the protected
    pass (arbiter + supervisor), then the unprotected baseline pass.
    [summary] ends with ["invariants: starved_victims=0 share_min=...
    aggressor_quarantined=1"].  [gates]: [share_min >= 0.9], the
    steady-state [victim_p99_steady_cycles <= q_slo] (a missing p99
    fails) and [starved_victims = 0]. *)
include Run.S with type config := config and type report := report

(** ["-"] for [None], ["7056cyc"] for [Some] — the cycle-domain
    counterpart used by the QoS summary and bench. *)
val cycles_str : float option -> string
