(** The self-healing layer: health checks, bounded retry with backoff,
    circuit-breaker quarantine, and an accelerator watchdog.

    {!Failure} recovers from *fail-stop* losses (a NIC dies, an NF is
    destroyed). This module handles the *gray* failures {!Faults} injects:
    devices that are still up but stalling, corrupting, or hanging. The
    supervisor reacts only through the public control-plane API — place,
    evict, and {!Orchestrator.destroy_verified}, the one verified teardown
    it shares with {!Failure} — so every recovery path exercises the same
    attestation and scrub machinery as a first placement, and the paper's
    invariants (no unattested function runs; teardown scrubs) are
    re-verified rather than assumed after every repair.  The supervisor
    adds only the scrub's cost on its clock and the eviction timestamp
    behind each recovery sample.

    One circuit breaker serves both the NICs and the tenants (see
    {!breaker}); a NIC trip also quarantines the NIC, a tenant trip only
    the tenant's NFs.

    Its settings are constants, not a config: up to 6 placement attempts
    with backoff from 50k cycles (capped at 5M) plus up to a quarter of
    jitter; 600k cycles charged per attestation and 120k per verified
    scrub; a NIC health score that loses 7 per device fault and 20 per
    failed probe, regains 15 per tick and trips below 40; a round is bad
    for a tenant when over half its requests miss their SLO, and two bad
    rounds in a row are a sustained violation; a 50M-cycle
    {!watchdog_budget}.

    All randomness (backoff jitter) comes from one seeded stream, and
    time is a logical cycle clock, so a seeded run replays its recovery
    schedule byte for byte. *)

(** Circuit breaker, per NIC and per tenant: [Closed] (healthy) →
    [Open] (quarantined until the round shown: 2 rounds on the first
    trip, doubling per re-trip up to 32) → [Probation] (readmitted for 2
    rounds, re-trips at the first relapse) → [Closed]. *)
type breaker = Closed | Open of { until_round : int } | Probation of { until_round : int }

type t

(** [create ~seed orch] — the supervisor's jitter stream derives from
    [seed]; recovery-latency samples are also observed into the
    [fleet_recovery_ms] histogram of the orchestrator's telemetry
    registry. *)
val create : seed:int -> Orchestrator.t -> t

(** The logical cycle clock (advanced by ticks and backoff waits). *)
val clock : t -> int

(** [No_capacity] placement outcomes — failures retrying cannot fix. *)
val alarms : t -> int

(** Teardowns whose RAM was not zero afterwards — must stay 0. *)
val scrub_failures : t -> int

(** Current health score of a NIC, clamped to [0, 100]. *)
val health : t -> nic:int -> int

(** Current circuit-breaker state of a NIC. *)
val breaker : t -> nic:int -> breaker

(** {2 Per-tenant SLO supervision}

    Sustained SLO violation is a health signal like any other — but the
    faulty unit is a {e tenant}, not a NIC: one noisy neighbor
    over-consuming shared credit degrades its victims' tails while
    every NIC stays healthy.  {!note_qos} therefore drives a
    per-tenant instance of the same breaker state machine, and a trip
    quarantines the {e noisy tenant's} NFs (drain with verified scrubs,
    re-place on probation) instead of the hosting NIC. *)

(** One tenant's round deltas, reported from a {!Nicsim.Qos} arbiter:
    SLO violations and latency samples this round, plus the credits it
    consumed beyond its guarantee (the noisiness signal used for
    attribution when a victim's violation is sustained). *)
type qos_round = { violations : int; samples : int; over_credits : int }

(** [note_qos t ~round stats] — one SLO supervision pass over per-tenant
    round deltas.  Expires quarantine windows into probation (re-placing
    the drained tenant), closes clean probations, marks a tenant's round
    bad when over half its samples violated the SLO, and on a sustained
    violation (two consecutive bad rounds) trips the breaker of the top
    over-guarantee consumer, with the NIC breaker's windows.  {!tick}
    does not re-place a tenant while its breaker is [Open]. *)
val note_qos : t -> round:int -> (int * qos_round) list -> unit

(** Current breaker state of a tenant ([Closed] if never reported). *)
val tenant_breaker : t -> tenant:int -> breaker

(** [place_with_retry t tenant] — {!Orchestrator.replace} under bounded
    retry: transient failures (stage faults, attestation rejections)
    back off exponentially with seeded jitter and try again, up to 6
    attempts; [No_capacity] alarms and returns immediately. *)
val place_with_retry : t -> Orchestrator.tenant -> (unit, Orchestrator.place_error) result

(** [note_evict t tenant] — evict, timestamping the displacement so the
    eventual re-attestation yields a recovery-latency sample. *)
val note_evict : t -> Orchestrator.tenant -> unit

(** Cycles an accelerator canary may take before {!tick}'s watchdog
    fails its NF over. *)
val watchdog_budget : int

(** One supervision pass: score every alive NIC from fault telemetry and
    active probes (bus heartbeat, DMA pattern loopback), run breaker
    transitions (trip → orderly drain with verified scrubs → probation →
    readmission), sweep accelerator watchdog canaries, then re-place all
    stranded tenants. *)
val tick : t -> round:int -> unit

(** Fault→re-attested latency samples, in milliseconds at 1.2 GHz,
    oldest first. *)
val recovery_samples_ms : t -> float list

(** [recovery_quantile_ms t q] — the [q]-quantile (in [0,1]) of the
    recovery samples via {!Obs.Metrics.quantile_of_samples}: [None]
    until at least 2 samples exist (a single displacement has no p99). *)
val recovery_quantile_ms : t -> float -> float option
