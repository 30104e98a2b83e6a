(** Attested NIC-to-NIC channels carrying a cross-NIC NF chain.

    The CuckooGuard pair ({!Ddos_scenario}) is split across two NICs —
    SYN proxy on NIC 0, cuckoo flow tracker on NIC 1 — and every
    inter-stage packet crosses a {!Fabric.Channel} whose key came out of
    the full attestation handshake on both endpoints.  A seeded benign stream establishes
    flows through the split chain; then

    - the tracker NIC is killed mid-stream: establishment to the dead
      NIC must fail closed, the stage is re-launched on the spare,
      re-attested, re-linked, and the old sender's replay buffer is
      replayed so the rebuilt tracker recovers the admitted flows;
    - an adversary re-delivers captured wire frames verbatim (in-window
      — must bounce as replays), pre-window (must bounce as stale) and
      bit-flipped (must fail the MAC);
    - establishment probes with a mis-staged image and with a cloned EK
      under a fabricated NIC id must be refused with typed errors.

    Benign frames must never trip the authenticator, and goodput with
    the failover must match the failure-free baseline pass. *)

type config = {
  f_seed : int;
  f_nics : int;  (** >= 3: proxy NIC, tracker NIC, failover spare *)
  f_flows : int;  (** benign flows in the seeded stream *)
  f_packets_per_flow : int;
  f_window : int;  (** receiver anti-replay window (1..62) *)
  f_buffer : int;  (** sender replay-buffer capacity (failover state) *)
  f_replay : int;  (** adversarial re-deliveries of in-window frames *)
  f_reorder : int;  (** adversarial re-deliveries of pre-window frames *)
  f_tamper : int;  (** adversarial bit-flipped frames *)
  f_kill : bool;  (** kill the tracker NIC mid-run and fail over *)
  f_fp_bits : int;  (** whitelist fingerprint bits *)
  f_log2_buckets : int;  (** whitelist size: 2^k buckets x 4 slots *)
  f_bytes_per_mb : int;
}

val default_config : config
(** Seed 42, 3 NICs, 96 flows, window 32, one mid-run NIC kill. *)

type report = {
  f_config : config;
  f_benign_pkts : int;
  f_events_digest : int;  (** generator determinism fingerprint *)
  f_handshakes : int;  (** successful attested establishments *)
  f_hops : int;  (** frames that crossed an inter-NIC link *)
  f_admitted : int;  (** flows the proxy admitted to the whitelist *)
  f_baseline_goodput : int;  (** benign data pkts delivered, no failure *)
  f_goodput : int;  (** ... with the mid-run NIC kill + failover *)
  f_goodput_ratio : float;
  f_benign_mac_failures : int;  (** must stay 0 *)
  f_replay_sent : int;
  f_replay_rejected : int;
  f_stale_sent : int;
  f_stale_rejected : int;
  f_tamper_sent : int;
  f_tamper_rejected : int;
  f_failed_over : bool;  (** the tracker stage was re-homed *)
  f_dead_establish_refused : bool;  (** channel to the dead NIC refused *)
  f_state_replayed : int;  (** buffered payloads replayed into the new stage *)
  f_state_recovered : int;  (** admitted flows present in the rebuilt tracker *)
  f_misstage_rejected : bool;  (** mis-staged image -> [Attest_failed] *)
  f_clone_rejected : bool;  (** cloned EK under a new NIC id -> [Identity_reuse] *)
}

(** {!Run.S} for the chain.  [validate]: at least 3 NICs, 1 flow and 1
    packet per flow, a window within 1..62, and no negative buffer or
    adversarial count.  [run]: a failure-free baseline pass, then the
    instrumented pass with the NIC kill and the adversarial replays,
    then the two negative establishment probes; [sink] receives the
    [fabric_*] counters and per-hop spans of the instrumented pass, and
    [domains] parallelises the rack boots.  [summary] ends with
    ["invariants: benign_mac_fail=0 replay_rejects=24/24
    stale_rejects=24/24 tamper_rejects=16/16 goodput_ratio=1.0000
    failover=1 fail_closed=1"] on a passing default run.  [gates]:
    [goodput_ratio >= 0.9], [benign_mac_failures = 0],
    [adversary_all_rejected = 1] (every replayed, stale and tampered
    frame bounced), [fail_closed = 1], and [failed_over = 1] when
    [f_kill] is on. *)
include Run.S with type config := config and type report := report

val fail_closed : report -> bool
(** Every establishment that had to be refused was refused: mis-staged
    image, cloned identity, and (when the kill ran) the dead NIC. *)
