(** DDoS: the CuckooGuard pair under adversarial traffic.

    A seeded SYN-flood event stream ({!Trace.Attackgen.syn_flood}) is
    replayed through the SYN-cookie split proxy backed by a cuckoo-filter
    whitelist ({!Nf.Syn_proxy} -> {!Nf.Cuckoo}) once per protection mode.
    Per mode, the attacker's reach into the NF's private memory is probed
    with real machine accesses (the same checks as [lib/attacks]):

    - if a cross-tenant {e write} lands ([tampered]), the attacker flips
      whitelist bits and benign flows lose their admission;
    - if a cross-tenant {e read} lands ([key_stolen]), the attacker
      forges valid cookie echoes and saturates the fixed filter.

    Each mode reports benign goodput relative to an attack-free baseline
    pass, plus a no-defense conntrack proxy (per-SYN state at the same
    byte budget) that collapses under state exhaustion.  Memory of the
    protected pair stays flat at its reservation in every mode — the
    fixed-memory defense the paper's isolation model makes safe. *)

type config = {
  d_seed : int;
  d_benign_flows : int;
  d_attack_factor : int;  (** spoofed SYNs per benign packet *)
  d_packets_per_flow : int;  (** benign data packets after the handshake *)
  d_fp_bits : int;  (** whitelist fingerprint bits *)
  d_log2_buckets : int;  (** whitelist size: 2^k buckets x 4 slots *)
  d_conntrack_entry_bytes : int;  (** naive per-SYN state, unprotected pass *)
  d_corrupt_period : int;  (** tampered modes: one bit flip per k attack pkts *)
  d_modes : Nicsim.Machine.mode list;
}

val modes : Nicsim.Machine.mode list
(** The five evaluated protection modes (SE-UM with xkphys hiding). *)

val default_config : config
(** Seed 42, 256 benign flows, 10x attack factor, 2^10-bucket whitelist. *)

type mode_report = {
  dm_mode : Nicsim.Machine.mode;
  dm_tampered : bool;  (** a cross-tenant write landed in NF memory *)
  dm_key_stolen : bool;  (** a cross-tenant read of NF memory succeeded *)
  dm_baseline_goodput : int;  (** benign data pkts delivered, no attack *)
  dm_goodput : int;  (** benign data pkts delivered under attack *)
  dm_unprotected_goodput : int;  (** naive conntrack proxy, no cookies *)
  dm_goodput_ratio : float;
  dm_unprotected_ratio : float;
  dm_attack_pkts : int;
  dm_attack_dropped : int;
  dm_benign_dropped : int;
  dm_challenges : int;
  dm_admitted : int;
  dm_forged_admits : int;  (** key-stolen modes: forged cookies accepted *)
  dm_corrupt_flips : int;  (** tampered modes: filter bits flipped *)
  dm_whitelist_load : float;
  dm_mem_reserved_bytes : int;  (** proxy whitelist + tracker, fixed *)
  dm_mem_peak_bytes : int;
  dm_mem_flat : bool;  (** peak = reserved: the fixed-reservation story *)
  dm_unprotected_mem_peak_bytes : int;
  dm_unprotected_mem_wanted_bytes : int;  (** per-SYN state demand *)
}

type report = {
  d_config : config;
  d_mode_reports : mode_report list;
  d_benign_pkts : int;
  d_attack_pkts : int;
  d_events_digest : int;  (** attack-generator determinism fingerprint *)
  d_snic_goodput_ratio : float;
  d_snic_mem_flat : bool;
  d_snic_tampered : bool;
  d_snic_key_stolen : bool;
}

(** {!Run.S} for the flood.  [validate]: at least 1 benign flow, an
    attack factor, packets per flow and a corrupt period of at least 1,
    a whitelist of 2^1..2^28 buckets, and at least one mode.  [run], per
    mode: probe the attacker's reach, then run the attack-free baseline,
    the protected pass and the no-defense conntrack pass over the same
    seeded event stream; [sink] receives the [ddos_*] counters of the
    protected passes, and [domains] is ignored (no rack).  [summary]
    ends with ["invariants: snic_goodput=1.0000 snic_mem_flat=1
    snic_tampered=0 snic_key_stolen=0"] on a passing run.  [gates], all
    in S-NIC mode: [snic.goodput_ratio >= 0.8], [snic.mem_flat = 1],
    [snic.tampered = 0] and [snic.key_stolen = 0]. *)
include Run.S with type config := config and type report := report

(** {2 CuckooGuard plumbing}

    Shared with {!Fabric_scenario}, which splits the same pair across
    two NICs. *)

val syn_flood :
  Trace.Rng.t -> benign_flows:int -> attack_factor:int -> packets_per_flow:int -> Trace.Attackgen.event list
(** The seeded {!Trace.Attackgen.syn_flood} stream, oldest first. *)

val proxy : name:string -> seed:int -> fp_bits:int -> log2_buckets:int -> Nf.Syn_proxy.t
(** The SYN-cookie proxy with its whitelist; its cookie key is derived
    from [name] and [seed]. *)

val tracker : seed:int -> fp_bits:int -> log2_buckets:int -> Nf.Cuckoo.nf_state
(** The cuckoo flow tracker behind the proxy. *)

val packet : ?payload:string -> Nf.Syn_proxy.t -> Trace.Attackgen.event -> Net.Packet.t
(** The event's TCP packet.  Without [payload], it carries by kind the
    proxy's SYN marker, a valid cookie echo for a benign ACK, a guessed
    one for an attack ACK, or a lowercase data payload that cannot
    collide with either. *)
