(** Reproductions of the three concrete attacks of §3.3.

    Each attack is written once, purely in terms of the malicious NF's
    machine-checked memory accesses, and run against every NIC mode; the
    mode decides whether it succeeds. The paper demonstrated packet
    corruption and DPI-ruleset stealing on a LiquidIO (SE-S mode) and the
    IO-bus DoS on an Agilio; S-NIC is designed to stop all three. *)

module Scenario = Scenario
module Safebricks = Safebricks
module Replays = Replays

type outcome = {
  mode : Nicsim.Machine.mode;
  succeeded : bool;
  detail : string; (* what the attacker achieved, or why it faulted *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Attack 1 — packet corruption}

    A MazuNAT-style victim receives a packet; the malicious NF scans the
    buffer allocator's DRAM metadata to locate the victim's packet buffer
    and flips header bytes in place. Success = the victim's packet no
    longer passes checksum verification when it processes it. *)
val packet_corruption : Nicsim.Machine.mode -> outcome

(** {2 Attack 2 — DPI ruleset stealing}

    The victim stores its DPI patterns (length-prefixed) in its private
    region; the malicious NF locates the region via allocator metadata
    and exfiltrates the patterns. Success = at least half the victim's
    patterns recovered verbatim. *)
val ruleset_stealing : Nicsim.Machine.mode -> outcome

(** {2 Attack 3 — IO bus denial of service}

    The attacker saturates the internal bus with long atomic operations
    (the Agilio [test_subsat] loop). We measure the victim's packet rate
    with and without the attack under both arbitration policies. *)
type dos_result = {
  policy : Nicsim.Bus.policy;
  alone_pps : float;
  under_attack_pps : float;
  retained : float; (* under_attack / alone *)
}

val bus_dos : Nicsim.Bus.policy -> dos_result

(** Bus cycles one attacker op occupies.  A [Temporal] policy runs
    {!bus_dos} only if its usable epoch ([epoch - dead]) is at least
    this long. *)
val attacker_op_cost : int

(** {2 Attack 4 — accelerator hijacking (§4.3)}

    The victim registers its DPI rule graph by writing the graph pointer
    into its cluster's memory-mapped configuration registers. On
    commodity NICs those registers are writable by anyone, so the
    attacker re-points the victim's cluster at an attacker-controlled
    graph. S-NIC maps each cluster's registers privately into the owning
    function's address space. *)
val accel_hijack : Nicsim.Machine.mode -> outcome

(** Run attacks 1 and 2 across all five modes (the table the §3.3
    narrative implies). *)
val matrix : unit -> (string * outcome * outcome) list

(** {2 Timing side channels}

    Beyond overt corruption, §3.2/§4.5 describe *covert* channels through
    shared hardware. Two are reproduced:

    - a bus covert channel: a sender NF modulates its bus usage to encode
      bits; a colocated receiver decodes them by timing its own memory
      operations. Temporal partitioning flattens the receiver's timings,
      collapsing accuracy to a coin flip.
    - accelerator contention (the Agilio crypto-unit observation): on a
      shared accelerator, a probe request's latency reveals whether
      another tenant is using it; a dedicated S-NIC cluster reveals
      nothing. *)

type covert_result = {
  policy : Nicsim.Bus.policy;
  bits : int;
  decoded : int; (* correctly decoded *)
  accuracy : float;
}

(** [bus_covert_channel policy] sends a pseudo-random 64-bit message. *)
val bus_covert_channel : Nicsim.Bus.policy -> covert_result

type accel_probe_result = {
  shared : bool;
  idle_latency : int; (* probe latency with the victim idle *)
  busy_latency : int; (* probe latency with the victim hammering *)
  distinguishable : bool;
}

(** [accel_contention ~shared] probes a DPI engine. *)
val accel_contention : shared:bool -> accel_probe_result
