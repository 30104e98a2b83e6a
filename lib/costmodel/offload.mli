(** Why offload at all — the paper's §1 motivation, quantified.

    Three deployments of the same per-packet work:
    - on a host x86 core (fast core, but every packet pays a PCIe round
      trip and the core's much higher TCO);
    - on a plain smart-NIC core (slower core, no PCIe crossing, cheap);
    - on an S-NIC core (same, minus the isolation tax: the Figure 5 IPC
      degradation and the §5.2 TCO overhead).

    Outputs per-packet latency, per-core throughput, and dollars per
    Mpps of three-year capacity — the quantity behind "S-NIC preserves
    most of the TCO advantage". *)

type deployment = {
  name : string;
  core_ghz : float;
  cycles_per_packet : float;
  pcie_ns_each_way : float; (* 0 for on-NIC processing *)
  core_tco_usd : float; (* 3-year $/core (§5.2) *)
}

val host_x86 : deployment
val smartnic : deployment

(** [smartnic] plus the isolation tax: the paper's worst-case 1.7% IPC
    degradation and the §5.2 TCO overheads. *)
val snic : deployment

type result = {
  deployment : string;
  latency_ns : float; (* per-packet, including PCIe *)
  kpps_per_core : float;
  usd_per_mpps : float; (* 3-year cost per Mpps of capacity *)
}

val evaluate : deployment -> result

(** All three, host first. *)
val comparison : unit -> result list
