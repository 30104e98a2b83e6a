(** SR-IOV-style virtual functions over one machine.

    A VF table multiplexes hundreds of tenant vNICs over one
    [Nicsim.Machine]: VF id -> (tenant NF, weight, TX/RX descriptor
    queues, one page of MMIO doorbell/ring window), with transmit order
    decided by the two-stage [Sched.Hier] scheduler — stage 1 weighted
    round robin across VFs, stage 2 per-flow DRR inside the chosen VF.

    Isolation: the window page is allocated through [Alloc] (on S-NIC as
    the tenant's single-owner RAM, on commodity NICs as NIC-OS BAR
    space), so the machine's own access checks police every doorbell and
    ring read.  TX/RX quotas are charged strictly per VF: one tenant's
    backlog can never consume another VF's descriptors. *)

type config = {
  vfs : int;  (** VF slots in the table *)
  quantum : int;  (** stage-1 byte quantum per weight unit *)
  tx_quota : int;  (** max queued TX descriptors per VF *)
  rx_quota : int;  (** max queued RX descriptors per VF *)
}

val default_config : config
(** 256 VFs, 1 KiB stage-1 quantum, 128/64 TX/RX descriptors per VF.
    Stage 2's per-flow DRR quantum is always 1 KiB. *)

type desc = { flow : int; bytes : int }
(** A queued descriptor: flow key and frame bytes. *)

type t

val create : Nicsim.Machine.t -> config -> t
(** Raises [Invalid_argument] on a non-positive VF count or quota. *)

val config : t -> config
val machine : t -> Nicsim.Machine.t

val track_vf : int
(** Trace track id for VF scheduler events (after pktio's 910). *)

val set_sink : t -> Obs.sink -> track:int -> unit
(** Route per-VF counters and stage-1 quantum instants to [sink]. *)

val attach : t -> vf:int -> nf:int -> weight:int -> (int, string) result
(** [attach t ~vf ~nf ~weight] brings a VF up for tenant [nf]: allocates
    its page-aligned window, writes the deterministic ring pattern, and
    registers the VF with the stage-1 scheduler at [weight].  Returns
    the window base.  Errors if the slot is already attached or NIC
    memory is exhausted; raises on an out-of-range [vf] or [weight < 1]. *)

val detach : t -> vf:int -> unit
(** Tear the VF down: drop its queued descriptors, scrub the window (on
    S-NIC; BlueField clears the secure-world mark), free the page, and
    remove the VF from the scheduler.  Idempotent on detached slots. *)

val attached : t -> vf:int -> bool
val attached_count : t -> int
val owner_nf : t -> vf:int -> int option
val weight : t -> vf:int -> int option
val window_base : t -> vf:int -> int option

val window_pattern : vf:int -> string
(** The full window-page image written at attach: 8 zero bytes of
    doorbell register, then a per-VF ring pattern.  Pure, so a reference
    model can predict ring reads byte-for-byte. *)

val doorbell :
  t -> principal:Nicsim.Machine.principal -> vf:int -> value:int -> (unit, Nicsim.Machine.fault) result
(** Ring the VF's doorbell: a u64 store at window offset 0, issued as
    [principal] and subject to the machine's access policy.  Raises if
    the VF is not attached. *)

val queue_read :
  t -> principal:Nicsim.Machine.principal -> vf:int -> len:int -> (string, Nicsim.Machine.fault) result
(** Read [len] bytes of the VF's descriptor-ring window (offset 8 on;
    [len] clamps to the window).  The cross-VF probe the oracle drives. *)

val tx_submit : t -> vf:int -> flow:int -> bytes:int -> bool
(** Queue one TX descriptor.  [false] (and a [Vf_drop] count) when the
    VF is detached or its own quota is full — other VFs' backlogs never
    affect admission. *)

val tx_next : t -> (int * desc) option
(** Next descriptor per the two-stage schedule, with its VF id. *)

val tx_backlog : t -> vf:int -> int

val rx_push : t -> vf:int -> desc -> bool
(** Deliver one RX descriptor to the VF's bounded RX queue. *)

val rx_pop : t -> vf:int -> desc option
val rx_depth : t -> vf:int -> int

type stats = {
  tx_bytes : int;
  tx_pkts : int;
  tx_drops : int;
  rx_drops : int;
  doorbells : int;
  last_doorbell : int;
}

val stats : t -> vf:int -> stats
(** Per-VF counters since the last attach. *)

val scheduled : t -> int
(** Total descriptors scheduled out of the table. *)

val rounds : t -> int
(** Stage-1 quantum refills so far. *)

val goodput : t -> (int * int * int) list
(** [(vf, weight, tx_bytes)] for every attached VF, ascending by id. *)

val fairness : t -> Obs.Fairness.report
(** Weighted goodput-share report over the attached VFs. *)
