(** Cross-NIC NF chains: one logical pipeline whose stages live on
    different NICs, every inter-stage hop crossing an authenticated
    {!Channel} (the SuperNIC-style disaggregation the ROADMAP names).

    A packet is processed by stage 0; a [Forward] verdict serializes it,
    sends it over the hop's channel, authenticates it on the far side,
    re-parses it and hands it to the next stage.  Every hop bumps the
    [fabric_hop] counter and emits one trace span on the fabric track
    range (930 + hop index). *)

type stage = { st_nic : int; st_name : string; st_nf : Nf.Types.t }

type outcome =
  | Delivered of Net.Packet.t  (** the last stage forwarded it *)
  | Dropped_at of int  (** stage [i]'s NF dropped it — a verdict, not a failure *)
  | Link_reject of { hop : int; error : Channel.recv_error }
      (** the hop's receiver refused the frame (MAC / replay / window) *)

val outcome_to_string : outcome -> string

type t

(** [create ?sink stages ~links] — [links] connects consecutive stages,
    so it must hold exactly [List.length stages - 1] channel pairs.
    Raises [Invalid_argument] on a length mismatch or an empty chain. *)
val create : ?sink:Obs.sink -> stage list -> links:(Channel.tx * Channel.rx) list -> t

val stages : t -> int

(** Frames that crossed an inter-NIC link so far (all hops). *)
val hop_count : t -> int

(** Sum of {!Channel.mac_failures} over every link. *)
val mac_failures : t -> int

val replay_rejects : t -> int
val stale_rejects : t -> int

(** The sender half of hop [i] (stage [i] -> stage [i+1]) — the fabric
    scenario uses it to forge adversarial wire frames. *)
val link_tx : t -> hop:int -> Channel.tx

val link_rx : t -> hop:int -> Channel.rx

(** [feed t pkt] pushes one packet through the whole chain. *)
val feed : t -> Net.Packet.t -> outcome

(** [relink t ~hop stage link] re-homes the stage {e downstream} of
    [hop] (stage [hop + 1]) onto a fresh NIC: installs the re-placed
    stage and its new channel, then replays the old sender's buffered
    payloads through the new link into the new stage so its flow state
    (whitelists, trackers) catches up.  Replayed frames stop at the
    re-placed stage — they already traversed the rest of the chain
    before the failure.  Returns the number of payloads replayed.
    Raises [Invalid_argument] on a hop index out of range. *)
val relink : t -> hop:int -> stage -> Channel.tx * Channel.rx -> int
