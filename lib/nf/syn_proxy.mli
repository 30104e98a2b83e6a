(** CuckooGuard-style SYN-cookie split proxy (short name "SYNP"): SYN
    floods are absorbed statelessly.  A SYN is answered with a cookie —
    a truncated HMAC-SHA256 over the 5-tuple and a coarse epoch — and
    dropped; a client that echoes the cookie proves liveness and earns a
    slot in the fixed-memory {!Cuckoo} whitelist, after which its data
    forwards.  Spoofed sources never see the cookie, so attack memory
    cost is zero: {!memory_bytes} is flat at the filter's reservation.

    [Net.Packet.t] carries no TCP flags, so the handshake rides on a
    payload convention: payload "SYN" is a SYN, "ACK:<hex>" the cookie
    echo, anything else data.  UDP passes through untouched. *)

type t

(** [create ~key ()] keys the cookie HMAC once ({!Crypto.Hmac.keyed}).
    A proxy is mutable and has one owner: every cookie it computes is
    written into the same message buffer. *)
val create :
  ?probe:Types.probe -> ?filter_seed:int -> ?fp_bits:int -> ?log2_buckets:int -> key:string -> unit -> t

(** Current-epoch cookie for a flow (what a SYN is answered with). *)
val cookie : t -> Net.Five_tuple.t -> string

(** Cookie for an explicit epoch — lets tests build stale cookies. *)
val cookie_at : t -> epoch:int -> Net.Five_tuple.t -> string

(** True for the current- or previous-epoch cookie of [flow]. *)
val validate : t -> Net.Five_tuple.t -> string -> bool

(** Rotate the cookie epoch; cookies two turns old become stale. *)
val advance_epoch : t -> unit

val epoch : t -> int

(** Payload conventions used by scenario code. *)
val syn_payload : string

val ack_prefix : string

(** ["ACK:" ^ cookie t flow] — the payload a live client echoes. *)
val ack_payload : t -> Net.Five_tuple.t -> string

val whitelisted : t -> Net.Five_tuple.t -> bool
val process : t -> Net.Packet.t -> Types.verdict
val nf : t -> Types.t
val filter : t -> Cuckoo.t

(** Fixed whitelist reservation — constant over the proxy's lifetime. *)
val memory_bytes : t -> int

(** {2 Counters} *)

val challenges : t -> int
val admitted : t -> int
val bad_cookies : t -> int
val no_handshake : t -> int
