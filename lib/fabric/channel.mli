(** One authenticated, unidirectional inter-NIC channel.

    The sender half owns the monotone sequence counter and a bounded
    replay buffer of recent payloads (the flow state a failover replays
    into a re-placed stage); the receiver half owns the anti-replay
    {!Window} and the rejection counters the scenario gates pin.  Both
    halves share one {!Crypto.Hmac.keyed} state of the attestation-derived
    session key, built once by {!pair}; {!Frame} binds every payload to
    (key, channel id, sequence number). *)

type tx
type rx

type recv_error =
  | Decode of Frame.error  (** truncated / garbage / MAC mismatch *)
  | Wrong_channel of int  (** authenticated frame from another channel *)
  | Replayed of int  (** sequence number already accepted *)
  | Stale of int  (** older than the receive window *)

val recv_error_to_string : recv_error -> string

(** [pair ?sink ?window ?buffer ?tap ~key ~chan ()] builds both halves.
    [window] (default 32) is the receive window size, [buffer] (default
    1024) the sender's replay-buffer capacity in payloads.  [sink]
    receives the [fabric_*] hot-path counters.  [tap] sees every wire
    frame on send — the scenario's adversary captures traffic there. *)
val pair :
  ?sink:Obs.sink -> ?window:int -> ?buffer:int -> ?tap:(string -> unit) -> key:string -> chan:int -> unit -> tx * rx

val chan : tx -> int

(** [send tx payload] encodes, MACs and buffers one payload; returns the
    wire bytes.  Raises [Invalid_argument] if the payload exceeds
    {!Frame.max_payload}. *)
val send : tx -> string -> string

(** [recv rx wire] authenticates and de-duplicates one wire frame. *)
val recv : rx -> string -> (string, recv_error) result

(** Payloads still held by the replay buffer, oldest first — at most the
    [buffer] newest sends. *)
val buffered : tx -> string list

(** {2 Counters} *)

val sent : tx -> int
val delivered : rx -> int

(** Frames refused because the MAC (or the frame itself) did not verify. *)
val mac_failures : rx -> int

val replay_rejects : rx -> int
val stale_rejects : rx -> int
val wrong_channel_rejects : rx -> int
