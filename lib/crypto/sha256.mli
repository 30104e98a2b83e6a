(** SHA-256 (FIPS 180-4), implemented from scratch.

    The S-NIC trusted hardware computes a cumulative SHA-256 measurement of
    a network function's initial state during [nf_launch] (§4.6) and signs
    it during [nf_attest] (Appendix A). *)

type ctx

val init : unit -> ctx

(** [feed ctx s] absorbs [s]; may be called repeatedly.  Whole 64-byte
    blocks are compressed where they lie in [s]; only a partial block is
    copied into the context. *)
val feed : ctx -> string -> unit

val feed_bytes : ctx -> bytes -> unit

(** [feed_sub ctx s ~pos ~len] absorbs the [len] bytes of [s] from [pos]
    without copying them out first.  Raises [Invalid_argument] if the
    range is not inside [s]. *)
val feed_sub : ctx -> string -> pos:int -> len:int -> unit

(** [copy ctx] is an independent context in the same state: feeding or
    finalizing either one leaves the other as it was.  {!Hmac} absorbs a
    key's pad blocks once and copies the result for every MAC. *)
val copy : ctx -> ctx

(** [finalize ctx] returns the 32-byte digest. The context must not be
    used afterwards. *)
val finalize : ctx -> string

(** One-shot digest. *)
val digest : string -> string

(** Lowercase hex, two characters per byte. *)
val to_hex : string -> string
