(** The fabric wire format: one MAC'd, length-prefixed frame.

    Every inter-NIC message travels as
    [magic | chan u32 | seq u32 | len u32 | payload | mac], all integers
    big-endian.  The MAC is HMAC-SHA256 over the header and payload under
    the channel's attestation-derived session key, so a frame only
    authenticates against the channel it was sent on and the key both
    endpoints derived from their handshakes.  Decoding is strict in the
    [Snic.Wire] tradition: short input, an oversize length field, a bad
    magic, a bad MAC and trailing bytes are all typed errors, never a
    best-effort parse. *)

type t = { chan : int; seq : int; payload : string }

(** Frame header magic, ["SNF1"]. *)
val magic : string

(** Hard ceiling on [payload] length (64 KiB): a corrupt length field
    fails fast instead of asking the decoder to allocate garbage. *)
val max_payload : int

(** Encoded overhead around the payload: magic + 3 integers + MAC. *)
val overhead : int

type error =
  | Truncated of { need : int; got : int }  (** input shorter than claimed *)
  | Bad_magic  (** first four bytes are not {!magic} *)
  | Oversize of int  (** length field beyond {!max_payload} *)
  | Bad_mac  (** MAC mismatch under the given key *)
  | Trailing of int  (** [decode_exact]: bytes left after one frame *)

val error_to_string : error -> string

(** [encode ~key t] serializes and MACs one frame under the channel's
    keyed state, writing header, payload and tag into one buffer.  Raises
    [Invalid_argument] if [chan] or [seq] is negative or outside u32, or
    the payload exceeds {!max_payload}. *)
val encode : key:Crypto.Hmac.keyed -> t -> string

(** [decode ~key s ~pos] parses one frame starting at [pos]; returns the
    frame and the position just past it, so callers can walk a
    concatenated stream.  The MAC is computed and checked in place, in
    constant time ({!Crypto.Hmac.verify_at}); the payload is copied out
    only once it verifies. *)
val decode : key:Crypto.Hmac.keyed -> string -> pos:int -> (t * int, error) result

(** [decode_exact ~key s] parses exactly one frame spanning all of [s];
    trailing bytes are a {!Trailing} error. *)
val decode_exact : key:Crypto.Hmac.keyed -> string -> (t, error) result
