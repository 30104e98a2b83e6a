(** HMAC-SHA256 (RFC 2104), used to derive session keys and authenticate
    traffic inside attested S-NIC tunnels. *)

(** A key with its two pad blocks already hashed: the SHA-256 states
    after absorbing [key xor ipad] and [key xor opad].  Building one
    costs two compressions; each MAC under it then skips them.  The
    state is immutable once built — every MAC starts from copies of the
    two states — so one keyed state may be shared freely, including by
    MACs running at the same time on different domains. *)
type keyed

(** [keyed key] hashes [key] first when it is longer than the 64-byte
    block, as RFC 2104 requires, then absorbs both pad blocks. *)
val keyed : string -> keyed

(** [mac_sub k s ~pos ~len] is the 32-byte tag of the [len] bytes of [s]
    from [pos], read in place.  Raises [Invalid_argument] unless
    [0 <= pos], [0 <= len] and [pos + len <= String.length s]. *)
val mac_sub : keyed -> string -> pos:int -> len:int -> string

(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag: the one-shot form of
    [mac_sub (keyed key) msg ~pos:0 ~len:(String.length msg)]. *)
val mac : key:string -> string -> string

(** [derive ~secret ~label] expands a shared secret into a 32-byte key
    bound to [label] (a one-step HKDF-like expand). *)
val derive : secret:string -> label:string -> string

(** [verify_at ~tag s ~pos] is true iff [tag] is 32 bytes long and equals
    the 32 bytes of [s] from [pos].  It is false, not an exception, when
    [pos] is negative or fewer than 32 bytes follow it.  Every byte pair
    is compared, so its running time does not reveal how many leading
    bytes of a forged tag are right. *)
val verify_at : tag:string -> string -> pos:int -> bool
