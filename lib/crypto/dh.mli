(** Classic finite-field Diffie–Hellman, as used by the S-NIC attestation
    protocol (Appendix A): the NF contributes [g^x mod p] and its signed
    measurement; the verifier contributes [g^y mod p]; both derive
    [g^(xy) mod p]. *)

type group = { p : Bigint.t; g : Bigint.t }

(** RFC 3526 MODP group 5 (1536-bit). Used by the full-strength protocol. *)
val modp_1536 : group

(** A 768-bit safe-prime group for fast simulation runs and tests. *)
val sim_768 : group

type secret
type public = Bigint.t

(** [keypair state group] draws a private exponent and its public value. *)
val keypair : Random.State.t -> group -> secret * public

(** [shared ~secret ~peer] is the shared group element [peer^x mod p]. *)
val shared : secret:secret -> peer:public -> Bigint.t

(** [shared_key ~secret ~peer] hashes the shared element into a 32-byte
    symmetric key. *)
val shared_key : secret:secret -> peer:public -> string

(** Serialize a group element as fixed-width big-endian bytes for hashing
    and signing. *)
val element_bytes : group -> Bigint.t -> string
