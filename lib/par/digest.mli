(** Order-sensitive digests of run artifacts.

    The parallel-vs-sequential gates (test/test_par.ml, the bench [par]
    section, the CI [par-smoke] job) compare runs by digesting their
    textual reports, and the bench's datapath section checksums its
    payloads with {!fold}.  Every value is a small deterministic
    checksum in a 30-bit space, so it survives a round-trip through the
    flat JSON floats.  It is order-sensitive: permuting shard reports
    changes the digest, which is exactly what makes it a merge-order
    gate. *)

val fold : int -> string -> int
(** [fold acc s] extends the digest [acc] with the bytes of [s]: for
    each byte [c], [acc := (acc * 131 + code c) land (2^30 - 1)].
    Order-sensitive; [fold 0 s] is the bench's payload checksum. *)

val string : string -> int
(** Digest of one string.  Deterministic across runs, platforms and
    domain counts; always in [0, 2^30). *)

val strings : string list -> int
(** Digest of a sequence of strings, sensitive to both content and
    order.  [strings [a; b]] differs from [strings [b; a]] (except for
    collisions), and from [strings [a ^ b]]. *)
