(** Set-associative cache with way-granular partitioning.

    Three isolation modes reproduce the design space of §4.2:
    - [Shared]: no isolation (commodity NICs) — occupancy leaks across
      domains, enabling prime-and-probe.
    - [Soft]: Intel-CAT-like write partitioning — a domain only *fills*
      its own ways, but hits anywhere; the paper notes this still leaks.
    - [Hard]: static partitioning — hits and fills are confined to the
      domain's ways, eliminating the cache side channel.

    Accesses are by physical address; the unit is one line. *)

type mode =
  | Shared
  | Soft
  | Hard
  | Secdcp
      (** SecDCP-style dynamic partitioning (Wang et al., DAC'16; the
          §4.2 alternative): each domain gets a hard slice, but slice
          sizes may be resized at runtime based {e only} on domain 0's
          (the NIC OS's) cache behaviour — information can flow from the
          OS to functions but never between functions. Call {!rebalance}
          periodically. *)

type t

(** [create ~sets ~ways ~line_bits ~mode ~domains]. With [Soft]/[Hard],
    ways are split evenly across domains (requires [ways >= domains]). *)
val create : sets:int -> ways:int -> line_bits:int -> mode:mode -> domains:int -> t

(** [set_sink t sink ~track] directs hit/miss/fill counters and
    cross-domain eviction events at [sink]; event timestamps are the
    cache's own access clock. *)
val set_sink : t -> Obs.sink -> track:int -> unit

type result = Hit | Miss

val access : t -> domain:int -> addr:int -> result

(** [flush t] invalidates everything. [flush_domain t d] invalidates only
    lines owned by [d] (what nf_teardown does, §4.6). *)
val flush : t -> unit

val flush_domain : t -> int -> unit

type stats = { hits : int; misses : int; evicted_by_others : int }

val stats : t -> domain:int -> stats
val mode : t -> mode

(** Ways usable by a domain for fills, as [(lo, hi)] exclusive. *)
val fill_ways : t -> domain:int -> int * int

(** Current way allocation of a domain (Hard/Secdcp). *)
val allocation : t -> domain:int -> int

(** [rebalance t] — Secdcp only: resize domain 0's slice according to its
    own miss rate since the last rebalance (taking from / returning to
    the other domains evenly), flushing any way that changes hands.
    Returns the number of ways that moved. Raises [Invalid_argument] in
    other modes. *)
val rebalance : t -> int

(** Number of valid lines currently owned by [domain] (for occupancy
    side-channel experiments). *)
val occupancy : t -> domain:int -> int
