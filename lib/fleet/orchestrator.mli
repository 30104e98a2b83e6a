(** The fleet control plane: boots a rack of heterogeneous S-NICs,
    places tenant NFs on them through the real management API
    ([nf_create]), and runs the Appendix A attestation handshake for
    every placement before the tenant's NF is considered live.

    Everything is driven by one seed: NIC identities, tenant demands and
    the attestation transcripts are all deterministic functions of it, so
    a scenario replays byte-for-byte. *)

type config = { seed : int; n_nics : int; n_tenants : int; policy : Policy.t }

type placement = { node : Node.t; vnic : Snic.Vnic.t; nf : Nf.Types.t }

type tenant = {
  tid : int;
  port : int; (* the dst_port the front-end steers to this tenant *)
  demand : Workload.demand;
  mutable placement : placement option;
  mutable attested : bool;
}

type t

(** [create ?sink ?domains config] boots the NICs and places + attests
    every tenant.  When [sink] is a recording sink, every NIC's devices
    trace into it under the NIC's id as Chrome pid, and the fleet
    telemetry registers its counters in the sink's registry (one
    Prometheus dump covers both).  Default: {!Obs.null} — no recording,
    branch-only overhead.

    [domains] (default 1) fans the independent NIC boots — identity
    keygen is the expensive part — across OCaml domains via
    [Par.Engine.map]; sink attachment and tenant placement stay on the
    calling domain, so the resulting rack is bit-identical for every
    [domains] value. *)
val create : ?sink:Obs.sink -> ?domains:int -> config -> t

val nodes : t -> Node.t array
val tenants : t -> tenant array
val telemetry : t -> Telemetry.t
val vendor : t -> Snic.Identity.vendor

(** [expected_measurement cfg handle] — the measurement a remote
    verifier recomputes from the launch config it requested plus the
    cores and RAM window the launch assigned.  A NIC OS that staged a
    different image or altered the rules cannot quote it. *)
val expected_measurement : Snic.Instructions.launch_config -> Snic.Instructions.handle -> string

(** Why a placement attempt failed, split so a supervisor can react:
    [No_capacity] is an alarm (retrying cannot help until something is
    evicted or readmitted), [Create_failed (Stage_fault _)] and
    [Attest_failed] are transient under gray failures and worth
    retrying. *)
type place_error =
  | No_capacity
  | Create_failed of Snic.Api.create_error
  | Attest_failed of string

val place_error_to_string : place_error -> string

(** [place t tenant] — run the policy, [nf_create], then attest.
    Telemetry records failures by kind. Placing an already-placed tenant
    is a no-op ([Ok ()], no counters move). *)
val place : t -> tenant -> (unit, place_error) result

(** [place] + a replacement tick in telemetry (failure-recovery path).
    A no-op (no tick) when the tenant is already placed. *)
val replace : t -> tenant -> (unit, place_error) result

(** [evict t tenant] — the tenant lost its NF (its NIC died or the NF
    was killed); clears the placement and operator-side accounting.
    Does not touch the (possibly dead) hardware. *)
val evict : t -> tenant -> unit

(** [destroy_verified t tenant] — the one verified teardown: [nf_destroy]
    the tenant's NF, check that its RAM window reads back zero
    ({!Nicsim.Physmem.is_zero}), count a verified scrub on the hosting
    NIC, and {!evict}.  [false] is a scrub failure: the destroy was
    refused or left RAM non-zero.  [true] (and nothing else) for an
    unplaced tenant. *)
val destroy_verified : t -> tenant -> bool

(** {2 Invariant probes (the acceptance checks)} *)

(** Placed-and-attested tenant count. *)
val attested_count : t -> int

(** Tenants with no placement right now. *)
val unplaced_count : t -> int

(** Functions live on *alive* NICs that do not correspond to an
    attested tenant placement — must be 0 at all quiesce points. *)
val unattested_running : t -> int

(** Live function count across alive NICs (hardware's own view). *)
val live_nf_total : t -> int
