(** Construction of the paper's six evaluation NFs with their §5.1
    parameters plus the CuckooGuard DDoS-defense pair (scaled variants
    available for fast tests), addressable by the short names used
    throughout the evaluation. *)

type spec = {
  short : string; (* "FW", "DPI", "NAT", "LB", "LPM", "Mon", "CKF", "SYNP" *)
  description : string;
  build : ?probe:Types.probe -> scale:float -> unit -> Types.t;
}

(** The eight NFs: the paper's six (FW, DPI, NAT, LB, LPM, Mon) followed
    by the CuckooGuard pair (CKF cuckoo-filter flow tracker, SYNP
    SYN-cookie split proxy). *)
val all : spec list

(** The paper's six NFs, [all]'s first six: what lib/repro's claims cover. *)
val paper : spec list

(** Comma-separated valid short names (for error messages and usage). *)
val short_names : unit -> string

(** @raise Invalid_argument on an unknown short name, listing the valid
    short names. *)
val find : string -> spec

(** Paper-fidelity parameter set: FW 643 rules, DPI 33,471 patterns,
    LPM 16,000 routes. [scale] multiplies rule/pattern/route counts
    (1.0 = paper). *)
val fw_rules : scale:float -> int

val dpi_patterns : scale:float -> int
val lpm_routes : scale:float -> int

(** Cuckoo-filter sizing for the CKF/SYNP pair: log2 bucket count at a
    given [scale] (1.0 = 2^14 buckets = 64 Ki slots, 128 KiB fixed). *)
val ckf_log2_buckets : scale:float -> int
