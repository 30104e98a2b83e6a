(** Pass/fail rules over a run's named figures ("gates"), and the
    baseline comparison [bench --check] applies before them.

    Each scenario report states its own gates as a list of {!t} — the
    one place a threshold lives.  The CLI exits 1 on the entries that
    fail; the bench prefixes the keys with its section name and
    evaluates them under [--check]. *)

type rule =
  | At_least of float
  | At_most of float
  | Equals of float  (** flags are 0/1, so [Equals 1.] means "must hold" *)
  | Within of { target : float; tol : float }  (** the value is at most [tol] from [target] *)

type t = { key : string; value : float option; rule : rule }
(** [value = None] — the figure does not exist in this run (e.g. a
    quantile over fewer than 2 samples) — always fails. *)

val int : int -> float option
(** [Some (float_of_int n)]. *)

val flag : bool -> float option
(** [Some 1.] for [true], [Some 0.] for [false]. *)

val holds : t -> bool
(** The rule holds on the value; boundaries are inclusive. *)

val failed : t list -> t list
(** The entries that do not hold, in list order. *)

val rule_to_string : rule -> string (** [">= 0.9"], ["<= 5"], ["= 1"] or ["within 0.001 of 0.045"]. *)

val to_string : t -> string
(** ["key = 0.85, must be >= 0.9"], or ["key missing, must be >= 0.9"]. *)

(** {2 Baselines}

    A baseline is the flat [{ "key": number, ... }] object
    [bench --json] writes. *)

type parse_error =
  | Unterminated_key of int  (** byte offset of a key's opening quote *)
  | Bad_number of { key : string; text : string }

val parse_error_to_string : parse_error -> string

val parse_flat_json : string -> ((string * float) list, parse_error) result
(** The [(key, value)] pairs in file order.  Never raises: any input is
    either parsed or rejected with a typed error.  A key with no number
    after it is skipped. *)

val tolerance : float
(** 0.25: how far a measured key may drift, relative to its baseline. *)

val baseline_failures : baseline:(string * float) list -> (string * float) list -> string list
(** [baseline_failures ~baseline current] — one message per baseline key
    that is missing from [current], or that is off its baseline value:
    keys ending in ["checksum"] or ["digest"] are identities and must
    match exactly; any other key may drift by {!tolerance} relative to
    [max |baseline| 1e-9], so a zero baseline admits only zero. *)
