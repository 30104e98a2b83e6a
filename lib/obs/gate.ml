type rule = At_least of float | At_most of float | Equals of float | Within of { target : float; tol : float }
type t = { key : string; value : float option; rule : rule }

let int n = Some (float_of_int n)
let flag b = Some (if b then 1. else 0.)

let holds g =
  match (g.value, g.rule) with
  | None, _ -> false
  | Some v, At_least b -> v >= b
  | Some v, At_most b -> v <= b
  | Some v, Equals b -> v = b
  | Some v, Within { target; tol } -> Float.abs (v -. target) <= tol

let failed gates = List.filter (fun g -> not (holds g)) gates

let rule_to_string = function
  | At_least b -> Printf.sprintf ">= %g" b
  | At_most b -> Printf.sprintf "<= %g" b
  | Equals b -> Printf.sprintf "= %g" b
  | Within { target; tol } -> Printf.sprintf "within %g of %g" tol target

let to_string g =
  match g.value with
  | None -> Printf.sprintf "%s missing, must be %s" g.key (rule_to_string g.rule)
  | Some v -> Printf.sprintf "%s = %g, must be %s" g.key v (rule_to_string g.rule)

type parse_error = Unterminated_key of int | Bad_number of { key : string; text : string }

let parse_error_to_string = function
  | Unterminated_key at -> Printf.sprintf "key opened at byte %d is never closed" at
  | Bad_number { key; text } -> Printf.sprintf "%s: %S is not a number" key text

(* A ~20-line scanner for the flat format the bench writes, so the gate
   needs no JSON library in CI. *)
let parse_flat_json s =
  let len = String.length s in
  let rec scan i acc =
    if i >= len then Ok (List.rev acc)
    else if s.[i] <> '"' then scan (i + 1) acc
    else
      match String.index_from_opt s (i + 1) '"' with
      | None -> Error (Unterminated_key i)
      | Some j -> (
        let key = String.sub s (i + 1) (j - i - 1) in
        let k = ref (j + 1) in
        while !k < len && (s.[!k] = ':' || s.[!k] = ' ') do
          incr k
        done;
        let e = ref !k in
        while
          !e < len && (match s.[!e] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
        do
          incr e
        done;
        let text = String.sub s !k (!e - !k) in
        if text = "" then scan !e acc
        else
          match float_of_string_opt text with
          | Some v -> scan !e ((key, v) :: acc)
          | None -> Error (Bad_number { key; text }))
  in
  scan 0 []

let tolerance = 0.25
let exact_key key = String.ends_with ~suffix:"checksum" key || String.ends_with ~suffix:"digest" key

let baseline_failures ~baseline current =
  List.filter_map
    (fun (key, expect) ->
      match List.assoc_opt key current with
      | None -> Some (Printf.sprintf "%s: present in baseline but missing from this run" key)
      | Some got when exact_key key ->
        if got = expect then None
        else Some (Printf.sprintf "%s: %.0f vs baseline %.0f (must match exactly)" key got expect)
      | Some got ->
        let rel = Float.abs (got -. expect) /. Float.max (Float.abs expect) 1e-9 in
        if rel <= tolerance then None
        else
          Some
            (Printf.sprintf "%s: %.6f vs baseline %.6f (%.1f%% off, tolerance %.0f%%)" key got expect
               (100. *. rel) (100. *. tolerance)))
    baseline
