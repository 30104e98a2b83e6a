(* The observability layer: the null sink must stay allocation-free on
   device hot paths, recorded spans must balance per track even under a
   chaos storm, the Chrome exporter must emit valid JSON whose counts
   agree with the registry, and identical seeds must export identical
   bytes. *)

open Nicsim

let counter_value reg name = Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters reg))

let sink_counter sink name =
  match Obs.registry sink with None -> 0 | Some reg -> counter_value reg name

(* ---------- metrics: registration and quantiles ---------- *)

let test_registry_idempotent () =
  let reg = Obs.Metrics.create_registry () in
  let a = Obs.Metrics.counter reg "x_total" in
  let b = Obs.Metrics.counter reg "x_total" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "same counter behind one name" 2 (Obs.Metrics.value a);
  Alcotest.check_raises "name cannot change kind"
    (Invalid_argument "Metrics.histogram: x_total is registered as a counter") (fun () ->
      ignore (Obs.Metrics.histogram reg "x_total"))

let test_sample_quantiles () =
  let q = Obs.Metrics.quantile_of_samples in
  Alcotest.(check (option (float 1e-9))) "empty has no quantile" None (q [] 0.99);
  Alcotest.(check (option (float 1e-9))) "one sample has no p99" None (q [ 7.5 ] 0.99);
  Alcotest.(check (option (float 1e-9))) "median interpolates" (Some 2.) (q [ 3.; 1. ] 0.5);
  Alcotest.(check (option (float 1e-9))) "p100 is the max" (Some 9.) (q [ 9.; 1.; 4. ] 1.0);
  Alcotest.(check (option (float 1e-9))) "p0 is the min" (Some 1.) (q [ 9.; 1.; 4. ] 0.0)

let test_histogram_quantiles () =
  let reg = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~buckets:[| 10.; 20.; 40. |] reg "lat" in
  Alcotest.(check (option (float 1e-9))) "empty histogram has no quantile" None (Obs.Metrics.quantile h 0.5);
  Obs.Metrics.observe h 5.;
  Alcotest.(check (option (float 1e-9))) "one observation has no quantile" None (Obs.Metrics.quantile h 0.5);
  Obs.Metrics.observe h 15.;
  Obs.Metrics.observe h 15.;
  Obs.Metrics.observe h 35.;
  (match Obs.Metrics.quantile h 0.99 with
  | None -> Alcotest.fail "expected a p99"
  | Some v -> Alcotest.(check bool) "p99 lands in the last occupied bucket" true (v > 20. && v <= 40.));
  Alcotest.(check int) "count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 70. (Obs.Metrics.hist_sum h)

(* ---------- the null sink is (nearly) free on the TLB hit path ---------- *)

let test_null_sink_tlb_hit_allocation () =
  let tlb = Tlb.create () in
  Tlb.install tlb { Tlb.vbase = 0x10000; pbase = 0x800000; size = 0x10000; writable = true };
  (* Warm up so any one-time allocation is out of the measurement. *)
  for _ = 1 to 100 do
    ignore (Tlb.translate tlb ~vaddr:0x10123 ~access:Tlb.Read)
  done;
  let iters = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Tlb.translate tlb ~vaddr:0x10123 ~access:Tlb.Read)
  done;
  let words_per_hit = (Gc.minor_words () -. before) /. float_of_int iters in
  (* The hit returns [Some paddr] (a 2-word box); the instrumentation
     itself must add nothing — no closures, no event records. *)
  Alcotest.(check bool)
    (Printf.sprintf "null-sink hit path allocates only the option box (%.2f words/hit)" words_per_hit)
    true (words_per_hit <= 3.0)

let test_counters_move_when_recording () =
  let sink = Obs.create () in
  let tlb = Tlb.create () in
  Tlb.set_sink tlb sink ~track:7;
  Tlb.install tlb { Tlb.vbase = 0x10000; pbase = 0x800000; size = 0x10000; writable = true };
  ignore (Tlb.translate tlb ~vaddr:0x10000 ~access:Tlb.Read);
  ignore (Tlb.translate tlb ~vaddr:0x10004 ~access:Tlb.Read);
  ignore (Tlb.translate tlb ~vaddr:0xdead0000 ~access:Tlb.Read);
  Alcotest.(check int) "hits counted" 2 (sink_counter sink "snic_tlb_hit_total");
  Alcotest.(check int) "miss counted" 1 (sink_counter sink "snic_tlb_miss_total");
  Alcotest.(check int) "miss traced as an instant" 1 (List.length (Obs.events sink))

(* ---------- span nesting balances under the storm ---------- *)

let storm_trace seed =
  let sink = Obs.create () in
  let config = { Fleet.Chaos.default_config with Fleet.Chaos.seed; rounds = 4; packets_per_round = 200 } in
  let _report, orch = Fleet.Chaos.run_with ~sink config in
  (sink, orch)

let check_span_balance seed =
  let tag msg = Printf.sprintf "seed %d: %s" seed msg in
  let sink, _orch = storm_trace seed in
  let begun = ref 0 and ended = ref 0 in
  let depth = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.event) ->
      let key = (e.Obs.pid, e.Obs.track) in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
      match e.Obs.phase with
      | Obs.Span_begin ->
        incr begun;
        Hashtbl.replace depth key (d + 1)
      | Obs.Span_end ->
        incr ended;
        Alcotest.(check bool) (tag "no end without a begin on its track") true (d > 0);
        Hashtbl.replace depth key (d - 1)
      | Obs.Instant -> ())
    (Obs.events sink);
  Alcotest.(check bool) (tag "the storm produced spans") true (!begun > 0);
  Alcotest.(check int) (tag "begins match ends") !begun !ended;
  Hashtbl.iter (fun (pid, track) d -> Alcotest.(check int) (tag (Printf.sprintf "track (%d,%d) closed" pid track)) 0 d) depth;
  (* The registry's own accounting of the stream agrees with the stream. *)
  Alcotest.(check int) (tag "obs_spans_begun_total agrees") !begun (sink_counter sink "obs_spans_begun_total");
  Alcotest.(check int) (tag "obs_spans_ended_total agrees") !ended (sink_counter sink "obs_spans_ended_total");
  Alcotest.(check int) (tag "span_count agrees") !begun (Obs.span_count sink)

let test_span_balance_42 () = check_span_balance 42
let test_span_balance_1337 () = check_span_balance 1337
let test_span_balance_20240 () = check_span_balance 20240

(* ---------- Chrome JSON round-trips through a minimal parser ---------- *)

(* Just enough JSON to validate the exporter's output structurally — no
   external dependency, and strict: trailing garbage or a malformed
   escape is a parse failure. *)
type json = Jnull | Jbool of bool | Jnum of float | Jstr of string | Jarr of json list | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some (('"' | '\\' | '/') as c) ->
          Buffer.add_char buf c;
          advance ();
          go ()
        | Some 'n' | Some 't' | Some 'r' | Some 'b' | Some 'f' ->
          Buffer.add_char buf ' ';
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated unicode escape";
          pos := !pos + 4;
          Buffer.add_char buf '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Jobj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Jarr (elements [])
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Jobj l -> List.assoc_opt k l | _ -> None

let test_chrome_json_roundtrip () =
  let sink, orch = storm_trace 42 in
  let js = Obs.Chrome.to_json sink in
  let parsed = try parse_json js with Bad_json msg -> Alcotest.fail ("exporter emitted invalid JSON: " ^ msg) in
  let rows =
    match member "traceEvents" parsed with
    | Some (Jarr rows) -> rows
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check (option string)) "displayTimeUnit present" (Some "ns")
    (match member "displayTimeUnit" parsed with Some (Jstr u) -> Some u | _ -> None);
  let count ph = List.length (List.filter (fun row -> member "ph" row = Some (Jstr ph)) rows) in
  let reg = Fleet.Telemetry.registry (Fleet.Orchestrator.telemetry orch) in
  Alcotest.(check int) "B rows = spans begun" (counter_value reg "obs_spans_begun_total") (count "B");
  Alcotest.(check int) "E rows = spans ended" (counter_value reg "obs_spans_ended_total") (count "E");
  Alcotest.(check int) "i rows = instants" (counter_value reg "obs_instants_total") (count "i");
  Alcotest.(check int) "M rows = named processes + tracks"
    (List.length (Obs.process_names sink) + List.length (Obs.track_names sink))
    (count "M");
  List.iter
    (fun row ->
      if member "ph" row <> Some (Jstr "M") then begin
        Alcotest.(check bool) "event row has ts/pid/tid" true
          (member "ts" row <> None && member "pid" row <> None && member "tid" row <> None);
        Alcotest.(check bool) "event row has a name" true
          (match member "name" row with Some (Jstr _) -> true | _ -> false)
      end)
    rows

(* ---------- determinism: same seed, same bytes ---------- *)

let test_trace_deterministic () =
  let sink_a, orch_a = storm_trace 42 in
  let sink_b, orch_b = storm_trace 42 in
  Alcotest.(check string) "Chrome export is byte-identical" (Obs.Chrome.to_json sink_a) (Obs.Chrome.to_json sink_b);
  Alcotest.(check string) "Prometheus export is byte-identical"
    (Fleet.Telemetry.prometheus (Fleet.Orchestrator.telemetry orch_a))
    (Fleet.Telemetry.prometheus (Fleet.Orchestrator.telemetry orch_b))

(* Regression for the hash-order hazard documented at metrics.ml's
   [sorted_metrics]: exports escape into artifacts, so they must be a
   function of the recorded values alone, not of registration order. *)
let test_registry_order_insensitive () =
  let entries = [ "zeta"; "alpha"; "mid"; "aa"; "z" ] in
  let build names =
    let reg = Obs.Metrics.create_registry () in
    List.iter
      (fun name ->
        let c = Obs.Metrics.counter reg ("ctr_" ^ name) ~help:("help " ^ name) in
        Obs.Metrics.add c (String.length name);
        let h = Obs.Metrics.histogram reg ("hist_" ^ name) in
        Obs.Metrics.observe h (float_of_int (String.length name)))
      names;
    reg
  in
  let fwd = build entries in
  let rev = build (List.rev entries) in
  Alcotest.(check string) "prometheus export ignores registration order" (Obs.Metrics.prometheus fwd)
    (Obs.Metrics.prometheus rev);
  Alcotest.(check (list (pair string int)))
    "counters listing ignores registration order" (Obs.Metrics.counters fwd) (Obs.Metrics.counters rev);
  (* And the listing really is sorted, so any future fold-order change
     surfaces as a test failure rather than artifact churn. *)
  let names = List.map fst (Obs.Metrics.counters fwd) in
  Alcotest.(check (list string)) "counters sorted by name" (List.sort String.compare names) names

(* ---------- gates: rules, baselines, the baseline parser ---------- *)

let test_gate_rules () =
  let holds rule value = Obs.Gate.holds { Obs.Gate.key = "k"; value; rule } in
  let check = Alcotest.(check bool) in
  check "at_least above" true (holds (At_least 0.9) (Some 0.95));
  check "at_least boundary is inclusive" true (holds (At_least 0.9) (Some 0.9));
  check "at_least below" false (holds (At_least 0.9) (Some 0.8999));
  check "at_most below" true (holds (At_most 2000.) (Some 50.));
  check "at_most boundary is inclusive" true (holds (At_most 2000.) (Some 2000.));
  check "at_most above" false (holds (At_most 2000.) (Some 2000.5));
  check "equals hit" true (holds (Equals 1.) (Obs.Gate.flag true));
  check "equals miss" false (holds (Equals 0.) (Obs.Gate.int 1));
  check "within inside" true (holds (Within { target = 0.045; tol = 0.001 }) (Some 0.0448));
  check "within boundary is inclusive" true (holds (Within { target = 1.; tol = 0.5 }) (Some 0.5));
  check "within outside" false (holds (Within { target = 0.045; tol = 0.001 }) (Some 0.0461));
  List.iter
    (fun rule -> check "a missing value fails every rule" false (holds rule None))
    [ At_least neg_infinity; At_most infinity; Equals 0.; Within { target = 0.; tol = infinity } ];
  let g key value rule = { Obs.Gate.key; value; rule } in
  let gates =
    [
      g "a" (Some 1.) (Equals 1.);
      g "b" None (At_most 5.);
      g "c" (Some 0.5) (At_least 0.9);
      g "d" (Some 2.) (Within { target = 1.; tol = 0.5 });
    ]
  in
  Alcotest.(check (list string))
    "failed keeps list order and only the failures"
    [ "b missing, must be <= 5"; "c = 0.5, must be >= 0.9"; "d = 2, must be within 0.5 of 1" ]
    (List.map Obs.Gate.to_string (Obs.Gate.failed gates))

let test_gate_baseline () =
  let failures baseline current = List.length (Obs.Gate.baseline_failures ~baseline current) in
  let check = Alcotest.(check int) in
  check "exact key matches" 0 (failures [ ("x.checksum", 100.) ] [ ("x.checksum", 100.) ]);
  check "exact key off by one" 1 (failures [ ("x.checksum", 100.) ] [ ("x.checksum", 101.) ]);
  check "digest suffix is exact too" 1 (failures [ ("x.events_digest", 7.) ] [ ("x.events_digest", 8.) ]);
  check "25% off is within tolerance" 0 (failures [ ("n", 100.) ] [ ("n", 125.) ]);
  check "25% + eps over" 1 (failures [ ("n", 100.) ] [ ("n", 125.0001) ]);
  check "25% + eps under" 1 (failures [ ("n", 100.) ] [ ("n", 74.9999) ]);
  check "missing key fails" 1 (failures [ ("n", 1.) ] [ ("m", 1.) ]);
  check "keys absent from the baseline are free" 0 (failures [] [ ("m", 1.) ]);
  check "zero baseline admits zero" 0 (failures [ ("z", 0.) ] [ ("z", 0.) ]);
  check "zero baseline rejects anything else" 1 (failures [ ("z", 0.) ] [ ("z", 1e-6) ])

let test_parse_flat_json () =
  let parse = Obs.Gate.parse_flat_json in
  (match parse "{\n  \"a.b\": 1.500000,\n  \"c\": -2e3\n}\n" with
  | Ok pairs ->
    Alcotest.(check (list (pair string (float 0.)))) "pairs in file order" [ ("a.b", 1.5); ("c", -2000.) ] pairs
  | Error e -> Alcotest.fail (Obs.Gate.parse_error_to_string e));
  (match parse "{ \"k\": - }" with
  | Error (Bad_number { key = "k"; text = "-" }) -> ()
  | _ -> Alcotest.fail "a bare minus is a Bad_number");
  match parse "{ \"open: 1 }" with
  | Error (Unterminated_key 2) -> ()
  | _ -> Alcotest.fail "an unclosed key is Unterminated_key at its quote"

(* The bytes the parser reads come from a file; whatever they are, it
   answers with a value or a typed error, never an exception. *)
let prop_parse_flat_json_total =
  let json_ish = QCheck.Gen.oneofl [ '"'; ':'; ' '; '-'; '+'; '.'; 'e'; 'E'; '0'; '7'; '{'; '}'; ','; '\n' ] in
  QCheck.Test.make ~name:"parse_flat_json: Ok or a typed Error on arbitrary bytes" ~count:2000
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:(oneof [ json_ish; char ]) (0 -- 64)))
    (fun s ->
      match Obs.Gate.parse_flat_json s with
      | Ok _ | Error (Unterminated_key _ | Bad_number _) -> true)

let suite =
  [
    Alcotest.test_case "registry registration is idempotent" `Quick test_registry_idempotent;
    Alcotest.test_case "metric exports ignore registration order" `Quick test_registry_order_insensitive;
    Alcotest.test_case "sample quantiles: None under 2 samples, interpolated above" `Quick test_sample_quantiles;
    Alcotest.test_case "histogram quantiles: None under 2 observations" `Quick test_histogram_quantiles;
    Alcotest.test_case "null sink adds no allocation on the TLB hit path" `Quick test_null_sink_tlb_hit_allocation;
    Alcotest.test_case "recording sink counts hits, misses, and instants" `Quick test_counters_move_when_recording;
    Alcotest.test_case "spans balance per track under storm (seed 42)" `Quick test_span_balance_42;
    Alcotest.test_case "spans balance per track under storm (seed 1337)" `Quick test_span_balance_1337;
    Alcotest.test_case "spans balance per track under storm (seed 20240)" `Quick test_span_balance_20240;
    Alcotest.test_case "Chrome JSON parses and agrees with the registry" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "same seed exports byte-identical artifacts" `Quick test_trace_deterministic;
    Alcotest.test_case "gate rules: inclusive boundaries, a missing value fails" `Quick test_gate_rules;
    Alcotest.test_case "baseline check: exact suffixes, 25% band, missing and zero" `Quick test_gate_baseline;
    Alcotest.test_case "baseline parser: pairs and typed errors" `Quick test_parse_flat_json;
    QCheck_alcotest.to_alcotest prop_parse_flat_json_total;
  ]
