let test_rng_determinism () =
  let a = Trace.Rng.create ~seed:99 and b = Trace.Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Trace.Rng.bits a) (Trace.Rng.bits b)
  done;
  let c = Trace.Rng.create ~seed:100 in
  Alcotest.(check bool) "different seed differs" false (Trace.Rng.bits a = Trace.Rng.bits c)

let test_rng_bounds () =
  let rng = Trace.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Trace.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    let f = Trace.Rng.float rng in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Trace.Rng.int rng 0))

let test_rng_uniformity () =
  let rng = Trace.Rng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Trace.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_shuffle_is_permutation () =
  let rng = Trace.Rng.create ~seed:3 in
  let arr = Array.init 100 Fun.id in
  Trace.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_zipf () =
  let rng = Trace.Rng.create ~seed:7 in
  let z = Trace.Zipf.create ~n:1000 ~skew:1.1 in
  let n = 200_000 in
  let counts = Array.make 1000 0 in
  for _ = 1 to n do
    let k = Trace.Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 should dominate, and empirical frequencies should track the
     analytic probabilities. *)
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) >= Array.fold_left max 0 (Array.sub counts 1 999));
  let p0 = Trace.Zipf.probability z 0 in
  let emp0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "rank-0 frequency matches analytic" true (abs_float (emp0 -. p0) < 0.02);
  (* CDF sums to 1. *)
  let total = ref 0.0 in
  for k = 0 to 999 do
    total := !total +. Trace.Zipf.probability z k
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_flowgen_distinct () =
  let rng = Trace.Rng.create ~seed:11 in
  let flows = Trace.Flowgen.flows rng ~n:5000 in
  let tbl = Hashtbl.create 5000 in
  Array.iter (fun f -> Hashtbl.replace tbl f ()) flows;
  Alcotest.(check int) "all distinct" 5000 (Hashtbl.length tbl);
  Array.iter
    (fun (f : Net.Five_tuple.t) ->
      if not (Net.Ipv4_addr.in_prefix f.src_ip ~prefix:(Net.Ipv4_addr.of_string "10.0.0.0") ~len:8) then
        Alcotest.fail "source not in 10/8")
    flows

let test_frame_payload_sizing () =
  List.iter
    (fun frame_size ->
      let len = Trace.Flowgen.payload_for_frame ~frame_size ~proto:Net.Packet.Udp in
      if frame_size >= 42 then
        Alcotest.(check int) (Printf.sprintf "frame %d" frame_size) frame_size (42 + len))
    Trace.Flowgen.figure8_frame_sizes;
  (* A frame request below the 64 B Ethernet minimum still yields a
     minimum-size wire frame, never a sub-minimum one. *)
  Alcotest.(check int) "tiny frame pads to minimum" 10
    (Trace.Flowgen.payload_for_frame ~frame_size:10 ~proto:Net.Packet.Tcp)

let test_ictf_like () =
  let t = Trace.Tracegen.ictf_like ~n_flows:2000 ~seed:1 ~packets:20_000 () in
  Alcotest.(check int) "event count" 20_000 (Trace.Tracegen.event_count t);
  Alcotest.(check int) "flow table" 2000 (Array.length t.flows);
  (* Zipf head: the most common flow should carry far more than 1/n of
     traffic. *)
  let counts = Array.make 2000 0 in
  Array.iter (fun (e : Trace.Tracegen.event) -> counts.(e.flow) <- counts.(e.flow) + 1) t.events;
  let max_count = Array.fold_left max 0 counts in
  Alcotest.(check bool) "heavy head" true (max_count > 20_000 / 100);
  (* Timestamps are monotonic. *)
  let ok = ref true in
  Array.iteri (fun i e -> if i > 0 then ok := !ok && e.Trace.Tracegen.time_us >= t.events.(i - 1).time_us) t.events;
  Alcotest.(check bool) "monotonic time" true !ok

let test_caida_like_growth () =
  let t = Trace.Tracegen.caida_like ~flows_per_sec:1000 ~seed:2 ~duration_s:10.0 ~packets:50_000 () in
  let early = Trace.Tracegen.distinct_flows_before t 1_000_000 in
  let late = Trace.Tracegen.distinct_flows_before t 10_000_000 in
  Alcotest.(check bool) "flow count grows over time" true (late > 2 * early)

let test_packet_materialization () =
  let t = Trace.Tracegen.ictf_like ~n_flows:100 ~seed:3 ~packets:50 () in
  let count = ref 0 in
  Seq.iter
    (fun p ->
      incr count;
      match Net.Packet.parse (Net.Packet.serialize p) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad packet: %a" Net.Packet.pp_parse_error e)
    (Trace.Tracegen.packets t);
  Alcotest.(check int) "all materialized" 50 !count

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample always in range" ~count:50
    (QCheck.pair (QCheck.int_range 1 500) (QCheck.float_range 0.5 2.0))
    (fun (n, skew) ->
      let rng = Trace.Rng.create ~seed:n in
      let z = Trace.Zipf.create ~n ~skew in
      let ok = ref true in
      for _ = 1 to 100 do
        let k = Trace.Zipf.sample z rng in
        ok := !ok && k >= 0 && k < n
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "zipf distribution" `Quick test_zipf;
    Alcotest.test_case "flowgen distinct flows" `Quick test_flowgen_distinct;
    Alcotest.test_case "figure-8 frame sizing" `Quick test_frame_payload_sizing;
    Alcotest.test_case "ictf-like trace" `Quick test_ictf_like;
    Alcotest.test_case "caida-like flow growth" `Quick test_caida_like_growth;
    Alcotest.test_case "trace packets materialize" `Quick test_packet_materialization;
    QCheck_alcotest.to_alcotest prop_zipf_in_range;
  ]
