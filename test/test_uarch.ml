(* Small packet counts keep these fast; the bench runs full scale. *)
let packets = 250

let test_stream_generation () =
  List.iter
    (fun name ->
      let s = Uarch.Workload.stream ~packets name in
      Alcotest.(check string) "name" name s.Uarch.Workload.nf;
      Alcotest.(check bool) (name ^ " nonempty") true (Array.length s.Uarch.Workload.addrs > packets);
      Alcotest.(check bool) (name ^ " instructions positive") true (s.Uarch.Workload.instructions > 0);
      Array.iter (fun a -> if a < 0 then Alcotest.fail "negative address") s.Uarch.Workload.addrs)
    Uarch.Workload.names

let test_stream_memoized_and_deterministic () =
  let a = Uarch.Workload.stream ~packets "FW" in
  let b = Uarch.Workload.stream ~packets "FW" in
  Alcotest.(check bool) "memoized (same array)" true (a.Uarch.Workload.addrs == b.Uarch.Workload.addrs)

let test_rebase_disjoint () =
  let s = Uarch.Workload.stream ~packets "LB" in
  let r1 = Uarch.Workload.rebase s ~domain:1 in
  let r2 = Uarch.Workload.rebase s ~domain:2 in
  let max1 = Array.fold_left max 0 r1.Uarch.Workload.addrs in
  let min2 = Array.fold_left min max_int r2.Uarch.Workload.addrs in
  Alcotest.(check bool) "domains do not alias" true (max1 < min2);
  Alcotest.(check bool) "domain 0 identity" true (Uarch.Workload.rebase s ~domain:0 == s)

let mk_streams names =
  Array.of_list (List.mapi (fun d n -> Uarch.Workload.rebase (Uarch.Workload.stream ~packets n) ~domain:d) names)

let test_run_sanity () =
  let streams = mk_streams [ "FW"; "LB" ] in
  let res = Uarch.Cpu_model.run ~horizon:300_000 ~l2_bytes:(4 lsl 20) ~isolation:Uarch.Cpu_model.Baseline streams in
  Alcotest.(check int) "two domains" 2 (Array.length res);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "ipc positive" true (r.Uarch.Cpu_model.ipc > 0.);
      Alcotest.(check bool) "ipc <= 1" true (r.Uarch.Cpu_model.ipc <= 1.0);
      Alcotest.(check bool) "cycles >= horizon" true (r.Uarch.Cpu_model.cycles >= 300_000);
      Alcotest.(check bool) "l1 rate in range" true (r.Uarch.Cpu_model.l1_miss_rate >= 0. && r.Uarch.Cpu_model.l1_miss_rate <= 1.);
      Alcotest.(check bool) "l2 rate in range" true (r.Uarch.Cpu_model.l2_miss_rate >= 0. && r.Uarch.Cpu_model.l2_miss_rate <= 1.))
    res

let median_deg ~l2_bytes ~n target =
  let partners = List.filteri (fun i _ -> i < n - 1) [ "LB"; "Mon"; "LPM"; "FW"; "NAT"; "LB"; "Mon"; "LPM"; "FW"; "NAT"; "LB"; "Mon"; "LPM"; "FW"; "NAT" ] in
  let streams = mk_streams (target :: partners) in
  let degs = Uarch.Cpu_model.degradation ~horizon:400_000 ~l2_bytes streams in
  snd degs.(0)

let test_degradation_small_at_low_cotenancy () =
  let d = median_deg ~l2_bytes:(4 lsl 20) ~n:2 "FW" in
  Alcotest.(check bool) (Printf.sprintf "2 NFs @4MB small (%.2f%%)" d) true (Float.abs d < 3.0)

let test_degradation_grows_with_cotenancy () =
  let d2 = median_deg ~l2_bytes:(4 lsl 20) ~n:2 "FW" in
  let d16 = median_deg ~l2_bytes:(4 lsl 20) ~n:16 "FW" in
  Alcotest.(check bool) (Printf.sprintf "16 NFs (%.2f%%) worse than 2 (%.2f%%)" d16 d2) true (d16 > d2);
  Alcotest.(check bool) "16-NF degradation substantial" true (d16 > 1.0)

let test_degradation_grows_as_cache_shrinks () =
  let small = median_deg ~l2_bytes:(32 * 1024) ~n:4 "FW" in
  let large = median_deg ~l2_bytes:(16 lsl 20) ~n:4 "FW" in
  Alcotest.(check bool) (Printf.sprintf "8KB (%.2f%%) >= 16MB (%.2f%%)" small large) true (small >= large -. 0.25)

let test_stats_of () =
  let s = Uarch.Colocation.stats_of [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check (float 0.001)) "median" 3.0 s.Uarch.Colocation.median;
  Alcotest.(check bool) "p1 <= median <= p99" true
    (s.Uarch.Colocation.p1 <= s.Uarch.Colocation.median && s.Uarch.Colocation.median <= s.Uarch.Colocation.p99);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Uarch.Colocation.mean [ 5.; 1.; 3.; 2.; 4. ])

let test_working_sets_ordering () =
  (* Table 6 ordering: LB has the smallest working set. *)
  let ws = Uarch.Workload.working_set_bytes in
  Alcotest.(check bool) "LB smallest" true (ws "LB" < ws "FW" && ws "LB" < ws "DPI" && ws "LB" < ws "NAT");
  Alcotest.(check bool) "tables span MBs" true (ws "FW" > (1 lsl 20))

let suite =
  [
    Alcotest.test_case "stream generation" `Slow test_stream_generation;
    Alcotest.test_case "stream memoized" `Quick test_stream_memoized_and_deterministic;
    Alcotest.test_case "rebase disjoint" `Quick test_rebase_disjoint;
    Alcotest.test_case "run sanity" `Quick test_run_sanity;
    Alcotest.test_case "small degradation at 2 NFs" `Slow test_degradation_small_at_low_cotenancy;
    Alcotest.test_case "degradation grows with cotenancy" `Slow test_degradation_grows_with_cotenancy;
    Alcotest.test_case "degradation grows as cache shrinks" `Slow test_degradation_grows_as_cache_shrinks;
    Alcotest.test_case "stats helpers" `Quick test_stats_of;
    Alcotest.test_case "working set ordering" `Quick test_working_sets_ordering;
  ]

let test_figure5_apis () =
  (* Tiny parameterizations: the full sweeps run in the bench. *)
  let f5a = Uarch.Colocation.figure5a ~l2_sizes:[ 64 * 1024 ] ~packets:150 () in
  Alcotest.(check int) "eight NFs" 8 (List.length f5a);
  List.iter
    (fun (nf, series) ->
      match series with
      | [ (size, stats) ] ->
        Alcotest.(check int) (nf ^ " size echoed") (64 * 1024) size;
        Alcotest.(check bool) (nf ^ " p1<=median<=p99") true
          (stats.Uarch.Colocation.p1 <= stats.Uarch.Colocation.median
          && stats.Uarch.Colocation.median <= stats.Uarch.Colocation.p99)
      | _ -> Alcotest.fail "expected one size")
    f5a;
  let f5b = Uarch.Colocation.figure5b ~cotenancy:[ 2 ] ~samples:2 ~packets:150 () in
  Alcotest.(check int) "eight NFs again" 8 (List.length f5b)

let test_figure8_shape () =
  let get threads frame = Uarch.Figure8.simulate ~packets:800 ~threads ~frame_bytes:frame () in
  (* Small frames: producer-bound, flat in cluster size. *)
  Alcotest.(check bool) "64B flat" true (Float.abs (get 16 64 -. get 48 64) < 0.05);
  (* Jumbo frames: accelerator-bound, scaling with threads. *)
  Alcotest.(check bool) "9KB scales" true (get 48 9000 > 2.5 *. get 16 9000);
  Alcotest.(check bool) "9KB slower than 64B" true (get 16 9000 < get 16 64)

let test_instr_latency_model () =
  let lb = Memprof.Instr_latency.launch (Memprof.Profiles.find "LB") in
  let mon = Memprof.Instr_latency.launch (Memprof.Profiles.find "Mon") in
  (* Paper anchors: LB 29.62ms SHA, Mon 763.52ms SHA. *)
  Alcotest.(check bool) "LB sha ~29.6ms" true (Float.abs (lb.Memprof.Instr_latency.sha_ms -. 29.62) < 1.0);
  Alcotest.(check bool) "Mon sha ~763ms" true (Float.abs (mon.Memprof.Instr_latency.sha_ms -. 763.5) < 10.);
  let d = Memprof.Instr_latency.destroy (Memprof.Profiles.find "Mon") in
  Alcotest.(check bool) "Mon scrub ~54ms" true (Float.abs (d.Memprof.Instr_latency.scrub_ms -. 54.23) < 2.);
  Alcotest.(check bool) "attest flat 5.6ms" true (Float.abs (Memprof.Instr_latency.attest_ms -. 5.6) < 0.1)

let suite =
  suite
  @ [
      Alcotest.test_case "figure 5 APIs" `Slow test_figure5_apis;
      Alcotest.test_case "figure 8 shape" `Slow test_figure8_shape;
      Alcotest.test_case "figure 6 latency anchors" `Quick test_instr_latency_model;
    ]
