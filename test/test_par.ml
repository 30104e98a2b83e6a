(* lib/par: the determinism contract under real parallelism.

   The load-bearing check is the parallel-vs-sequential digest: the same
   sharded oracle campaign fanned across 4 domains must produce
   byte-identical reports to the single-domain run, on several seeds
   (the scenarios' sharded runs are checked by the law suite,
   test_scenarios.ml).  Around it sit the contract edges:
   injective seed derivation (qcheck), shard-order merging under an
   adversarial slow-shard stub, exception propagation, and the
   registry-merge semantics the CLI's --metrics path relies on. *)

let seeds = [ 11; 42; 1337 ]

(* ---------------- Seed derivation ---------------- *)

let test_seed_contract () =
  Alcotest.check_raises "negative shard" (Invalid_argument "Par.Seed.derive: shard must be >= 0") (fun () ->
      ignore (Par.Seed.derive ~seed:1 ~shard:(-1)));
  let many = Par.Seed.derive_many ~seed:42 ~shards:16 in
  Alcotest.(check int) "derive_many length" 16 (Array.length many);
  Array.iteri
    (fun shard s -> Alcotest.(check int) "derive_many agrees with derive" (Par.Seed.derive ~seed:42 ~shard) s)
    many;
  (* Derived seeds stay in the RNG's non-negative 62-bit domain. *)
  Array.iter (fun s -> Alcotest.(check bool) "non-negative" true (s >= 0)) many

let prop_seed_injective =
  QCheck.Test.make ~name:"par: shard-seed derivation is injective per base seed" ~count:500
    (QCheck.triple (QCheck.int_bound max_int) (QCheck.int_bound 100_000) (QCheck.int_bound 100_000))
    (fun (seed, a, b) ->
      a = b || Par.Seed.derive ~seed ~shard:a <> Par.Seed.derive ~seed ~shard:b)

let prop_seed_spreads_across_seeds =
  QCheck.Test.make ~name:"par: distinct base seeds give distinct shard-0 streams" ~count:300
    (QCheck.pair (QCheck.int_bound (1 lsl 40)) (QCheck.int_bound (1 lsl 40)))
    (fun (s1, s2) -> s1 = s2 || Par.Seed.derive ~seed:s1 ~shard:0 <> Par.Seed.derive ~seed:s2 ~shard:0)

let test_digest_boundaries () =
  (* The strings digest must see element boundaries, not just the
     concatenation — shard reports ["ab";"c"] and ["a";"bc"] differ. *)
  Alcotest.(check bool) "boundary-sensitive" false
    (Par.Digest.strings [ "ab"; "c" ] = Par.Digest.strings [ "a"; "bc" ]);
  Alcotest.(check int) "stable" (Par.Digest.string "hello") (Par.Digest.string "hello");
  (* The bench's payload checksum is [fold 0]: (97*131 + 98)*131 + 99. *)
  Alcotest.(check int) "fold from 0" 1_677_554 (Par.Digest.fold 0 "abc");
  Alcotest.(check int) "string is fold from 17" (Par.Digest.fold 17 "hello") (Par.Digest.string "hello")

(* ---------------- Engine ---------------- *)

let test_engine_validation () =
  Alcotest.check_raises "domains = 0" (Invalid_argument "Par.Engine.map: domains must be >= 1") (fun () ->
      ignore (Par.Engine.map ~domains:0 ~shards:1 (fun ~shard -> shard)));
  Alcotest.check_raises "shards < 0" (Invalid_argument "Par.Engine.map: shards must be >= 0") (fun () ->
      ignore (Par.Engine.map ~domains:1 ~shards:(-1) (fun ~shard -> shard)));
  Alcotest.(check (array int)) "zero shards" [||] (Par.Engine.map ~domains:4 ~shards:0 (fun ~shard -> shard))

(* Busy-wait long enough that even shards finish well after odd ones on
   any realistic scheduler; results must still come back in shard order,
   never completion order. *)
let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := Sys.opaque_identity (!x + i)
  done;
  ignore (Sys.opaque_identity !x)

let test_merge_order_adversarial () =
  let r =
    Par.Engine.map ~domains:4 ~shards:8 (fun ~shard ->
        if shard mod 2 = 0 then spin 2_000_000 else spin 100;
        shard)
  in
  Alcotest.(check (array int)) "shard order, not completion order" [| 0; 1; 2; 3; 4; 5; 6; 7 |] r

let test_engine_exception_propagation () =
  (* Shards 3 and 5 fail; the lowest-index failure is the one re-raised. *)
  match
    Par.Engine.map ~domains:4 ~shards:8 (fun ~shard ->
        if shard = 3 then failwith "shard-3" else if shard = 5 then failwith "shard-5" else shard)
  with
  | _ -> Alcotest.fail "expected a shard failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "lowest failing shard wins" "shard-3" msg

let test_map_seeded () =
  let r = Par.Engine.map_seeded ~domains:2 ~seed:42 ~shards:6 (fun ~shard ~seed -> (shard, seed)) in
  Array.iteri
    (fun i (shard, seed) ->
      Alcotest.(check int) "shard index" i shard;
      Alcotest.(check int) "derived seed" (Par.Seed.derive ~seed:42 ~shard:i) seed)
    r

(* ---------------- Registry merging ---------------- *)

let test_metrics_merge () =
  let open Obs.Metrics in
  let a = create_registry () and b = create_registry () and into = create_registry () in
  add (counter a "reqs") 3;
  add (counter b "reqs") 4;
  add (counter b "errs") 1;
  let buckets = [| 1.; 2. |] in
  observe (histogram ~buckets a "lat") 0.5;
  observe (histogram ~buckets b "lat") 1.5;
  merge_into ~into a;
  merge_into ~into b;
  Alcotest.(check (list (pair string int))) "counters sum" [ ("errs", 1); ("reqs", 7) ] (counters into);
  let h = histogram ~buckets into "lat" in
  Alcotest.(check int) "hist count" 2 (hist_count h);
  Alcotest.(check (float 1e-9)) "hist sum" 2.0 (hist_sum h);
  (* Merge order must not matter for the rendered snapshot. *)
  let into2 = create_registry () in
  merge_into ~into:into2 b;
  merge_into ~into:into2 a;
  Alcotest.(check string) "merge commutes" (prometheus into) (prometheus into2);
  (* Ladder mismatches are a bug in the caller, not silently resized. *)
  let c = create_registry () in
  ignore (histogram ~buckets:[| 5.; 10. |] c "lat");
  match merge_into ~into c with
  | () -> Alcotest.fail "mismatched bucket ladders must raise"
  | exception Invalid_argument _ -> ()

(* ---------------- Parallel-vs-sequential digests ---------------- *)

let test_oracle_digest_100k () =
  (* 4 shards x 25k ops = a 100k-op campaign per fan-out.  The summary
     string covers executed counts, per-class tallies and every recorded
     violation, so digest equality is byte-identical reporting. *)
  let mode = match Oracle.Campaign.mode_of_id "se-s" with Some m -> m | None -> assert false in
  List.iter
    (fun seed ->
      let digest domains =
        Oracle.Campaign.run_sharded ~domains ~mode ~ops:25_000 ~seed ~shards:4 ()
        |> Array.map Oracle.Campaign.to_string
        |> Array.to_list |> Par.Digest.strings
      in
      Alcotest.(check int)
        (Printf.sprintf "oracle seed %d: 4 domains == sequential" seed)
        (digest 1) (digest 4))
    seeds

let suite =
  [
    Alcotest.test_case "seed derivation contract" `Quick test_seed_contract;
    QCheck_alcotest.to_alcotest prop_seed_injective;
    QCheck_alcotest.to_alcotest prop_seed_spreads_across_seeds;
    Alcotest.test_case "digest boundary sensitivity" `Quick test_digest_boundaries;
    Alcotest.test_case "engine argument validation" `Quick test_engine_validation;
    Alcotest.test_case "merge order under adversarial slow shards" `Quick test_merge_order_adversarial;
    Alcotest.test_case "exception propagation picks lowest shard" `Quick test_engine_exception_propagation;
    Alcotest.test_case "map_seeded derives per-shard seeds" `Quick test_map_seeded;
    Alcotest.test_case "registry merge semantics" `Quick test_metrics_merge;
    Alcotest.test_case "oracle 100k ops: parallel == sequential (3 seeds)" `Slow test_oracle_digest_100k;
  ]
