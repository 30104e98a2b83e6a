(* The scenario law suite: every module of shape Fleet.Run.S is held to
   the same laws.  A row packs the module with a small config that its
   family's own tests show passing its gates, and the invalid configs it
   must refuse with their messages.  A new scenario adds one row.

   For every row:
   - replay: one config twice gives one summary, whose [Par.Digest] is
     the row's pinned [digest], and seeds 42, 1337 and 20240 give three
     distinct summaries;
   - domains: [~domains:1] and [~domains:4] give the same summary;
   - shards: [Fleet.Run.many ~shards:2] gives the same shards at 1 and 2
     domains, and shard i is [run (with_seed c (Par.Seed.derive ~seed
     ~shard:i))];
   - invalid configs: [validate] returns [Error msg] and [run] raises
     [Invalid_argument msg];
   - gates: the small config passes its gates. *)

type row =
  | Row : {
      name : string;
      scenario : (module Fleet.Run.S with type config = 'c and type report = 'r);
      small : 'c;  (** seed 42 *)
      digest : int;  (** [Par.Digest.string] of [small]'s summary *)
      invalid : ('c * string) list;
    }
      -> row

let fleet =
  let small =
    {
      Fleet.Scenario.default_config with
      Fleet.Scenario.n_nics = 6;
      n_tenants = 12;
      rounds = 2;
      packets_per_round = 150;
    }
  in
  Row
    {
      name = "fleet";
      scenario = (module Fleet.Scenario : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 464877731;
      invalid =
        [
          ({ small with Fleet.Scenario.n_nics = 0 }, "nics must be >= 1");
          ({ small with Fleet.Scenario.n_tenants = -1 }, "tenants must be >= 1");
          ({ small with Fleet.Scenario.rounds = 0 }, "rounds must be >= 1");
          ({ small with Fleet.Scenario.packets_per_round = -1 }, "packets per round must be >= 1");
          ({ small with Fleet.Scenario.kill_nfs = -1 }, "kill budgets must be >= 0");
        ];
    }

let chaos =
  let small =
    { Fleet.Chaos.default_config with Fleet.Chaos.n_nics = 4; n_tenants = 8; rounds = 2; packets_per_round = 100 }
  in
  Row
    {
      name = "chaos";
      scenario = (module Fleet.Chaos : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 227303965;
      invalid =
        [
          ({ small with Fleet.Chaos.n_nics = 0 }, "nics must be >= 1");
          ({ small with Fleet.Chaos.rounds = 0 }, "rounds must be >= 1");
          ({ small with Fleet.Chaos.packets_per_round = -1 }, "packets per round must be >= 1");
          ({ small with Fleet.Chaos.kill_nics = -1 }, "kill budgets must be >= 0");
          ({ small with Fleet.Chaos.dram_flips_per_round = -1 }, "DRAM flips per round must be >= 0");
          ({ small with Fleet.Chaos.flaky_stride = -1 }, "stride must be >= 0");
          ({ small with Fleet.Chaos.intensity = -1. }, "intensity must be >= 0");
        ];
    }

let qos =
  let small =
    { Fleet.Qos_scenario.default_config with Fleet.Qos_scenario.q_tenants = 4; q_rounds = 2; q_requests = 8 }
  in
  Row
    {
      name = "qos";
      scenario = (module Fleet.Qos_scenario : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 76370561;
      invalid =
        [
          ({ small with Fleet.Qos_scenario.q_tenants = 1 }, "tenants must be >= 2 (an aggressor and a victim)");
          ({ small with Fleet.Qos_scenario.q_rounds = 0 }, "rounds must be >= 1");
          ({ small with Fleet.Qos_scenario.q_requests = 3 }, "requests must be >= 4 (one per epoch)");
          ({ small with Fleet.Qos_scenario.q_factor = 0 }, "factor must be >= 1");
          ({ small with Fleet.Qos_scenario.q_slo = 0 }, "slo must be >= 1");
        ];
    }

let ddos =
  let small =
    {
      Fleet.Ddos_scenario.default_config with
      Fleet.Ddos_scenario.d_benign_flows = 32;
      d_attack_factor = 4;
      d_packets_per_flow = 2;
      d_log2_buckets = 6;
    }
  in
  Row
    {
      name = "ddos";
      scenario = (module Fleet.Ddos_scenario : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 4062947;
      invalid =
        [
          ({ small with Fleet.Ddos_scenario.d_benign_flows = 0 }, "flows must be >= 1");
          ({ small with Fleet.Ddos_scenario.d_attack_factor = 0 }, "factor must be >= 1");
          ({ small with Fleet.Ddos_scenario.d_packets_per_flow = 0 }, "packets per flow must be >= 1");
          ({ small with Fleet.Ddos_scenario.d_log2_buckets = 29 }, "log2 buckets must be in 1..28");
        ];
    }

let fabric =
  let small =
    {
      Fleet.Fabric_scenario.default_config with
      Fleet.Fabric_scenario.f_flows = 24;
      f_packets_per_flow = 2;
      f_replay = 8;
      f_reorder = 8;
      f_tamper = 6;
    }
  in
  Row
    {
      name = "fabric";
      scenario = (module Fleet.Fabric_scenario : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 893565176;
      invalid =
        [
          ({ small with Fleet.Fabric_scenario.f_nics = 2 }, "nics must be >= 3 (proxy, tracker, failover spare)");
          ({ small with Fleet.Fabric_scenario.f_flows = 0 }, "flows must be >= 1");
          ({ small with Fleet.Fabric_scenario.f_packets_per_flow = 0 }, "packets per flow must be >= 1");
          ({ small with Fleet.Fabric_scenario.f_window = 63 }, "window must be in 1..62");
          ({ small with Fleet.Fabric_scenario.f_buffer = -1 }, "buffer must be >= 0");
          ({ small with Fleet.Fabric_scenario.f_tamper = -1 }, "replay, reorder and tamper counts must be >= 0");
        ];
    }

let vf =
  let small = { Vf.Scenario.nics = 1; vfs = 32; cycles = 32; seed = 42; table = Vf.Table.default_config } in
  Row
    {
      name = "vf";
      scenario = (module Vf.Scenario : Fleet.Run.S with type config = _ and type report = _);
      small;
      digest = 652772292;
      invalid =
        [
          ({ small with Vf.Scenario.nics = 0 }, "nics must be >= 1");
          ({ small with Vf.Scenario.vfs = 0 }, "vfs must be in 1..4096");
          ({ small with Vf.Scenario.vfs = 5000 }, "vfs must be in 1..4096");
          ({ small with Vf.Scenario.cycles = 0 }, "cycles must be >= 1");
          ( { small with Vf.Scenario.table = { Vf.Table.default_config with Vf.Table.quantum = 0 } },
            "quantum must be >= 1" );
        ];
    }

let rows = [ fleet; chaos; qos; ddos; fabric; vf ]

let cases (Row { name; scenario; small; digest; invalid }) =
  let module M = (val scenario) in
  let summary ?domains c = M.summary (M.run ?domains c) in
  (* The seed-42 report, run once and shared by the cases below. *)
  let first = lazy (M.run small) in
  let replay () =
    let s42 = M.summary (Lazy.force first) in
    Alcotest.(check string) "same config, same summary" s42 (summary small);
    Alcotest.(check int) "pinned summary digest" digest (Par.Digest.string s42);
    let others = List.map (fun seed -> summary (M.with_seed small seed)) [ 1337; 20240 ] in
    Alcotest.(check int) "seeds 42, 1337 and 20240 diverge" 3 (List.length (List.sort_uniq compare (s42 :: others)))
  in
  let domains () =
    Alcotest.(check string) "domains 1 = domains 4" (M.summary (Lazy.force first)) (summary ~domains:4 small)
  in
  let shards () =
    let at domains = Fleet.Run.many scenario ~domains ~shards:2 small in
    let one = at 1 and two = at 2 in
    Alcotest.(check int) "two shards" 2 (Array.length one);
    Array.iteri
      (fun i (seed, r, _) ->
        let seed2, r2, _ = two.(i) in
        let tag = Printf.sprintf "shard %d: %s" i in
        Alcotest.(check int) (tag "derived seed") (Par.Seed.derive ~seed:(M.seed small) ~shard:i) seed;
        Alcotest.(check int) (tag "same seed at 2 domains") seed seed2;
        Alcotest.(check string) (tag "same summary at 2 domains") (M.summary r) (M.summary r2);
        Alcotest.(check string) (tag "replays alone") (summary (M.with_seed small seed)) (M.summary r))
      one
  in
  let invalid () =
    List.iter
      (fun (c, msg) ->
        Alcotest.(check (result unit string)) ("validate: " ^ msg) (Error msg) (M.validate c);
        Alcotest.check_raises ("run: " ^ msg) (Invalid_argument msg) (fun () -> ignore (M.run c)))
      invalid
  in
  let gates () =
    Alcotest.(check (result unit string)) "the small config is valid" (Ok ()) (M.validate small);
    Alcotest.(check (list string))
      "the small config passes its gates" []
      (List.map Obs.Gate.to_string (Obs.Gate.failed (M.gates (Lazy.force first))))
  in
  List.map
    (fun (law, f) -> Alcotest.test_case (name ^ ": " ^ law) `Quick f)
    [ ("replay", replay); ("domains", domains); ("shards", shards); ("invalid configs", invalid); ("gates", gates) ]

(* The small configs above never trip a breaker; the default sizes do.
   One case per scenario runs its default config, asserts that the
   breakers tripped, and pins the summary's digest. *)
let breakers =
  let qos () =
    let r = Fleet.Qos_scenario.run Fleet.Qos_scenario.default_config in
    Alcotest.(check bool) "tenant quarantines > 0" true (r.Fleet.Qos_scenario.q_quarantines > 0);
    Alcotest.(check int) "pinned summary digest" 561114873 (Par.Digest.string (Fleet.Qos_scenario.summary r))
  in
  let chaos () =
    let r = Fleet.Chaos.run Fleet.Chaos.default_config in
    Alcotest.(check bool) "quarantines > 0" true (r.Fleet.Chaos.quarantines > 0);
    Alcotest.(check bool) "recovery samples > 0" true (r.Fleet.Chaos.recovery_ms <> []);
    Alcotest.(check int) "pinned summary digest" 460098006 (Par.Digest.string (Fleet.Chaos.summary r))
  in
  [
    Alcotest.test_case "qos: default size trips the breaker" `Slow qos;
    Alcotest.test_case "chaos: default size trips the breakers" `Slow chaos;
  ]

let suite = List.concat_map cases rows @ breakers
