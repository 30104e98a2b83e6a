open Nicsim

(* The QoS credit arbiter (lib/nicsim/qos): unit checks on the contract
   edges plus the four qcheck properties ISSUE.md names — per-epoch
   credit conservation, guaranteed minimums under saturation, work
   conservation via slack donation, and starvation freedom. *)

let cfg ?(epoch = 100) ?(cap = 1000) () =
  { Qos.epoch; bus_capacity = cap; dma_capacity = cap; accel_capacity = cap }

let test_validation () =
  Alcotest.check_raises "non-positive epoch" (Invalid_argument "Qos.create: epoch must be positive") (fun () ->
      ignore (Qos.create { (cfg ()) with Qos.epoch = 0 }));
  let q = Qos.create (cfg ()) in
  (let bad = { Qos.guarantee = 10; cap = 5 } in
   match Qos.register q ~tenant:1 { Qos.bus = bad; dma = bad; accel = bad; slo = None } with
   | () -> Alcotest.fail "cap < guarantee must be rejected"
   | exception Invalid_argument _ -> ());
  (* Guarantees summing past capacity are lies; registration refuses. *)
  Qos.register q ~tenant:1 (Qos.flat ~guarantee:600 ~cap:1000 ());
  (match Qos.register q ~tenant:2 (Qos.flat ~guarantee:500 ~cap:1000 ()) with
  | () -> Alcotest.fail "over-subscription must be rejected"
  | exception Invalid_argument _ -> ());
  (* Replacing the same tenant's contract is not over-subscription. *)
  Qos.register q ~tenant:1 (Qos.flat ~guarantee:900 ~cap:1000 ());
  Alcotest.(check (list int)) "tenants" [ 1 ] (Qos.tenants q);
  (match Qos.admit q ~tenant:7 ~resource:Qos.Bus ~cost:1 ~now:0 with
  | _ -> Alcotest.fail "unregistered tenant must raise"
  | exception Invalid_argument _ -> ());
  match Qos.admit q ~tenant:1 ~resource:Qos.Bus ~cost:0 ~now:0 with
  | _ -> Alcotest.fail "non-positive cost must raise"
  | exception Invalid_argument _ -> ()

let test_throttle_until () =
  let q = Qos.create (cfg ~epoch:100 ~cap:1000 ()) in
  Qos.register q ~tenant:1 (Qos.flat ~guarantee:10 ~cap:10 ());
  (* Over the burst cap: refused, with credit back at the next epoch
     boundary after [now]. *)
  (match Qos.admit q ~tenant:1 ~resource:Qos.Dma ~cost:20 ~now:250 with
  | Qos.Throttled t ->
    Alcotest.(check int) "until = next boundary" 300 t.Qos.until;
    Alcotest.(check int) "who" 1 t.Qos.tenant;
    Alcotest.(check string) "what" "dma" (Qos.resource_name t.Qos.resource)
  | Qos.Granted -> Alcotest.fail "over-cap request must throttle");
  let s = Qos.stats q ~tenant:1 in
  Alcotest.(check int) "throttle counted" 1 s.Qos.throttles;
  Alcotest.(check int) "nothing granted" 0 s.Qos.grants

let test_slo_accounting () =
  let q = Qos.create (cfg ()) in
  Qos.register q ~tenant:3 (Qos.flat ~guarantee:10 ~cap:20 ~slo:500 ());
  Alcotest.(check (option (float 1e-9))) "quantile below 2 samples" None
    (Qos.latency_quantile q ~tenant:3 ~q:0.99);
  Qos.note_latency q ~tenant:3 ~cycles:400;
  Qos.note_latency q ~tenant:3 ~cycles:501;
  Qos.note_latency q ~tenant:3 ~cycles:9000;
  let s = Qos.stats q ~tenant:3 in
  Alcotest.(check int) "samples" 3 s.Qos.samples;
  Alcotest.(check int) "violations above slo" 2 s.Qos.slo_violations;
  match Qos.latency_quantile q ~tenant:3 ~q:0.5 with
  | Some v -> Alcotest.(check (float 1e-9)) "median" 501. v
  | None -> Alcotest.fail "median must exist at 3 samples"

let test_rollover_donates () =
  (* capacity = sum of guarantees: no structural slack, so any borrow
     must come from last epoch's unused guarantee. *)
  let g = 50 in
  let q = Qos.create (cfg ~epoch:100 ~cap:(2 * g) ()) in
  Qos.register q ~tenant:1 (Qos.flat ~guarantee:g ~cap:(2 * g) ());
  Qos.register q ~tenant:2 (Qos.flat ~guarantee:g ~cap:(2 * g) ());
  (* Epoch 0: tenant 2 idle, tenant 1 spends only its guarantee. *)
  (match Qos.admit q ~tenant:1 ~resource:Qos.Bus ~cost:g ~now:0 with
  | Qos.Granted -> ()
  | Qos.Throttled _ -> Alcotest.fail "in-guarantee must grant");
  (* Epoch 1: tenant 2's unused guarantee was donated to slack... *)
  (match Qos.admit q ~tenant:1 ~resource:Qos.Bus ~cost:g ~now:100 with
  | Qos.Granted -> ()
  | Qos.Throttled _ -> Alcotest.fail "in-guarantee must grant");
  Alcotest.(check int) "donated slack" g (Qos.epoch_slack q ~resource:Qos.Bus);
  (* ...so tenant 1 can now borrow beyond its guarantee. Tenant 2's
     *current* reservation is still untouchable: g slack on top of the
     g already spent leaves exactly g borrowable. *)
  (match Qos.admit q ~tenant:1 ~resource:Qos.Bus ~cost:g ~now:150 with
  | Qos.Granted -> ()
  | Qos.Throttled _ -> Alcotest.fail "donated slack must be borrowable");
  (match Qos.admit q ~tenant:1 ~resource:Qos.Bus ~cost:1 ~now:160 with
  | Qos.Throttled _ -> ()
  | Qos.Granted -> Alcotest.fail "tenant 2's live reservation must stay off-limits");
  let s = Qos.stats q ~tenant:1 in
  Alcotest.(check int) "borrow counted" 1 s.Qos.borrows;
  Alcotest.(check int) "borrowed credits" g s.Qos.borrowed_credits

(* ------------------------------------------------------------------ *)
(* Properties *)

let resource_of = function 0 -> Qos.Bus | 1 -> Qos.Dma | _ -> Qos.Accel

(* One random admission schedule: n tenants with equal guarantees, an
   oversubscribing request stream at non-decreasing times. Returns the
   arbiter plus a replayable list of (tenant, resource, cost, now). *)
let ops_gen =
  QCheck.make
    ~print:(fun (n, g, ops) ->
      Printf.sprintf "tenants=%d g=%d ops=[%s]" n g
        (String.concat ";" (List.map (fun (t, r, c, now) -> Printf.sprintf "%d:%d:%d@%d" t r c now) ops)))
    QCheck.Gen.(
      int_range 2 5 >>= fun n ->
      int_range 4 64 >>= fun g ->
      list_size (int_range 1 120)
        (triple (int_range 0 (n - 1)) (int_range 0 2) (int_range 1 (2 * g)))
      >>= fun raw ->
      (* Non-decreasing now: random strictly-positive strides. *)
      list_repeat (List.length raw) (int_range 0 40) >>= fun strides ->
      let now = ref 0 in
      let ops =
        List.map2
          (fun (t, r, c) dt ->
            now := !now + dt;
            (t, r, c, !now))
          raw strides
      in
      return (n, g, ops))

let arbiter_of n g =
  let q = Qos.create (cfg ~epoch:100 ~cap:(n * g) ()) in
  for t = 0 to n - 1 do
    Qos.register q ~tenant:t (Qos.flat ~guarantee:g ~cap:(n * g) ())
  done;
  q

let prop_conservation =
  QCheck.Test.make ~name:"per-epoch grants never exceed capacity + donated slack" ~count:200 ops_gen
    (fun (n, g, ops) ->
      let q = Qos.create (cfg ~epoch:100 ~cap:(n * g) ()) in
      (* Zero structural slack AND caps = capacity: the bound is tight. *)
      List.iter
        (fun (t, _, _, _) ->
          if not (Qos.registered q ~tenant:t) then
            Qos.register q ~tenant:t (Qos.flat ~guarantee:g ~cap:(n * g) ()))
        ops;
      List.for_all
        (fun (t, r, c, now) ->
          if not (Qos.registered q ~tenant:t) then true
          else begin
            let resource = resource_of r in
            ignore (Qos.admit q ~tenant:t ~resource ~cost:c ~now);
            Qos.epoch_granted q ~resource <= (n * g) + Qos.epoch_slack q ~resource
          end)
        ops)

let prop_guaranteed_min =
  QCheck.Test.make ~name:"in-guarantee requests always grant, even saturated" ~count:200 ops_gen
    (fun (n, g, ops) ->
      let q = arbiter_of n g in
      let spent = Hashtbl.create 16 in
      let key t r = (t * 3) + r in
      let epoch = ref (-1) in
      List.for_all
        (fun (t, r, c, now) ->
          if now / 100 <> !epoch then begin
            epoch := now / 100;
            Hashtbl.reset spent
          end;
          let k = key t r in
          let used = Option.value ~default:0 (Hashtbl.find_opt spent k) in
          let v = Qos.admit q ~tenant:t ~resource:(resource_of r) ~cost:c ~now in
          (match v with Qos.Granted -> Hashtbl.replace spent k (used + c) | Qos.Throttled _ -> ());
          (* The invariant: a request that fits in the remaining
             guarantee can never be refused, whatever anyone else did. *)
          if used + c <= g then v = Qos.Granted else true)
        ops)

let prop_work_conservation =
  QCheck.Test.make ~name:"unused guarantees are donated, never destroyed" ~count:200
    QCheck.(pair (int_range 2 5) (int_range 4 64))
    (fun (n, g) ->
      let q = arbiter_of n g in
      (* Epoch 0: only tenant 0 runs, spending its own guarantee. *)
      ignore (Qos.admit q ~tenant:0 ~resource:Qos.Bus ~cost:g ~now:0);
      (* Epoch 1: everyone else's epoch-0 guarantee became slack, so
         tenant 0 can be granted (n-1) extra guarantees beyond its own
         (the others' *live* epoch-1 reservations stay untouchable). *)
      if Qos.epoch_slack q ~resource:Qos.Bus <> 0 then
        QCheck.Test.fail_report "slack visible before rollover";
      let ok = ref (Qos.admit q ~tenant:0 ~resource:Qos.Bus ~cost:g ~now:100 = Qos.Granted) in
      ok := !ok && Qos.epoch_slack q ~resource:Qos.Bus = (n - 1) * g;
      for _ = 1 to n - 1 do
        ok := !ok && Qos.admit q ~tenant:0 ~resource:Qos.Bus ~cost:g ~now:110 = Qos.Granted
      done;
      ok := !ok && Qos.admit q ~tenant:0 ~resource:Qos.Bus ~cost:1 ~now:120 <> Qos.Granted;
      !ok)

let prop_starvation_freedom =
  QCheck.Test.make ~name:"an aggressor cannot starve any tenant's guarantee" ~count:200
    QCheck.(triple (int_range 2 5) (int_range 4 64) (int_range 0 1000))
    (fun (n, g, seed) ->
      let q = arbiter_of n g in
      let rng = Trace.Rng.create ~seed in
      let ok = ref true in
      for e = 0 to 3 do
        let now = e * 100 in
        (* Tenant 0 floods first, far past everyone's combined credit... *)
        for _ = 1 to 8 do
          ignore (Qos.admit q ~tenant:0 ~resource:Qos.Bus ~cost:(1 + Trace.Rng.int rng (n * g)) ~now)
        done;
        (* ...yet every other tenant still gets its full guarantee. *)
        for t = 1 to n - 1 do
          let granted0 = Qos.granted_credits q ~tenant:t ~resource:Qos.Bus in
          let left = ref g in
          while !left > 0 do
            let c = min !left (1 + Trace.Rng.int rng g) in
            (match Qos.admit q ~tenant:t ~resource:Qos.Bus ~cost:c ~now:(now + 1) with
            | Qos.Granted -> ()
            | Qos.Throttled _ -> ok := false);
            left := !left - c
          done;
          ok := !ok && Qos.granted_credits q ~tenant:t ~resource:Qos.Bus - granted0 = g
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The fleet-level noisy-neighbor scenario: its gates, and that no
   victim starves (its replay and validation laws are in
   test_scenarios.ml). *)

let small_qos =
  { Fleet.Qos_scenario.default_config with Fleet.Qos_scenario.q_tenants = 4; q_rounds = 2; q_requests = 8 }

let test_run_qos_gates () =
  let r = Fleet.Qos_scenario.run small_qos in
  let gates = Fleet.Qos_scenario.gates r in
  Alcotest.(check bool) "gate keys and rules" true
    (List.map (fun (g : Obs.Gate.t) -> (g.key, g.rule)) gates
    = [
        ("share_min", Obs.Gate.At_least 0.9);
        ("victim_p99_steady_cycles", Obs.Gate.At_most 2000.);
        ("starved_victims", Obs.Gate.Equals 0.);
      ]);
  Alcotest.(check int) "seed 42 passes" 0 (List.length (Obs.Gate.failed gates));
  Alcotest.(check int) "no victim starved" 0 r.Fleet.Qos_scenario.q_starved;
  Alcotest.(check (list string)) "a missing steady p99 is reported" [ "victim_p99_steady_cycles" ]
    (List.map
       (fun (g : Obs.Gate.t) -> g.key)
       (Obs.Gate.failed (Fleet.Qos_scenario.gates { r with Fleet.Qos_scenario.q_victim_p99_steady = None })))

let suite =
  [
    Alcotest.test_case "contract validation" `Quick test_validation;
    Alcotest.test_case "throttle points at the refill" `Quick test_throttle_until;
    Alcotest.test_case "slo accounting" `Quick test_slo_accounting;
    Alcotest.test_case "rollover donates unused credit" `Quick test_rollover_donates;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_guaranteed_min;
    QCheck_alcotest.to_alcotest prop_work_conservation;
    QCheck_alcotest.to_alcotest prop_starvation_freedom;
    Alcotest.test_case "run_qos gates: pinned, a doctored figure fails" `Quick test_run_qos_gates;
  ]
