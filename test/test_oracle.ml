(* Tests for lib/oracle: the model-based isolation oracle.

   The load-bearing claims, each checked here:
   - campaigns are deterministic and replay byte-identically from a seed
     or a dumped trace file;
   - the flat reference model never disagrees with the machine (zero
     model-mismatch in every mode — the differential core);
   - every commodity mode reproduces its §3.3 violation classes and
     S-NIC reproduces none;
   - the shrinker reduces a seeded violation to a minimal trace that
     still replays to the same violation key;
   - the op codec round-trips and rejects garbage without raising. *)

open Oracle

let commodity_modes =
  [
    Nicsim.Machine.Liquidio_se_s;
    Nicsim.Machine.Liquidio_se_um { nf_xkphys = false };
    Nicsim.Machine.Liquidio_se_um { nf_xkphys = true };
    Nicsim.Machine.Agilio;
    Nicsim.Machine.Bluefield;
  ]

let classes_of (r : Campaign.report) =
  List.sort_uniq compare (List.map (fun (v : Refmodel.violation) -> v.cls) r.Campaign.violations)

(* ---------- op codec ---------- *)

let arbitrary_op =
  QCheck.make
    ~print:(fun op -> Op.to_line op)
    (QCheck.Gen.map
       (fun seed ->
         let rng = Trace.Rng.create ~seed in
         Op.gen rng ~slots:Campaign.default_slots)
       QCheck.Gen.int)

let op_roundtrip =
  QCheck.Test.make ~name:"op to_line |> of_line = Ok op" ~count:2000 arbitrary_op (fun op ->
      match Op.of_line (Op.to_line op) with
      | Ok op' -> Op.equal op op'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* Any string, and any known verb followed by arbitrary key=value words,
   decodes to Ok or Error without raising, and every Ok op re-encodes
   through to_line to the same op.  A third of the lines are a real op's
   line with up to two values swapped for odd spellings ("+3", "0x1f",
   "1_0"), so that Ok cases are common. *)
let arbitrary_line =
  let open QCheck.Gen in
  let word = string_size ~gen:printable (0 -- 8) in
  let pick known = oneof [ oneofl known; word ] in
  let value =
    pick [ "0"; "1"; "7"; "255"; "256"; "-1"; "+3"; "0x1f"; "1_0"; "4611686018427387904"; "os"; "virt"; "phys"; "graph";
           "iq"; "to-host"; "to-nic"; "bus"; "dma"; "accel"; "" ]
  in
  let field =
    map2
      (fun k v -> k ^ "=" ^ v)
      (pick [ "slot"; "kb"; "accel"; "rules"; "actor"; "target"; "space"; "off"; "len"; "byte"; "reg"; "value"; "dir";
              "src"; "dst"; "pad"; "weight"; "res"; "cost"; "window" ])
      value
  in
  let command =
    map2
      (fun verb fields -> String.concat " " (verb :: fields))
      (oneofl [ "launch"; "teardown"; "read"; "write"; "mmio"; "dma"; "stream"; "inject"; "attest"; "vfattach";
                "vfdetach"; "vfdoorbell"; "vfqread"; "qos"; "chanopen"; "chansend"; "chanreplay" ])
      (list_size (0 -- 7) field)
  in
  let mutated =
    map2
      (fun seed edits ->
        let words =
          Array.of_list
            (String.split_on_char ' '
               (Op.to_line (Op.gen ~fabric:true (Trace.Rng.create ~seed) ~slots:Campaign.default_slots)))
        in
        List.iter
          (fun (i, v) ->
            let i = 1 + (i mod max 1 (Array.length words - 1)) in
            match String.index_opt words.(i) '=' with
            | Some j -> words.(i) <- String.sub words.(i) 0 (j + 1) ^ v
            | None -> ())
          edits;
        String.concat " " (Array.to_list words))
      int
      (list_size (0 -- 2) (pair nat value))
  in
  QCheck.make ~print:(Printf.sprintf "%S") (oneof [ string_size (0 -- 80); command; mutated ])

let of_line_total =
  QCheck.Test.make ~name:"of_line: Ok or Error on any line, Ok re-encodes to itself" ~count:5000 arbitrary_line (fun line ->
      match Op.of_line line with
      | Error _ -> true
      | Ok op -> (
        match Op.of_line (Op.to_line op) with
        | Ok op' -> Op.equal op op'
        | Error e -> QCheck.Test.fail_reportf "to_line output rejected: %s" e))

let test_of_line_rejects () =
  List.iter
    (fun line ->
      match Op.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_line accepted garbage: %S" line)
    [
      "";
      "frobnicate slot=0";
      "launch";
      "launch slot=0 kb=4 accel=0";
      "launch slot=0 kb=4 accel=0 rules=0 rules=1";
      "launch slot=0 kb=4 accel=0 rules=0 extra=9";
      "launch slot=zero kb=4 accel=0 rules=0";
      "launch slot=0 kb=0 accel=0 rules=0";
      "read actor=os target=0 space=warp off=0 len=8";
      "read actor=both target=0 space=phys off=0 len=8";
      "write actor=os target=0 space=phys off=0 len=8 byte=0";
      "write actor=os target=0 space=phys off=0 len=0 byte=7";
      "mmio actor=0 target=0 reg=lever value=1";
      "dma actor=0 target=0 dir=sideways off=0 len=8";
      "teardown slot=";
      "launch slot=0 kb=4 accel=0 rules=0 trailing junk";
    ]

(* ---------- determinism + replay ---------- *)

let test_seed_determinism () =
  let mode = Nicsim.Machine.Agilio in
  let a = Campaign.run ~mode ~ops:3000 ~seed:7 () in
  let b = Campaign.run ~mode ~ops:3000 ~seed:7 () in
  Alcotest.(check string) "reports byte-identical" (Campaign.to_string a) (Campaign.to_string b);
  Alcotest.(check int) "violation count" (List.length a.Campaign.violations) (List.length b.Campaign.violations);
  let c = Campaign.run ~mode ~ops:3000 ~seed:8 () in
  Alcotest.(check bool) "different seed differs" true (Campaign.to_string a <> Campaign.to_string c)

let test_trace_file_roundtrip () =
  let mode = Nicsim.Machine.Liquidio_se_s in
  let ops = Campaign.gen_ops ~slots:4 ~ops:500 ~seed:11 () in
  let text = Campaign.trace_to_string ~mode ~slots:4 ops in
  match Campaign.trace_of_string text with
  | Error e -> Alcotest.failf "trace_of_string failed: %s" e
  | Ok (mode', slots', ops') ->
    Alcotest.(check bool) "mode preserved" true (mode' = mode);
    Alcotest.(check int) "slots preserved" 4 slots';
    Alcotest.(check bool) "ops preserved" true (List.for_all2 Op.equal ops ops');
    let direct = Campaign.replay ~slots:4 ~mode ops in
    let replayed = Campaign.replay ~slots:slots' ~mode:mode' ops' in
    Alcotest.(check string) "replay byte-identical" (Campaign.to_string direct) (Campaign.to_string replayed)

let test_trace_of_string_rejects () =
  List.iter
    (fun text ->
      match Campaign.trace_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "trace_of_string accepted: %S" text)
    [
      "";
      "launch slot=0 kb=4 accel=0 rules=0\n";
      "mode warp9\nlaunch slot=0 kb=4 accel=0 rules=0\n";
      "mode snic\nslots 99\n";
      "mode snic\nfrobnicate slot=0\n";
    ]

(* ---------- the differential core ---------- *)

let test_no_model_mismatch_any_mode () =
  List.iter
    (fun mode ->
      let r = Campaign.run ~mode ~ops:5000 ~seed:42 () in
      let mismatches =
        List.filter (fun (v : Refmodel.violation) -> v.cls = Refmodel.Model_mismatch) r.Campaign.violations
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: zero model-mismatch" (Campaign.mode_id mode))
        0 (List.length mismatches))
    Campaign.all_modes

let test_snic_clean () =
  List.iter
    (fun seed ->
      let r = Campaign.run ~mode:Nicsim.Machine.Snic ~ops:5000 ~seed () in
      Alcotest.(check int) (Printf.sprintf "snic seed %d clean" seed) 0 (List.length r.Campaign.violations))
    [ 1; 42; 1337 ]

let test_commodity_classes () =
  (* Violation classes each commodity mode must reproduce at 5k ops with
     the pinned seed; what is absent matters as much as what fires. *)
  let module M = Nicsim.Machine in
  let expectations =
    [
      ( M.Liquidio_se_s,
        [
          Refmodel.Cross_tenant_read;
          Refmodel.Cross_tenant_write;
          Refmodel.Os_read_nf;
          Refmodel.Accel_hijack;
          Refmodel.Scrub_residue;
          Refmodel.Stale_translation;
        ] );
      ( M.Liquidio_se_um { nf_xkphys = false },
        (* NF physical access is blocked without xkphys; the OS-driven and
           hygiene classes remain (plus cross-tenant via unchecked DMA). *)
        [
          Refmodel.Cross_tenant_read;
          Refmodel.Cross_tenant_write;
          Refmodel.Os_read_nf;
          Refmodel.Scrub_residue;
          Refmodel.Stale_translation;
        ] );
      ( M.Liquidio_se_um { nf_xkphys = true },
        [
          Refmodel.Cross_tenant_read;
          Refmodel.Cross_tenant_write;
          Refmodel.Os_read_nf;
          Refmodel.Accel_hijack;
          Refmodel.Scrub_residue;
          Refmodel.Stale_translation;
        ] );
      ( M.Agilio,
        [
          Refmodel.Cross_tenant_read;
          Refmodel.Cross_tenant_write;
          Refmodel.Os_read_nf;
          Refmodel.Accel_hijack;
          Refmodel.Scrub_residue;
          Refmodel.Stale_translation;
        ] );
      ( M.Bluefield,
        (* TrustZone stops NF raw access and MMIO hijack, but the secure
           NIC OS snoops freely and DMA is unchecked. *)
        [
          Refmodel.Cross_tenant_read;
          Refmodel.Cross_tenant_write;
          Refmodel.Os_read_nf;
          Refmodel.Scrub_residue;
          Refmodel.Stale_translation;
        ] );
    ]
  in
  List.iter
    (fun (mode, expected) ->
      let r = Campaign.run ~mode ~ops:5000 ~seed:42 () in
      let got = classes_of r in
      Alcotest.(check (list string))
        (Campaign.mode_id mode)
        (List.map Refmodel.cls_to_string (List.sort compare expected))
        (List.map Refmodel.cls_to_string got))
    expectations

(* ---------- shrinking ---------- *)

let test_shrinker_minimizes () =
  let mode = Nicsim.Machine.Liquidio_se_s in
  let ops = Campaign.gen_ops ~slots:Campaign.default_slots ~ops:2000 ~seed:42 () in
  let r = Campaign.replay ~mode ops in
  match List.rev r.Campaign.violations with
  | [] -> Alcotest.fail "seeded campaign produced no violation to shrink"
  | v :: _ ->
    let small = Shrink.minimize ~mode ops v in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d ops (<= 10)" (List.length small))
      true
      (List.length small <= 10);
    let key = Refmodel.key v in
    let r' = Campaign.replay ~mode small in
    Alcotest.(check bool) "shrunk trace reproduces the violation key" true
      (List.exists (fun v' -> String.equal (Refmodel.key v') key) r'.Campaign.violations);
    (* Byte-identical reproduction: replaying the shrunk trace twice
       gives the same report. *)
    Alcotest.(check string) "shrunk replay deterministic"
      (Campaign.to_string r')
      (Campaign.to_string (Campaign.replay ~mode small))

(* ---------- canonical attack replays ---------- *)

let test_replays_commodity_vs_snic () =
  (* Every canonical trace must fail to reproduce on S-NIC, and must
     reproduce on at least one commodity mode. *)
  List.iter
    (fun (r : Attacks.Replays.replay) ->
      Alcotest.(check bool)
        (r.name ^ " blocked on snic")
        false
        (Attacks.Replays.reproduces Nicsim.Machine.Snic r);
      Alcotest.(check bool)
        (r.name ^ " reproduces on some commodity mode")
        true
        (List.exists (fun m -> Attacks.Replays.reproduces m r) commodity_modes))
    Attacks.Replays.all

let test_replays_agree_with_imperative_attacks () =
  (* The oracle trace and the hand-written attack must agree mode by
     mode. packet-corruption diverges on BlueField by design: the
     imperative attack flips an unsecured normal-world packet buffer,
     while the oracle trace writes the victim's secure-marked region. *)
  let get name = match Attacks.Replays.find name with Some r -> r | None -> Alcotest.failf "missing replay %s" name in
  let check_agreement name imperative ~except =
    let r = get name in
    List.iter
      (fun mode ->
        if not (List.mem mode except) then
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" name (Nicsim.Machine.mode_name mode))
            (imperative mode).Attacks.succeeded
            (Attacks.Replays.reproduces mode r))
      (commodity_modes @ [ Nicsim.Machine.Snic ])
  in
  check_agreement "ruleset-stealing" Attacks.ruleset_stealing ~except:[];
  check_agreement "accel-hijack" Attacks.accel_hijack ~except:[];
  check_agreement "packet-corruption" Attacks.packet_corruption ~except:[ Nicsim.Machine.Bluefield ]

let suite =
  [
    QCheck_alcotest.to_alcotest op_roundtrip;
    Alcotest.test_case "of_line rejects garbage" `Quick test_of_line_rejects;
    Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
    Alcotest.test_case "trace file round-trip" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "trace_of_string rejects garbage" `Quick test_trace_of_string_rejects;
    Alcotest.test_case "zero model-mismatch in every mode" `Quick test_no_model_mismatch_any_mode;
    Alcotest.test_case "snic campaigns are clean" `Quick test_snic_clean;
    Alcotest.test_case "commodity modes reproduce their classes" `Quick test_commodity_classes;
    Alcotest.test_case "shrinker minimizes to <= 10 ops" `Quick test_shrinker_minimizes;
    Alcotest.test_case "canonical replays: commodity vs snic" `Quick test_replays_commodity_vs_snic;
    Alcotest.test_case "replays agree with imperative attacks" `Quick test_replays_agree_with_imperative_attacks;
    QCheck_alcotest.to_alcotest of_line_total;
  ]
