(* snic_cli: run individual S-NIC experiments from the command line.

     snic_cli paper [ID]              — the paper's tables and figures as CSV
     snic_cli dos [--epoch N]         — IO-bus DoS under both arbiters
     snic_cli tco [--area P --power P]— TCO sensitivity
     snic_cli tlb --entries N         — TLB cost model query
     snic_cli pack --mb X [--menu M]  — page packing for a region
     snic_cli ipc [--l2 BYTES --nfs N]— one IPC-degradation run
     snic_cli dpi --threads N --frame B — one Figure-8 point
     snic_cli fig5 [--nfs N]          — Figure 5b stats at one co-tenancy
     snic_cli fleet [--nics N ...]    — seeded multi-NIC fleet scenario
     snic_cli chaos [--intensity X ...] — gray-failure storm + self-healing
     snic_cli datapath [--bytes N]    — bulk vs per-byte Physmem probe
     snic_cli fabric [--nics N ...]   — attested NIC-to-NIC fabric + failover
     snic_cli trace chaos --out t.json — record a Chrome trace of a scenario *)

open Cmdliner

(* One shared --seed flag: every trace-driven subcommand takes it, and
   the same value reproduces the same run (the generators fall back to
   their historic fixed seeds when it is omitted). *)
let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the synthetic trace generators")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a Prometheus text dump of the run's metric registry to $(docv)")

(* A single flag's range is checked by its converter at parse time, so
   "--domains 0" is a cmdliner usage error (exit 124) exactly like a
   non-numeric value — the CLI contract test pins this. *)
let int_in ~what ~range ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%s must be %s, got %S" what range s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int ~what = int_in ~what ~range:"a positive integer" (fun n -> n >= 1)

(* One co-tenant per hard-partitioned L2 way of the timing model. *)
let cotenancy_int =
  int_in ~what:"NFS"
    ~range:(Printf.sprintf "an integer in 1..%d" Uarch.Cpu_model.max_domains)
    (fun n -> n >= 1 && n <= Uarch.Cpu_model.max_domains)

let domains_arg =
  Arg.(value & opt (positive_int ~what:"DOMAINS") 1
       & info [ "domains" ] ~docv:"DOMAINS"
           ~doc:"OCaml domains to fan work across (results are byte-identical for any value; see PARALLELISM.md)")

let shards_arg =
  Arg.(value & opt (some (positive_int ~what:"SHARDS")) None
       & info [ "shards" ] ~docv:"SHARDS"
           ~doc:"Run $(docv) independent shards with Par.Seed-derived seeds, merged in shard order")

(* The merged snapshot of a sharded run: every shard's registry folded
   into one, plus the par_* rows describing the fan-out itself. *)
let merged_shard_registry ~domains ~shards sinks =
  let merged = Obs.Metrics.create_registry () in
  Obs.Metrics.add
    (Obs.Metrics.counter merged "par_shards_total" ~help:"Shards executed by the sharded run")
    shards;
  Obs.Metrics.add
    (Obs.Metrics.counter merged "par_domains" ~help:"Domains the shards were fanned across")
    domains;
  Array.iter
    (fun sink ->
      match Obs.registry sink with
      | Some reg ->
        Obs.Metrics.incr
          (Obs.Metrics.counter merged "par_registries_merged_total"
             ~help:"Per-shard registries folded into this snapshot");
        Obs.Metrics.merge_into ~into:merged reg
      | None -> ())
    sinks;
  merged

(* Invalid input that cmdliner cannot see — a relation between flags, an
   invalid config, a file that cannot be read or written — exits 2 with
   "<cmd>: <msg>". *)
let exit_error ~cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  exit 2

(* [check_writable] opens an output file before the run spends any time
   (neither truncating it nor leaving a new one behind); [write_file]
   writes it at the end. *)
let check_writable ~cmd path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
    close_out oc;
    if not existed then Sys.remove path
  | exception Sys_error msg -> exit_error ~cmd msg

let write_file ~cmd path contents =
  match Out_channel.with_open_text path (fun oc -> output_string oc contents) with
  | () -> ()
  | exception Sys_error msg -> exit_error ~cmd msg

(* After the summaries are printed: exit 1 if any run (one, or every
   shard) fails a gate from its report's own list. *)
let exit_on_failed_gates cmd gates runs =
  match Obs.Gate.failed (List.concat_map gates (Array.to_list runs)) with
  | [] -> ()
  | failed ->
    List.iter (fun g -> Printf.eprintf "%s: FAIL %s\n" cmd (Obs.Gate.to_string g)) failed;
    exit 1

let validate_or_exit ~cmd = function Ok () -> () | Error msg -> exit_error ~cmd msg

(* The one way a scenario subcommand runs: refuse an invalid config
   (exit 2), run once or as [shards] seeded shards, print each summary
   (under a shard header when sharded), write --metrics, and exit 1 on
   any failed gate. *)
let run_scenario (type c r) (module M : Fleet.Run.S with type config = c and type report = r) ~cmd
    ?(domains = 1) ?(shards = 1) ?metrics ?(print = fun r -> print_string (M.summary r)) config =
  validate_or_exit ~cmd (M.validate config);
  Option.iter (check_writable ~cmd) metrics;
  let record = metrics <> None in
  let write reg = Option.iter (fun path -> write_file ~cmd path (Obs.Metrics.prometheus reg)) metrics in
  let reports =
    if shards = 1 then begin
      (* Only record device events when someone asked for the metrics
         dump — the null sink keeps the default run overhead-free. *)
      let sink = if record then Obs.create () else Obs.null in
      let r = M.run ~sink ~domains config in
      print r;
      Option.iter write (Obs.registry sink);
      [| r |]
    end
    else begin
      let results = Fleet.Run.many (module M) ~domains ~record ~shards config in
      Array.iteri
        (fun i (seed, r, _) ->
          Printf.printf "=== shard %d (seed %d) ===\n" i seed;
          print r)
        results;
      if record then write (merged_shard_registry ~domains ~shards (Array.map (fun (_, _, sink) -> sink) results));
      Array.map (fun (_, r, _) -> r) results
    end
  in
  exit_on_failed_gates cmd M.gates reports

(* fleet --csv/--json and chaos --json print the orchestrator's
   telemetry, which is not part of the report: one run through the
   scenario's [run_with]. *)
let run_telemetry (type c r) (module M : Fleet.Run.S with type config = c and type report = r)
    ~(run_with : ?sink:Obs.sink -> ?domains:int -> c -> r * Fleet.Orchestrator.t) ~cmd ~domains ?metrics print
    config =
  validate_or_exit ~cmd (M.validate config);
  Option.iter (check_writable ~cmd) metrics;
  let sink = if metrics = None then Obs.null else Obs.create () in
  let report, orch = run_with ~sink ~domains config in
  let telemetry = Fleet.Orchestrator.telemetry orch in
  print report telemetry;
  Option.iter (fun path -> write_file ~cmd path (Fleet.Telemetry.prometheus telemetry)) metrics;
  exit_on_failed_gates cmd M.gates [| report |]

let dos_cmd =
  let epoch =
    Arg.(value & opt (positive_int ~what:"EPOCH") 96 & info [ "epoch" ] ~doc:"Temporal partitioning epoch (cycles)")
  in
  let dead =
    Arg.(value
         & opt (int_in ~what:"DEAD" ~range:"a non-negative integer" (fun n -> n >= 0)) 16
         & info [ "dead" ] ~doc:"Dead time at end of each epoch (cycles)")
  in
  let run epoch dead =
    if epoch - dead < Attacks.attacker_op_cost then
      exit_error ~cmd:"dos"
        (Printf.sprintf "--epoch minus --dead must leave room for one %d-cycle attacker op, got %d - %d"
           Attacks.attacker_op_cost epoch dead);
    let show name (r : Attacks.dos_result) =
      Printf.printf "%-28s alone %10.0f pps, attacked %10.0f pps, retained %5.1f%%\n" name r.Attacks.alone_pps
        r.Attacks.under_attack_pps (100. *. r.Attacks.retained)
    in
    show "free-for-all" (Attacks.bus_dos Nicsim.Bus.Free_for_all);
    show
      (Printf.sprintf "temporal(%d,%d)" epoch dead)
      (Attacks.bus_dos (Nicsim.Bus.Temporal { epoch; dead }))
  in
  Cmd.v (Cmd.info "dos" ~doc:"IO-bus denial-of-service experiment") Term.(const run $ epoch $ dead)

let tco_cmd =
  let area = Arg.(value & opt float 8.89 & info [ "area" ] ~doc:"Area overhead percent") in
  let power = Arg.(value & opt float 11.45 & info [ "power" ] ~doc:"Power overhead percent") in
  let run area power =
    let s = Costmodel.Tco.summary ~area_overhead_pct:area ~power_overhead_pct:power () in
    Printf.printf "NIC $%.2f/core, S-NIC $%.2f/core, host $%.2f/core\n" s.Costmodel.Tco.nic_tco
      s.Costmodel.Tco.snic_tco s.Costmodel.Tco.host_tco;
    Printf.printf "advantage reduction %.2f%%, preserved %.1f%%\n" s.Costmodel.Tco.advantage_reduction_pct
      s.Costmodel.Tco.preserved_pct
  in
  Cmd.v (Cmd.info "tco" ~doc:"Total-cost-of-ownership model") Term.(const run $ area $ power)

let tlb_cmd =
  let entries = Arg.(required & opt (some int) None & info [ "entries" ] ~doc:"TLB entry count") in
  let run entries =
    Printf.printf "%d-entry TLB: %.4f mm^2, %.4f W (per structure, 28nm McPAT-anchored)\n" entries
      (Costmodel.Tlb_cost.area_mm2 entries) (Costmodel.Tlb_cost.power_w entries)
  in
  Cmd.v (Cmd.info "tlb" ~doc:"TLB silicon cost query") Term.(const run $ entries)

let pack_cmd =
  let mb = Arg.(required & opt (some float) None & info [ "mb" ] ~doc:"Region size in MiB") in
  let menu =
    Arg.(value & opt (enum [ ("equal", `Equal); ("flex-low", `Low); ("flex-high", `High) ]) `Equal
         & info [ "menu" ] ~doc:"Page-size menu")
  in
  let run mb menu =
    let sizes =
      match menu with
      | `Equal -> Costmodel.Page_packing.equal_2mb
      | `Low -> Costmodel.Page_packing.flex_low
      | `High -> Costmodel.Page_packing.flex_high
    in
    let bytes = Costmodel.Page_packing.mb mb in
    Printf.printf "%.2f MiB -> %d TLB entries, %.2f MiB wasted\n" mb
      (Costmodel.Page_packing.entries_for_region ~page_sizes:sizes bytes)
      (float_of_int (Costmodel.Page_packing.waste ~page_sizes:sizes [ bytes ]) /. 1048576.)
  in
  Cmd.v (Cmd.info "pack" ~doc:"Variable-page-size packing query") Term.(const run $ mb $ menu)

(* An NF short name, validated through the registry so a typo lists the
   valid names and exits through cmdliner's usage path (124). *)
let nf_conv =
  let parse s =
    match Nf.Registry.find s with
    | spec -> Ok spec.Nf.Registry.short
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let ipc_cmd =
  let l2 = Arg.(value & opt int (4 lsl 20) & info [ "l2" ] ~doc:"L2 size in bytes") in
  let nfs = Arg.(value & opt cotenancy_int 4 & info [ "nfs" ] ~doc:"Co-tenancy degree (1-16)") in
  let nf_names =
    Arg.(value & opt_all nf_conv []
         & info [ "nf" ] ~docv:"NAME" ~doc:"Colocate exactly these NFs (repeatable); overrides $(b,--nfs)")
  in
  let run l2 nfs nf_names seed =
    if List.length nf_names > Uarch.Cpu_model.max_domains then
      exit_error ~cmd:"ipc"
        (Printf.sprintf "at most %d --nf names (one per L2 way), got %d" Uarch.Cpu_model.max_domains
           (List.length nf_names));
    let names =
      match nf_names with
      | [] ->
        let pool = Uarch.Workload.names in
        List.init nfs (fun i -> List.nth pool (i mod List.length pool))
      | names -> names
    in
    let streams =
      Array.of_list
        (List.mapi (fun d n -> Uarch.Workload.rebase (Uarch.Workload.stream ~packets:800 ?seed n) ~domain:d) names)
    in
    Array.iter
      (fun (nf, d) -> Printf.printf "%-5s IPC degradation %.2f%%\n" nf d)
      (Uarch.Cpu_model.degradation ~l2_bytes:l2 streams)
  in
  Cmd.v (Cmd.info "ipc" ~doc:"One IPC-degradation colocation run (Figure 5 point)")
    Term.(const run $ l2 $ nfs $ nf_names $ seed_arg)

let dpi_cmd =
  let threads =
    Arg.(value & opt (positive_int ~what:"THREADS") 16 & info [ "threads" ] ~doc:"vDPI hardware threads")
  in
  let frame = Arg.(value & opt int 1500 & info [ "frame" ] ~doc:"Frame size in bytes") in
  let run threads frame =
    Printf.printf "%d threads, %dB frames: %.3f Mpps\n" threads frame
      (Uarch.Figure8.simulate ~threads ~frame_bytes:frame ())
  in
  Cmd.v (Cmd.info "dpi" ~doc:"One Figure-8 accelerator-throughput point") Term.(const run $ threads $ frame)

(* The paper's tables and figures as CSV, from the registry that the
   bench prints and EXPERIMENTS.md embeds; exit 1 on a failed claim. *)
let paper_cmd =
  let entry =
    Arg.(value
         & pos 0 (some (enum (List.map (fun e -> (Repro.id e, e)) Repro.all))) None
         & info [] ~docv:"ID" ~doc:"Print only this entry (default: every entry, in order)")
  in
  let run entry =
    let print e =
      let out = Repro.run ~fast:false e in
      print_string (Repro.to_csv e out);
      Repro.claims e out
    in
    exit_on_failed_gates "paper" Fun.id [| List.concat_map print (Option.fold ~none:Repro.all ~some:(fun e -> [ e ]) entry) |]
  in
  Cmd.v (Cmd.info "paper" ~doc:"The paper's tables and figures as CSV, with its values as checked claims") Term.(const run $ entry)

let fig5_cmd =
  let cotenancy = Arg.(value & opt cotenancy_int 4 & info [ "nfs" ] ~doc:"Co-tenancy degree (1-16)") in
  let packets =
    Arg.(value & opt (positive_int ~what:"PACKETS") Repro.fig5b.packets & info [ "packets" ] ~doc:"Packets per stream")
  in
  let run cotenancy packets seed =
    print_endline "nf,cotenancy,median_pct,p1_pct,p99_pct";
    List.iter
      (fun (nf, series) ->
        List.iter
          (fun (n, (s : Uarch.Colocation.stats)) ->
            Printf.printf "%s,%d,%.3f,%.3f,%.3f\n" nf n s.Uarch.Colocation.median s.Uarch.Colocation.p1
              s.Uarch.Colocation.p99)
          series)
      (Uarch.Colocation.figure5b ~cotenancy:[ cotenancy ] ~samples:Repro.fig5b.samples ~packets ?seed ())
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Figure 5b IPC-degradation stats as CSV")
    Term.(const run $ cotenancy $ packets $ seed_arg)

(* fleet and chaos: a placement policy name, parsed by
   Fleet.Policy.of_string so a typo lists the valid names and exits
   through cmdliner's usage path (124). *)
let policy_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Fleet.Policy.of_string s) in
  let print ppf p = Format.pp_print_string ppf (Fleet.Policy.name p) in
  Arg.(value & opt (conv (parse, print)) Fleet.Policy.First_fit
       & info [ "policy" ] ~docv:"POLICY" ~doc:"Placement policy: first-fit|best-fit|spread|tco-aware")

let fleet_cmd =
  let nics = Arg.(value & opt int 16 & info [ "nics" ] ~doc:"NICs in the rack") in
  let tenants = Arg.(value & opt int 64 & info [ "tenants" ] ~doc:"Tenant NFs to place") in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~doc:"Traffic rounds (failures strike between them)") in
  let packets = Arg.(value & opt int 600 & info [ "packets" ] ~doc:"Packets replayed per round") in
  let kill_nics = Arg.(value & opt int 2 & info [ "kill-nics" ] ~doc:"NIC failures injected over the run") in
  let kill_nfs = Arg.(value & opt int 4 & info [ "kill-nfs" ] ~doc:"Orderly NF kills injected over the run") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit per-tenant and per-NIC telemetry as CSV") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full telemetry tree as JSON") in
  let run seed nics tenants policy rounds packets kill_nics kill_nfs csv json metrics domains shards =
    let config =
      {
        Fleet.Scenario.default_config with
        Fleet.Scenario.seed = Option.value seed ~default:Fleet.Scenario.default_config.Fleet.Scenario.seed;
        n_nics = nics;
        n_tenants = tenants;
        policy;
        rounds;
        packets_per_round = packets;
        kill_nics;
        kill_nfs;
      }
    in
    if not (csv || json) then run_scenario (module Fleet.Scenario) ~cmd:"fleet" ~domains ?shards ?metrics config
    else if Option.value shards ~default:1 > 1 then begin
      prerr_endline "fleet: --csv/--json apply to single-shard runs (drop --shards)";
      exit 2
    end
    else
      run_telemetry (module Fleet.Scenario) ~run_with:Fleet.Scenario.run_with ~cmd:"fleet" ~domains ?metrics
        (fun report telemetry ->
          if json then print_string (Fleet.Telemetry.to_json telemetry)
          else begin
            print_string (Fleet.Scenario.summary report);
            print_newline ();
            print_string (Fleet.Telemetry.tenants_csv telemetry);
            print_newline ();
            print_string (Fleet.Telemetry.nics_csv telemetry)
          end)
        config
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Seeded multi-NIC fleet scenario: attested placement, traffic, failure recovery")
    Term.(
      const run $ seed_arg $ nics $ tenants $ policy_arg $ rounds $ packets $ kill_nics $ kill_nfs $ csv $ json
      $ metrics_arg $ domains_arg $ shards_arg)

let chaos_cmd =
  let nics = Arg.(value & opt int 8 & info [ "nics" ] ~doc:"NICs in the rack") in
  let tenants = Arg.(value & opt int 24 & info [ "tenants" ] ~doc:"Tenant NFs to place") in
  let rounds = Arg.(value & opt int 6 & info [ "rounds" ] ~doc:"Traffic rounds under the storm") in
  let packets = Arg.(value & opt int 400 & info [ "packets" ] ~doc:"Packets replayed per round") in
  let intensity =
    Arg.(value & opt float 3.0 & info [ "intensity" ] ~doc:"Fault-rate multiplier on the storm NICs")
  in
  let stride =
    Arg.(value & opt int 3 & info [ "stride" ] ~doc:"Every k-th NIC gets the full storm (0 = none)")
  in
  let flips = Arg.(value & opt int 2 & info [ "flips" ] ~doc:"DRAM bit flips injected per round") in
  let kill_nics = Arg.(value & opt int 1 & info [ "kill-nics" ] ~doc:"Fail-stop NIC kills over the run") in
  let kill_nfs = Arg.(value & opt int 2 & info [ "kill-nfs" ] ~doc:"Orderly NF kills over the run") in
  let log = Arg.(value & flag & info [ "log" ] ~doc:"Print the replayable fault-injection log") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full telemetry tree as JSON") in
  let run seed nics tenants policy rounds packets intensity stride flips kill_nics kill_nfs log json metrics
      domains shards =
    let config =
      {
        Fleet.Chaos.default_config with
        Fleet.Chaos.seed = Option.value seed ~default:Fleet.Chaos.default_config.Fleet.Chaos.seed;
        n_nics = nics;
        n_tenants = tenants;
        policy;
        rounds;
        packets_per_round = packets;
        intensity;
        flaky_stride = stride;
        dram_flips_per_round = flips;
        kill_nics;
        kill_nfs;
      }
    in
    let print report =
      print_string (Fleet.Chaos.summary report);
      if log then begin
        print_newline ();
        print_string report.Fleet.Chaos.injection_log
      end
    in
    if not json then run_scenario (module Fleet.Chaos) ~cmd:"chaos" ~domains ?shards ?metrics ~print config
    else if Option.value shards ~default:1 > 1 then begin
      prerr_endline "chaos: --json applies to single-shard runs (drop --shards)";
      exit 2
    end
    else
      run_telemetry (module Fleet.Chaos) ~run_with:Fleet.Chaos.run_with ~cmd:"chaos" ~domains ?metrics
        (fun _ telemetry -> print_string (Fleet.Telemetry.to_json telemetry))
        config
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Gray-failure storm: fault injection across the fleet with self-healing recovery")
    Term.(
      const run $ seed_arg $ nics $ tenants $ policy_arg $ rounds $ packets $ intensity $ stride $ flips $ kill_nics
      $ kill_nfs $ log $ json $ metrics_arg $ domains_arg $ shards_arg)

let datapath_cmd =
  let bytes = Arg.(value & opt int (1 lsl 20) & info [ "bytes" ] ~docv:"N" ~doc:"Transfer size in bytes") in
  let run bytes seed =
    if bytes <= 0 then begin
      prerr_endline "datapath: --bytes must be positive";
      exit 2
    end;
    let open Nicsim in
    let seed = Option.value seed ~default:42 in
    let rng = Trace.Rng.create ~seed in
    let payload = String.init bytes (fun _ -> Char.chr (Trace.Rng.int rng 256)) in
    let size =
      let page = Physmem.page_size in
      (* Two disjoint page-aligned regions, whatever the transfer size. *)
      (((2 * bytes) + page - 1) / page * page) + (2 * page)
    in
    let mem = Physmem.create ~size in
    let time f =
      let t0 = Sys.time () in
      f ();
      Float.max (Sys.time () -. t0) 1e-6
    in
    let r0 = Physmem.resolutions mem in
    let per_dt =
      time (fun () ->
          for i = 0 to bytes - 1 do
            Physmem.write_u8 mem i (Char.code payload.[i])
          done;
          for i = 0 to bytes - 1 do
            ignore (Physmem.read_u8 mem i)
          done)
    in
    let per_res = Physmem.resolutions mem - r0 in
    let dst = size / 2 in
    let r1 = Physmem.resolutions mem in
    let ok = ref false in
    let bulk_dt =
      time (fun () ->
          Physmem.write_bytes mem ~pos:dst payload;
          ok := String.equal (Physmem.read_bytes mem ~pos:dst ~len:bytes) payload)
    in
    let bulk_res = Physmem.resolutions mem - r1 in
    let mbs dt = float_of_int bytes *. 2. /. 1048576. /. dt in
    Printf.printf "%d bytes (seed %d)\n" bytes seed;
    Printf.printf "per-byte: %10.1f MB/s  %9d page resolutions\n" (mbs per_dt) per_res;
    Printf.printf "bulk:     %10.1f MB/s  %9d page resolutions  roundtrip %s\n" (mbs bulk_dt) bulk_res
      (if !ok then "ok" else "CORRUPT");
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "datapath"
       ~doc:"Quick probe of the bulk Physmem fast path vs the per-byte baseline (see bench --only datapath)")
    Term.(const run $ bytes $ seed_arg)

let oracle_cmd =
  let mode_enum = Arg.enum (List.map (fun m -> (Oracle.Campaign.mode_id m, m)) Oracle.Campaign.all_modes) in
  let mode =
    Arg.(value & opt (some mode_enum) None
         & info [ "mode" ] ~docv:"MODE" ~doc:"NIC mode: se-s|se-um|se-um-xk|agilio|bluefield|snic")
  in
  let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Ops to generate and execute") in
  let slots = Arg.(value & opt int Oracle.Campaign.default_slots & info [ "slots" ] ~docv:"K" ~doc:"Tenant slots (1-8)") in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE" ~doc:"Replay a recorded trace file instead of generating ops")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE" ~doc:"Write the executed (or, with --shrink, the shrunk) trace to $(docv)")
  in
  let shrink = Arg.(value & flag & info [ "shrink" ] ~doc:"Delta-debug the first violation down to a minimal trace") in
  let fabric_ops =
    Arg.(value & flag
         & info [ "fabric-ops" ]
             ~doc:"Mix attested-channel ops (chanopen/chansend/chanreplay) into the generated alphabet")
  in
  let expect =
    Arg.(value & opt (some (enum [ ("clean", `Clean); ("violations", `Violations) ])) None
         & info [ "expect" ] ~docv:"WHAT" ~doc:"Exit 1 unless the run is $(b,clean) / has $(b,violations)")
  in
  let run seed mode ops slots replay dump shrink fabric_ops expect domains shards =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if slots < 1 || slots > 8 then fail "oracle: --slots must be in 1..8";
    if ops < 0 then fail "oracle: --ops must be non-negative";
    if fabric_ops && replay <> None then
      fail "oracle: --fabric-ops applies to generated runs (drop --replay)";
    (* --domains N with no explicit --shards means "a real parallel
       campaign": one shard per domain.  Any shard replays alone with
       --shards K --domains 1 (or via its derived seed) — PARALLELISM.md
       walks through the equivalence. *)
    let shards = match shards with Some s -> s | None -> if domains > 1 then domains else 1 in
    if shards > 1 then begin
      if replay <> None || shrink || dump <> None then
        fail "oracle: --replay/--shrink/--dump apply to single-shard runs (drop --shards/--domains)";
      match mode with
      | None -> fail "oracle: --mode is required (or use --replay FILE)"
      | Some mode ->
        let seed = Option.value seed ~default:42 in
        let reports = Oracle.Campaign.run_sharded ~domains ~slots ~fabric:fabric_ops ~mode ~ops ~seed ~shards () in
        Array.iteri
          (fun i r ->
            Printf.printf "=== shard %d (seed %s) ===\n" i
              (match r.Oracle.Campaign.seed with Some s -> string_of_int s | None -> "-");
            print_string (Oracle.Campaign.to_string r))
          reports;
        let dirty =
          Array.exists (fun (r : Oracle.Campaign.report) -> r.Oracle.Campaign.violations <> []) reports
        in
        let all_dirty =
          Array.for_all (fun (r : Oracle.Campaign.report) -> r.Oracle.Campaign.violations <> []) reports
        in
        (match expect with
        | Some `Clean when dirty ->
          prerr_endline "oracle: expected a clean run but found violations";
          exit 1
        | Some `Violations when not all_dirty ->
          prerr_endline "oracle: expected violations in every shard but found a clean one";
          exit 1
        | _ -> ());
        exit 0
    end;
    Option.iter (check_writable ~cmd:"oracle") dump;
    let mode, slots, ops_list, seed_used =
      match replay with
      | Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error msg -> fail ("oracle: " ^ msg)
        | text -> (
          match Oracle.Campaign.trace_of_string text with
          | Ok (m, s, trace) -> (m, s, trace, None)
          | Error e -> fail (Printf.sprintf "oracle: %s: %s" path e)))
      | None -> (
        match mode with
        | None -> fail "oracle: --mode is required (or use --replay FILE)"
        | Some m ->
          let seed = Option.value seed ~default:42 in
          (m, slots, Oracle.Campaign.gen_ops ~fabric:fabric_ops ~slots ~ops ~seed (), Some seed))
    in
    let report = { (Oracle.Campaign.replay ~slots ~mode ops_list) with Oracle.Campaign.seed = seed_used } in
    print_string (Oracle.Campaign.to_string report);
    let final_ops =
      if not shrink then ops_list
      else begin
        match report.Oracle.Campaign.violations with
        | [] ->
          print_endline "shrink: nothing to shrink (no violations)";
          ops_list
        | v :: _ ->
          let small = Oracle.Shrink.minimize ~slots ~mode ops_list v in
          Printf.printf "shrink: %d ops -> %d ops reproducing [%s]\n" (List.length ops_list) (List.length small)
            (Oracle.Refmodel.cls_to_string v.Oracle.Refmodel.cls);
          List.iter (fun op -> print_endline ("  " ^ Oracle.Op.to_line op)) small;
          small
      end
    in
    (match dump with
    | Some path -> write_file ~cmd:"oracle" path (Oracle.Campaign.trace_to_string ~mode ~slots final_ops)
    | None -> ());
    match (expect, report.Oracle.Campaign.violations) with
    | Some `Clean, _ :: _ ->
      prerr_endline "oracle: expected a clean run but found violations";
      exit 1
    | Some `Violations, [] ->
      prerr_endline "oracle: expected violations but the run was clean";
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:"Model-based isolation oracle: differential fuzzing of the machine against a flat reference model")
    Term.(
      const run $ seed_arg $ mode $ ops $ slots $ replay $ dump $ shrink $ fabric_ops $ expect $ domains_arg
      $ shards_arg)

let vf_cmd =
  let nics = Arg.(value & opt int 1 & info [ "nics" ] ~docv:"N" ~doc:"Independent NICs to drive") in
  let vfs = Arg.(value & opt int 256 & info [ "vfs" ] ~docv:"K" ~doc:"Virtual functions per NIC") in
  let cycles =
    Arg.(value & opt int 32
         & info [ "cycles" ] ~docv:"C" ~doc:"Stage-1 scheduler rotations to serve (convergence depth)")
  in
  let quantum = Arg.(value & opt int 1024 & info [ "quantum" ] ~docv:"BYTES" ~doc:"Stage-1 byte quantum per weight unit") in
  let shares = Arg.(value & flag & info [ "shares" ] ~doc:"Print the per-tenant share table of the first NIC") in
  let run seed nics vfs cycles quantum shares =
    let seed = Option.value seed ~default:42 in
    run_scenario (module Vf.Scenario) ~cmd:"vf"
      ~print:(fun r ->
        Printf.printf "vf: %d NIC(s) x %d VFs, %d cycles, quantum %d, seed %d\n" nics vfs cycles quantum seed;
        print_string (Vf.Scenario.summary r);
        match (shares, r.Vf.Scenario.nics) with
        | true, nr :: _ -> print_string (Obs.Fairness.summary nr.Vf.Scenario.report)
        | _ -> ())
      { Vf.Scenario.nics; vfs; cycles; seed; table = { Vf.Table.default_config with Vf.Table.quantum } }
  in
  Cmd.v
    (Cmd.info "vf"
       ~doc:"SR-IOV virtual functions: saturate every VF and check the two-stage scheduler's weighted fairness")
    Term.(const run $ seed_arg $ nics $ vfs $ cycles $ quantum $ shares)

let qos_cmd =
  let tenants = Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"N" ~doc:"Tenants (tenant 0 is the aggressor)") in
  let rounds = Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"R" ~doc:"Traffic rounds") in
  let requests = Arg.(value & opt int 40 & info [ "requests" ] ~docv:"K" ~doc:"Victim requests per tenant per round") in
  let factor = Arg.(value & opt int 8 & info [ "factor" ] ~docv:"X" ~doc:"Aggressor load multiplier") in
  let slo = Arg.(value & opt int 2000 & info [ "slo" ] ~docv:"CYCLES" ~doc:"Victim latency SLO in cycles") in
  let starve = Arg.(value & flag & info [ "starve" ] ~doc:"Starvation variant: zero structural slack (capacity = sum of guarantees)") in
  let run seed tenants rounds requests factor slo starve =
    let default = Fleet.Qos_scenario.default_config in
    run_scenario (module Fleet.Qos_scenario) ~cmd:"qos"
      {
        default with
        Fleet.Qos_scenario.q_seed = Option.value seed ~default:default.Fleet.Qos_scenario.q_seed;
        q_tenants = tenants;
        q_rounds = rounds;
        q_requests = requests;
        q_factor = factor;
        q_slo = slo;
        q_starve = starve;
      }
  in
  Cmd.v
    (Cmd.info "qos"
       ~doc:"Per-tenant performance isolation: QoS credits on the shared fabric, latency SLOs and noisy-neighbor quarantine")
    Term.(const run $ seed_arg $ tenants $ rounds $ requests $ factor $ slo $ starve)

let ddos_cmd =
  let flows = Arg.(value & opt int 256 & info [ "flows" ] ~docv:"N" ~doc:"Benign flows") in
  let factor =
    Arg.(value & opt int 10 & info [ "factor" ] ~docv:"X" ~doc:"Spoofed SYNs per benign packet (attack intensity)")
  in
  let pkts =
    Arg.(value & opt int 4 & info [ "pkts-per-flow" ] ~docv:"K" ~doc:"Benign data packets after each handshake")
  in
  let log2_buckets =
    Arg.(value & opt int 10 & info [ "log2-buckets" ] ~docv:"B" ~doc:"Whitelist cuckoo filter: 2^$(docv) buckets x 4 slots")
  in
  let run seed flows factor pkts log2_buckets =
    let default = Fleet.Ddos_scenario.default_config in
    run_scenario (module Fleet.Ddos_scenario) ~cmd:"ddos"
      {
        default with
        Fleet.Ddos_scenario.d_seed = Option.value seed ~default:default.Fleet.Ddos_scenario.d_seed;
        d_benign_flows = flows;
        d_attack_factor = factor;
        d_packets_per_flow = pkts;
        d_log2_buckets = log2_buckets;
      }
  in
  Cmd.v
    (Cmd.info "ddos"
       ~doc:"CuckooGuard under a SYN flood: SYN-cookie proxy + cuckoo-filter whitelist across all five protection modes")
    Term.(const run $ seed_arg $ flows $ factor $ pkts $ log2_buckets)

let fabric_cmd =
  let nics = Arg.(value & opt int 3 & info [ "nics" ] ~docv:"N" ~doc:"NICs in the rack (proxy, tracker, spare)") in
  let flows = Arg.(value & opt int 96 & info [ "flows" ] ~docv:"F" ~doc:"Benign flows through the split chain") in
  let pkts =
    Arg.(value & opt int 4 & info [ "pkts-per-flow" ] ~docv:"K" ~doc:"Benign data packets after each handshake")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"W" ~doc:"Receiver anti-replay window (1..62)")
  in
  let buffer =
    Arg.(value & opt int 2048 & info [ "buffer" ] ~docv:"B" ~doc:"Sender replay-buffer capacity (failover state)")
  in
  let replay = Arg.(value & opt int 24 & info [ "replay" ] ~docv:"N" ~doc:"Adversarial in-window re-deliveries") in
  let reorder = Arg.(value & opt int 24 & info [ "reorder" ] ~docv:"N" ~doc:"Adversarial pre-window re-deliveries") in
  let tamper = Arg.(value & opt int 16 & info [ "tamper" ] ~docv:"N" ~doc:"Adversarial bit-flipped frames") in
  let no_kill = Arg.(value & flag & info [ "no-kill" ] ~doc:"Skip the mid-run tracker-NIC kill and failover") in
  let run seed nics flows pkts window buffer replay reorder tamper no_kill metrics domains shards =
    let default = Fleet.Fabric_scenario.default_config in
    run_scenario (module Fleet.Fabric_scenario) ~cmd:"fabric" ~domains ?shards ?metrics
      {
        default with
        Fleet.Fabric_scenario.f_seed = Option.value seed ~default:default.Fleet.Fabric_scenario.f_seed;
        f_nics = nics;
        f_flows = flows;
        f_packets_per_flow = pkts;
        f_window = window;
        f_buffer = buffer;
        f_replay = replay;
        f_reorder = reorder;
        f_tamper = tamper;
        f_kill = not no_kill;
      }
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:"Attested NIC-to-NIC fabric: cross-NIC CuckooGuard chain, mid-run failover, adversarial wire replay")
    Term.(
      const run $ seed_arg $ nics $ flows $ pkts $ window $ buffer $ replay $ reorder $ tamper $ no_kill
      $ metrics_arg $ domains_arg $ shards_arg)

let trace_cmd =
  let scenario =
    Arg.(value & pos 0 (enum [ ("chaos", `Chaos); ("fleet", `Fleet) ]) `Chaos
         & info [] ~docv:"SCENARIO" ~doc:"Scenario to trace: $(b,chaos) or $(b,fleet)")
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Chrome trace_event JSON output path (load it in ui.perfetto.dev)")
  in
  let run seed scenario out metrics =
    check_writable ~cmd:"trace" out;
    Option.iter (check_writable ~cmd:"trace") metrics;
    let sink = Obs.create () in
    let orch =
      match scenario with
      | `Chaos ->
        let config =
          {
            Fleet.Chaos.default_config with
            Fleet.Chaos.seed = Option.value seed ~default:Fleet.Chaos.default_config.Fleet.Chaos.seed;
          }
        in
        let report, orch = Fleet.Chaos.run_with ~sink config in
        print_string (Fleet.Chaos.summary report);
        orch
      | `Fleet ->
        let config =
          {
            Fleet.Scenario.default_config with
            Fleet.Scenario.seed = Option.value seed ~default:Fleet.Scenario.default_config.Fleet.Scenario.seed;
          }
        in
        let report, orch = Fleet.Scenario.run_with ~sink config in
        print_string (Fleet.Scenario.summary report);
        orch
    in
    write_file ~cmd:"trace" out (Obs.Chrome.to_json sink);
    let telemetry = Fleet.Orchestrator.telemetry orch in
    Option.iter (fun path -> write_file ~cmd:"trace" path (Fleet.Telemetry.prometheus telemetry)) metrics;
    (* Self-check: the exported trace must agree with the registry's own
       accounting of itself before anyone loads it in a viewer. *)
    let events = Obs.events sink in
    let begun = ref 0 and ended = ref 0 in
    List.iter
      (fun (e : Obs.event) ->
        match e.Obs.phase with Obs.Span_begin -> incr begun | Obs.Span_end -> incr ended | Obs.Instant -> ())
      events;
    let counter name = List.assoc_opt name (Obs.Metrics.counters (Fleet.Telemetry.registry telemetry)) in
    Printf.printf "trace: %d events (%d spans) -> %s\n" (List.length events) !begun out;
    if !begun <> !ended then begin
      Printf.eprintf "trace self-check FAILED: %d span begins vs %d span ends\n" !begun !ended;
      exit 1
    end;
    if counter "obs_spans_begun_total" <> Some !begun || Obs.span_count sink <> !begun then begin
      Printf.eprintf "trace self-check FAILED: trace span count disagrees with registry counters\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a scenario with a recording sink and export a Chrome trace_event JSON (perfetto-loadable)")
    Term.(const run $ seed_arg $ scenario $ out $ metrics_arg)

let () =
  let info = Cmd.info "snic_cli" ~doc:"S-NIC (EuroSys'24) reproduction experiments" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            paper_cmd; dos_cmd; tco_cmd; tlb_cmd; pack_cmd; ipc_cmd; dpi_cmd; fig5_cmd; fleet_cmd; chaos_cmd;
            datapath_cmd; oracle_cmd; vf_cmd; qos_cmd; ddos_cmd; fabric_cmd; trace_cmd;
          ]))
