(* Prints every table and figure of the S-NIC paper's evaluation (§5 +
   appendices) from lib/repro's registry, with the paper's values as
   claims, then the fleet, chaos and scenario sections, then Bechamel
   microbenchmarks of the substrate.

   Run with: dune exec bench/main.exe
   Pass --fast to shrink the Figure 5 sweeps (CI-sized). *)

let fast = Array.exists (String.equal "--fast") Sys.argv

let usage =
  "Usage: bench [--fast] [--only SECTION] [--domains N] [--seed N] [--json PATH] [--metrics PATH] [--check BASELINE]"

(* A malformed flag value or baseline file is a CLI error: exit 124 with
   the usage line before any section runs, never an uncaught exception. *)
let cli_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n%s\n" msg usage;
      exit 124)
    fmt

(* --json FILE: dump every scalar metric the sections register to FILE
   as a flat JSON object, so trend tooling can track runs over time. *)
let path_after flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* An output path is opened at startup (neither truncating it nor leaving
   a new one behind), so a bad one fails before any section runs, like a
   bad --check. *)
let output_path flag =
  match path_after flag with
  | None -> None
  | Some path -> (
    let existed = Sys.file_exists path in
    match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
    | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Some path
    | exception Sys_error msg -> cli_error "%s %s" flag msg)

let json_path = output_path "--json"

(* --only SECTION: run a single named section from [sections] — the CI
   smoke jobs use this to gate regressions without paying for the full
   evaluation sweep. *)
let only = path_after "--only"

(* --seed N: seed for the datapath section's payloads, so its checksum
   and count metrics are reproducible (CI pins --seed 42). *)
let seed =
  match path_after "--seed" with
  | None -> 42
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> cli_error "--seed expects an integer, got %s" s)

(* --metrics FILE: dump the seed-42 chaos run's shared Obs registry
   (device counters + fleet counters + latency histograms) as Prometheus
   text — the same registry `snic_cli trace --metrics` exports. *)
let metrics_path = output_path "--metrics"

(* --domains N: cap the par section's scaling curve (default 8, the full
   1->2->4->8 sweep the committed baseline carries — a capped run will
   miss baseline keys under --check, so CI always runs uncapped). *)
let max_domains =
  match path_after "--domains" with
  | None -> 8
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> cli_error "--domains expects a positive integer, got %s" s)

let metrics : (string * float) list ref = ref []
let metric name value = metrics := (name, value) :: !metrics

(* The pass/fail entries each section states, keys prefixed with the
   section name as its metrics are; [run_check] evaluates them. *)
let gates : Obs.Gate.t list ref = ref []
let gate prefix entries = gates := !gates @ List.map (fun (g : Obs.Gate.t) -> { g with key = prefix ^ g.key }) entries

let write_metrics () =
  match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc "{\n%s\n}\n"
      (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %.6f" k v) (List.rev !metrics)));
    close_out oc;
    Printf.printf "wrote %d metrics to %s\n" (List.length !metrics) path

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* The paper's tables and figures (lib/repro)                          *)
(* ------------------------------------------------------------------ *)

(* Every registry entry, its claims recorded as gates — except for the
   entries --fast shrinks: their claims are stated at paper scale. *)
let paper_section () =
  List.iter
    (fun e ->
      let out = Repro.run ~fast e and evaluated = not (fast && Repro.shrinks e) in
      print_string (Repro.to_text e (if evaluated then out else { out with claims = [] }));
      if evaluated then gate "paper." (Repro.claims e out)
      else if out.claims <> [] then print_endline "(--fast shrinks this entry; its claims, stated at paper scale, are not evaluated)";
      (* Host time, so never part of an entry. *)
      if String.equal (Repro.id e) "fig6" then begin
        let buf = String.make (8 lsl 20) 'x' in
        let t0 = Sys.time () in
        ignore (Crypto.Sha256.digest buf);
        Printf.printf "(our software SHA-256 on this host: %.0f MB/s)\n" (8. /. (Sys.time () -. t0))
      end)
    Repro.all

(* ------------------------------------------------------------------ *)
(* Chaos: recovery latency and goodput under gray failures             *)
(* ------------------------------------------------------------------ *)

let chaos_section () =
  header "Gray-failure chaos: recovery latency and goodput under faults";
  Printf.printf "%-8s %8s %8s %8s %8s %9s %6s %7s %11s\n" "seed" "faults" "p50 ms" "p90 ms" "p99 ms" "goodput"
    "quar" "readmit" "unattested";
  let seeds = if fast then [ 42; 1337 ] else [ 42; 1337; 20240 ] in
  List.iter
    (fun seed ->
      (* Record device events only when --metrics asked for the dump; the
         null sink keeps the benchmark itself overhead-free. *)
      let sink = if seed = 42 && metrics_path <> None then Obs.create () else Obs.null in
      let r, orch = Fleet.Chaos.run_with ~sink { Fleet.Chaos.default_config with Fleet.Chaos.seed } in
      (match (metrics_path, Obs.is_null sink) with
      | Some path, false ->
        let oc = open_out path in
        output_string oc (Fleet.Telemetry.prometheus (Fleet.Orchestrator.telemetry orch));
        close_out oc;
        Printf.printf "(wrote seed-%d registry dump to %s)\n" seed path
      | _ -> ());
      let q = Fleet.Chaos.quantile_str in
      Printf.printf "%-8d %8d %8s %8s %8s %9.4f %6d %7d %11d\n" seed r.Fleet.Chaos.total_faults
        (q r.Fleet.Chaos.recovery_p50) (q r.Fleet.Chaos.recovery_p90) (q r.Fleet.Chaos.recovery_p99)
        r.Fleet.Chaos.goodput r.Fleet.Chaos.quarantines r.Fleet.Chaos.readmissions
        r.Fleet.Chaos.unattested_running;
      let m name v = metric (Printf.sprintf "chaos.seed%d.%s" seed name) v in
      (* A quantile that does not exist (< 2 samples) is omitted from the
         JSON rather than recorded as a fabricated 0.0. *)
      let mq name v = match v with None -> () | Some v -> m name v in
      mq "recovery_p50_ms" r.Fleet.Chaos.recovery_p50;
      mq "recovery_p90_ms" r.Fleet.Chaos.recovery_p90;
      mq "recovery_p99_ms" r.Fleet.Chaos.recovery_p99;
      m "recovery_samples" (float_of_int (List.length r.Fleet.Chaos.recovery_ms));
      m "goodput" r.Fleet.Chaos.goodput;
      m "total_faults" (float_of_int r.Fleet.Chaos.total_faults);
      m "quarantines" (float_of_int r.Fleet.Chaos.quarantines);
      m "unattested_running" (float_of_int r.Fleet.Chaos.unattested_running);
      m "scrub_failures" (float_of_int r.Fleet.Chaos.scrub_failures))
    seeds;
  print_endline "(recovery = fault -> re-attested, through verified scrub + re-place + attestation, at 1.2 GHz;";
  print_endline " goodput = frames forwarded / injected while the storm drops, corrupts, and stalls the fleet)"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  header "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let ip = Net.Ipv4_addr.of_string in
  let pkt_payload_holder = String.init 256 (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let pkt =
    Net.Packet.make ~src_ip:(ip "10.3.2.1") ~dst_ip:(ip "93.184.216.34") ~proto:Net.Packet.Tcp ~src_port:4242
      ~dst_port:80 pkt_payload_holder
  in
  let rng = Trace.Rng.create ~seed:1 in
  let fw = Nf.Firewall.create ~default:Nf.Firewall.Allow (Nf.Rulegen.firewall_rules rng ~n:643) in
  let dpi = Nf.Dpi.create (Nf.Rulegen.dpi_patterns rng ~n:2000) in
  let ac_sparse = Nf.Dpi.automaton dpi in
  let ac_dense = Nf.Aho_corasick.compile ac_sparse in
  let scan_text = pkt_payload_holder in
  let nat = Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") () in
  let lb = Nf.Maglev.create (Nf.Rulegen.backends ~n:16) in
  let lpm = Nf.Lpm.create () in
  List.iter (fun (p, l, nh) -> Nf.Lpm.insert lpm ~prefix:p ~len:l nh) (Nf.Rulegen.routes rng ~n:4000);
  let mon = Nf.Monitor.create () in
  let flow = Net.Packet.flow pkt in
  let frame = Net.Packet.serialize pkt in
  let kb = String.make 1024 'x' in
  let compressible = String.concat "" (List.init 128 (fun i -> Printf.sprintf "row %04d value=ok;" i)) in
  let raid_blocks = Array.init 4 (fun i -> String.make 1024 (Char.chr (65 + i))) in
  let vnic_api = Snic.Api.boot () in
  let vnic_v =
    Result.get_ok
      (Snic.Api.nf_create vnic_api
         { Snic.Instructions.default_config with image = "bench"; rules = [ Nicsim.Pktio.match_any ] })
  in
  let echo = { Nf.Types.name = "echo"; process = (fun p -> Nf.Types.Forward p) } in
  let tests =
    [
      Test.make ~name:"FW classify" (Staged.stage (fun () -> ignore (Nf.Firewall.classify fw pkt)));
      Test.make ~name:"DPI inspect 256B" (Staged.stage (fun () -> ignore (Nf.Dpi.inspect dpi pkt)));
      Test.make ~name:"AC scan sparse 256B" (Staged.stage (fun () -> ignore (Nf.Aho_corasick.scan ac_sparse scan_text)));
      Test.make ~name:"AC scan compiled 256B" (Staged.stage (fun () -> ignore (Nf.Aho_corasick.scan ac_dense scan_text)));
      Test.make ~name:"NAT translate" (Staged.stage (fun () -> ignore (Nf.Nat.translate nat pkt)));
      Test.make ~name:"LB maglev lookup" (Staged.stage (fun () -> ignore (Nf.Maglev.backend_for lb flow)));
      Test.make ~name:"LPM lookup" (Staged.stage (fun () -> ignore (Nf.Lpm.lookup lpm pkt.Net.Packet.dst_ip)));
      Test.make ~name:"Mon observe" (Staged.stage (fun () -> Nf.Monitor.observe mon pkt));
      Test.make ~name:"packet parse" (Staged.stage (fun () -> ignore (Net.Packet.parse frame)));
      Test.make ~name:"packet serialize" (Staged.stage (fun () -> ignore (Net.Packet.serialize pkt)));
      Test.make ~name:"sha256 1KB" (Staged.stage (fun () -> ignore (Crypto.Sha256.digest kb)));
      Test.make ~name:"5-tuple hash" (Staged.stage (fun () -> ignore (Net.Five_tuple.hash flow)));
      Test.make ~name:"lz77 compress 4KB" (Staged.stage (fun () -> ignore (Accelfn.Lz77.compress compressible)));
      Test.make ~name:"raid encode 4x1KB" (Staged.stage (fun () -> ignore (Accelfn.Raid.encode raid_blocks)));
      Test.make ~name:"vnic end-to-end pkt"
        (Staged.stage (fun () ->
             ignore (Snic.Api.inject_packet vnic_api pkt);
             ignore (Snic.Vnic.process vnic_v echo ~max:1)));
      Test.make ~name:"wire encode quote fields"
        (Staged.stage (fun () -> ignore (Snic.Wire.encode [ "a"; kb; "c"; "d" ])));
    ]
  in
  let grouped = Test.make_grouped ~name:"snic" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "%-24s %12.1f ns/op\n" name ns
      | _ -> Printf.printf "%-24s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Fleet orchestration: placement policies on a heterogeneous rack     *)
(* ------------------------------------------------------------------ *)

let fleet_section () =
  header "Fleet orchestration: attested placement across a heterogeneous rack";
  let policies = if fast then [ Fleet.Policy.First_fit; Fleet.Policy.Tco_aware ] else Fleet.Policy.all in
  Printf.printf "%-10s %12s %12s %12s %12s %12s\n" "policy" "attested" "active NICs" "replacements" "forwarded"
    "unattested";
  List.iter
    (fun policy ->
      let report =
        Fleet.Scenario.run
          {
            Fleet.Scenario.default_config with
            Fleet.Scenario.n_nics = 6;
            n_tenants = 18;
            policy;
            rounds = 2;
            packets_per_round = 200;
            kill_nics = 1;
            kill_nfs = 2;
          }
      in
      let forwarded =
        List.fold_left (fun acc r -> acc + r.Fleet.Scenario.traffic.Fleet.Frontend.forwarded) 0
          report.Fleet.Scenario.rounds
      in
      Printf.printf "%-10s %9d/18 %9d/%-2d %12d %12d %12d\n" (Fleet.Policy.name policy)
        report.Fleet.Scenario.final_attested report.Fleet.Scenario.active_nics report.Fleet.Scenario.alive_nics
        report.Fleet.Scenario.replacements forwarded report.Fleet.Scenario.unattested_running)
    policies;
  print_endline "(every placement goes through nf_create + the Appendix A attestation handshake;";
  print_endline " consolidating policies power few NICs, spread activates the most)"

(* ------------------------------------------------------------------ *)
(* Datapath: bulk page-granular fast paths vs the per-byte baseline    *)
(* ------------------------------------------------------------------ *)

(* Deterministic digest of a payload (order-sensitive polynomial hash):
   any byte the datapath loses, duplicates or reorders changes it. *)
let checksum s = float_of_int (Par.Digest.fold 0 s)

let datapath_section () =
  header "Datapath: page-granular bulk fast paths vs the per-byte baseline";
  let open Nicsim in
  let mb = 1 lsl 20 in
  let rng = Trace.Rng.create ~seed in
  let payload = String.init mb (fun _ -> Char.chr (Trace.Rng.int rng 256)) in
  let secs f =
    let t0 = Sys.time () in
    f ();
    Float.max (Sys.time () -. t0) 1e-6
  in
  let m name v = metric ("datapath." ^ name) v in

  (* -- Physmem: 1 MB write+read, bulk vs one hash lookup per byte -- *)
  subheader "Physmem 1MB write+read";
  let mem = Physmem.create ~size:(64 * mb) in
  let perbyte_digest = ref 0. in
  let r0 = Physmem.resolutions mem in
  let perbyte_dt =
    secs (fun () ->
        for i = 0 to mb - 1 do
          Physmem.write_u8 mem i (Char.code payload.[i])
        done;
        let b = Bytes.create mb in
        for i = 0 to mb - 1 do
          Bytes.set b i (Char.chr (Physmem.read_u8 mem i))
        done;
        perbyte_digest := checksum (Bytes.unsafe_to_string b))
  in
  let perbyte_res = Physmem.resolutions mem - r0 in
  let bulk_digest = ref 0. in
  let r1 = Physmem.resolutions mem in
  let bulk_iters = 16 in
  let bulk_dt =
    secs (fun () ->
        for _ = 1 to bulk_iters do
          Physmem.write_bytes mem ~pos:(32 * mb) payload;
          bulk_digest := checksum (Physmem.read_bytes mem ~pos:(32 * mb) ~len:mb)
        done)
  in
  let bulk_res = (Physmem.resolutions mem - r1) / bulk_iters in
  let perbyte_mb_s = 2. /. perbyte_dt in
  let bulk_mb_s = 2. *. float_of_int bulk_iters /. bulk_dt in
  Printf.printf "per-byte: %8.1f MB/s  (%d page resolutions)\n" perbyte_mb_s perbyte_res;
  Printf.printf "bulk:     %8.1f MB/s  (%d page resolutions)  digests %s\n" bulk_mb_s bulk_res
    (if !bulk_digest = !perbyte_digest then "agree" else "DISAGREE");
  m "physmem.perbyte_resolutions" (float_of_int perbyte_res);
  m "physmem.bulk_resolutions" (float_of_int bulk_res);
  m "physmem.checksum" !bulk_digest;
  m "physmem.digests_agree" (if !bulk_digest = !perbyte_digest then 1. else 0.);
  m "physmem.perbyte_mb_s" perbyte_mb_s;
  m "physmem.bulk_mb_s" bulk_mb_s;

  (* -- DMA: 1 MB NIC->host, the engine's bulk staging buffer vs an
        emulated per-byte engine (what the transfer cost before the bulk
        rewrite: one nic read + one host write hash lookup per byte) -- *)
  subheader "DMA 1MB NIC->host";
  let nic_mem = Physmem.create ~size:(16 * mb) in
  let host_mem = Physmem.create ~size:(16 * mb) in
  let dma = Dma.create ~nic_mem ~host_mem ~banks:1 in
  Physmem.write_bytes nic_mem ~pos:0 payload;
  let dma_r0 = Physmem.resolutions nic_mem + Physmem.resolutions host_mem in
  (match Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_host ~nic_addr:0 ~host_addr:0 ~len:mb with
  | Ok () -> ()
  | Error e -> failwith (Dma.error_to_string e));
  let dma_res = Physmem.resolutions nic_mem + Physmem.resolutions host_mem - dma_r0 in
  let dma_iters = 16 in
  let dma_bulk_dt =
    secs (fun () ->
        for _ = 1 to dma_iters do
          ignore (Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_host ~nic_addr:0 ~host_addr:0 ~len:mb)
        done)
  in
  let dma_perbyte_dt =
    secs (fun () ->
        for i = 0 to mb - 1 do
          Physmem.write_u8 host_mem (2 * mb + i) (Physmem.read_u8 nic_mem i)
        done)
  in
  let dma_bulk_mb_s = float_of_int dma_iters /. dma_bulk_dt in
  let dma_perbyte_mb_s = 1. /. dma_perbyte_dt in
  let speedup = dma_bulk_mb_s /. dma_perbyte_mb_s in
  let dma_digest = checksum (Physmem.read_bytes host_mem ~pos:0 ~len:mb) in
  Printf.printf "per-byte engine: %8.1f MB/s\n" dma_perbyte_mb_s;
  Printf.printf "bulk engine:     %8.1f MB/s  (%d page resolutions/transfer)  speedup %.1fx\n" dma_bulk_mb_s
    dma_res speedup;
  m "dma.resolutions_per_transfer" (float_of_int dma_res);
  m "dma.checksum" dma_digest;
  m "dma.perbyte_mb_s" dma_perbyte_mb_s;
  m "dma.bulk_mb_s" dma_bulk_mb_s;
  m "dma.speedup_x" speedup;
  gate "datapath." Obs.Gate.[ { key = "dma.speedup_x"; value = Some speedup; rule = At_least 10. } ];

  (* -- Packet IO: deliver -> rx_pop -> transmit round trips -- *)
  subheader "Pktio deliver/rx_pop/transmit";
  let pmem = Physmem.create ~size:(16 * mb) in
  let alloc = Alloc.init pmem ~base:0x10000 ~heap_base:(8 * mb) ~heap_size:(8 * mb) ~max_entries:4096 in
  let pktio = Pktio.create pmem alloc ~rx_buffer_bytes:(2 * mb) ~tx_buffer_bytes:(2 * mb) in
  (match Pktio.reserve pktio ~nf:1 ~rx_bytes:mb ~tx_bytes:mb with
  | Ok () -> ()
  | Error e -> failwith e);
  Pktio.add_rule pktio ~m:Pktio.match_any ~nf:1;
  let ip = Net.Ipv4_addr.of_string in
  let frame =
    Net.Packet.serialize
      (Net.Packet.make ~src_ip:(ip "10.1.0.1") ~dst_ip:(ip "10.2.0.2") ~proto:Net.Packet.Udp ~src_port:4000
         ~dst_port:4001
         (String.sub payload 0 1024))
  in
  let rounds = 2000 in
  let forwarded = ref 0 in
  let pktio_dt =
    secs (fun () ->
        for _ = 1 to rounds do
          (match Pktio.deliver pktio frame with
          | Ok _ -> ()
          | Error e -> failwith ("pktio deliver: " ^ e));
          match Pktio.rx_pop pktio ~nf:1 with
          | None -> failwith "pktio: delivered frame did not arrive"
          | Some (addr, len) ->
            Pktio.transmit pktio ~nf:1 ~addr ~len;
            incr forwarded
        done)
  in
  let wire = Pktio.wire_out pktio in
  let wire_digest = checksum (Bytes.unsafe_to_string (List.nth wire (List.length wire - 1))) in
  let pps = float_of_int rounds /. pktio_dt in
  Printf.printf "%d frames of %dB round-tripped: %8.0f pps, %d drops\n" !forwarded (Bytes.length frame) pps
    (Pktio.drop_count pktio);
  m "pktio.forwarded" (float_of_int !forwarded);
  m "pktio.drops" (float_of_int (Pktio.drop_count pktio));
  m "pktio.wire_checksum" wire_digest;
  m "pktio.pps" pps;

  (* -- Accelerator streaming through a locked cluster TLB bank -- *)
  subheader "Accel ZIP stream (256KB through the cluster TLB)";
  let amem = Physmem.create ~size:(16 * mb) in
  let zip = Accel.create ~kind:Accel.Zip ~threads:16 ~cluster_size:16 in
  let cluster = Option.get (Accel.claim_cluster zip ~nf:1) in
  let tlb = Accel.cluster_tlb zip ~cluster in
  ignore (Tlb.map_region tlb ~vbase:0 ~pbase:0 ~len:(8 * mb) ~writable:true);
  Tlb.lock tlb;
  let zdata = String.concat "" (List.init 12_800 (fun i -> Printf.sprintf "row %06d value=%02x;" i (i land 0xff))) in
  Physmem.write_bytes amem ~pos:0 zdata;
  let written = ref 0 and done_at = ref 0 in
  let ziters = 8 in
  let zdt =
    secs (fun () ->
        for _ = 1 to ziters do
          Accel.reset_timing zip;
          match
            Accel.stream zip ~cluster ~now:0 ~mem:amem ~src:0 ~src_len:(String.length zdata) ~dst:(4 * mb)
              ~f:Accelfn.Lz77.compress
          with
          | Ok (w, d) ->
            written := w;
            done_at := d
          | Error e -> failwith (Accel.stream_error_to_string e)
        done)
  in
  let zmb_s = float_of_int (ziters * String.length zdata) /. 1048576. /. zdt in
  let zdigest = checksum (Physmem.read_bytes amem ~pos:(4 * mb) ~len:!written) in
  Printf.printf "%dB in -> %dB out, %d model cycles, %8.1f MB/s host-side\n" (String.length zdata) !written
    !done_at zmb_s;
  m "accel.stream_in_bytes" (float_of_int (String.length zdata));
  m "accel.stream_out_bytes" (float_of_int !written);
  m "accel.stream_cycles" (float_of_int !done_at);
  m "accel.stream_checksum" zdigest;
  m "accel.stream_mb_s" zmb_s

(* ------------------------------------------------------------------ *)
(* --check BASELINE: the regression gate                               *)
(* ------------------------------------------------------------------ *)

(* --check BASELINE: read and parsed at startup, so a bad file fails
   before any section spends minutes running. *)
let baseline =
  match path_after "--check" with
  | None -> None
  | Some path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> cli_error "--check %s: %s" path msg
    | s -> (
      match Obs.Gate.parse_flat_json s with
      | Ok pairs -> Some (path, pairs)
      | Error e -> cli_error "--check %s: %s" path (Obs.Gate.parse_error_to_string e)))

(* Every baseline key must be present in this run: checksums and
   digests exactly, anything else within [Obs.Gate.tolerance]. On top of
   that, every gate the sections recorded must hold. *)
let run_check () =
  match baseline with
  | None -> ()
  | Some (path, baseline) -> (
    match
      Obs.Gate.baseline_failures ~baseline (List.rev !metrics)
      @ List.map Obs.Gate.to_string (Obs.Gate.failed !gates)
    with
    | [] ->
      Printf.printf
        "\nbench --check: %d baseline metrics within %.0f%% (checksums and digests exact); %d gate entries hold\n"
        (List.length baseline) (100. *. Obs.Gate.tolerance) (List.length !gates)
    | failures ->
      Printf.printf "\nbench --check FAILED against %s:\n" path;
      List.iter (Printf.printf "  %s\n") failures;
      exit 1)

(* ------------------------------------------------------------------ *)
(* Isolation oracle: differential-fuzzing throughput + violation census *)

let oracle_section () =
  header "Isolation oracle (lib/oracle)";
  let ops = if fast then 5_000 else 50_000 in
  Printf.printf "%-12s %10s %10s %10s %12s  violations by class\n" "mode" "ops" "executed" "found" "ops/sec";
  List.iter
    (fun mode ->
      let id = Oracle.Campaign.mode_id mode in
      let t0 = Sys.time () in
      let r = Oracle.Campaign.run ~mode ~ops ~seed () in
      let dt = Sys.time () -. t0 in
      let rate = if dt > 0. then float_of_int ops /. dt else 0. in
      let found = List.length r.Oracle.Campaign.violations in
      let by_class =
        List.filter_map
          (fun (cls, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" (Oracle.Refmodel.cls_to_string cls) n))
          (Oracle.Campaign.counts r)
      in
      Printf.printf "%-12s %10d %10d %10d %12.0f  %s\n" id ops r.Oracle.Campaign.executed found rate
        (if by_class = [] then "(clean)" else String.concat " " by_class);
      let m name v = metric (Printf.sprintf "oracle.%s.%s" id name) v in
      m "ops_per_sec" rate;
      m "violations" (float_of_int found);
      List.iter
        (fun (cls, n) -> m (Oracle.Refmodel.cls_to_string cls) (float_of_int n))
        (Oracle.Campaign.counts r))
    Oracle.Campaign.all_modes;
  print_endline "expectation: every commodity mode reports >=1 class; snic stays (clean)"

(* ------------------------------------------------------------------ *)
(* Virtual functions: two-stage scheduler fairness at fleet density *)

let vf_section () =
  header "Virtual functions (lib/vf): two-stage scheduler at fleet density";
  let nics = 64 in
  let vfs_per_nic = 256 in
  let cycles = 32 in
  (* Every NIC hosts 256 tenant vNICs whose weights cycle 1,2,4,8 down
     the VF ids, so each NIC serves a mix of shares. *)
  let t0 = Sys.time () in
  let (r : Vf.Scenario.report) =
    Vf.Scenario.run { Vf.Scenario.nics; vfs = vfs_per_nic; cycles; seed; table = Vf.Table.default_config }
  in
  let secs = Sys.time () -. t0 in
  let pps = if secs > 0. then float_of_int r.total_pkts /. secs else 0. in
  (match r.nics with
  | first :: _ -> Printf.printf "first NIC: %s\n" (Vf.Scenario.nic_summary first)
  | [] -> ());
  Printf.printf "%d NICs x %d VFs = %d tenant vNICs, %d cycles each\n" nics vfs_per_nic (nics * vfs_per_nic) cycles;
  Printf.printf "scheduled %d pkts (%d MB) in %.2fs -> %.0f pkts/sec\n" r.total_pkts (r.total_bytes / 1048576) secs
    pps;
  Printf.printf "fairness: worst jain %.4f, worst share error %.2f%%, drops %d\n" r.jain_min
    (100. *. r.max_rel_err) r.total_drops;
  let m name v = metric ("vf." ^ name) v in
  m "nics" (float_of_int nics);
  m "total_vnics" (float_of_int (nics * vfs_per_nic));
  m "scheduled_pkts" (float_of_int r.total_pkts);
  m "scheduled_bytes" (float_of_int r.total_bytes);
  m "rounds" (float_of_int r.total_rounds);
  m "drops" (float_of_int r.total_drops);
  m "jain_min" r.jain_min;
  m "max_share_err_pct" (100. *. r.max_rel_err);
  m "lat_jain_min" r.lat_jain_min;
  m "sched_pps" pps;
  gate "vf." (Vf.Scenario.gates r);
  print_endline "expectation: shares track weights on every NIC (Vf.Scenario.gates), zero drops"

(* ------------------------------------------------------------------ *)
(* QoS: noisy-neighbor protection and self-healing under credit arbitration *)

let qos_section () =
  header "QoS credits (lib/nicsim/qos): noisy neighbor vs latency SLOs";
  let config = { Fleet.Qos_scenario.default_config with Fleet.Qos_scenario.q_seed = seed } in
  let t0 = Sys.time () in
  let (r : Fleet.Qos_scenario.report) = Fleet.Qos_scenario.run config in
  let secs = Sys.time () -. t0 in
  let c = Fleet.Qos_scenario.cycles_str in
  Printf.printf "protected run: victim p99 %s (steady %s), unprotected baseline p99 %s\n"
    (c r.q_victim_p99) (c r.q_victim_p99_steady) (c r.q_unprotected_p99);
  Printf.printf "self-healing: %d quarantine(s), %d readmission(s), aggressor throttled %d times\n"
    r.q_quarantines r.q_readmissions r.q_aggressor_throttles;
  Printf.printf "fairness: share_min %.4f, starved %d, latency jain %.4f (%.2fs)\n" r.q_share_min
    r.q_starved r.q_lat_fairness.Obs.Fairness.index secs;
  let m name v = metric ("qos." ^ name) v in
  let mq name v = match v with None -> () | Some v -> m name v in
  mq "victim_p99_cycles" r.q_victim_p99;
  mq "victim_p99_steady_cycles" r.q_victim_p99_steady;
  mq "unprotected_p99_cycles" r.q_unprotected_p99;
  (match (r.q_victim_p99_steady, r.q_unprotected_p99) with
  | Some p, Some u when p > 0. -> m "protection_x" (u /. p)
  | _ -> ());
  m "share_min" r.q_share_min;
  m "starved_victims" (float_of_int r.q_starved);
  m "quarantines" (float_of_int r.q_quarantines);
  m "readmissions" (float_of_int r.q_readmissions);
  m "aggressor_throttles" (float_of_int r.q_aggressor_throttles);
  m "slo_violations" (float_of_int r.q_slo_violations);
  m "lat_jain" r.q_lat_fairness.Obs.Fairness.index;
  gate "qos." (Fleet.Qos_scenario.gates r);
  (* Zero-slack variant: capacity = sum of guarantees, so every spare
     credit a victim gets comes from the epoch-rollover donation path.
     Nothing may starve even with no structural headroom. *)
  let (rs : Fleet.Qos_scenario.report) = Fleet.Qos_scenario.run { config with q_starve = true } in
  Printf.printf "zero-slack variant: share_min %.4f, starved %d, borrowed %d credits\n" rs.q_share_min rs.q_starved
    (List.fold_left (fun a (t : Fleet.Qos_scenario.tenant) -> a + t.qt_borrowed) 0 rs.q_outcomes);
  m "starve.share_min" rs.q_share_min;
  m "starve.starved_victims" (float_of_int rs.q_starved);
  mq "starve.victim_p99_steady_cycles" rs.q_victim_p99_steady;
  gate "qos.starve." (Fleet.Qos_scenario.gates rs);
  print_endline
    "expectation: steady-state victim p99 back under the SLO, guarantees kept, zero starvation (Fleet.Qos_scenario.gates)"

(* ------------------------------------------------------------------ *)
(* DDoS: CuckooGuard SYN proxy + cuckoo whitelist across the five modes *)

let ddos_section () =
  header "DDoS defense (lib/nf cuckoo/syn_proxy): SYN flood across protection modes";
  let t0 = Sys.time () in
  let config = { Fleet.Ddos_scenario.default_config with Fleet.Ddos_scenario.d_seed = seed } in
  let (r : Fleet.Ddos_scenario.report) = Fleet.Ddos_scenario.run config in
  let secs = Sys.time () -. t0 in
  print_string (Fleet.Ddos_scenario.summary r);
  Printf.printf "(%.2fs)\n" secs;
  metric "ddos.events_digest" (float_of_int r.d_events_digest);
  metric "ddos.benign_pkts" (float_of_int r.d_benign_pkts);
  metric "ddos.attack_pkts" (float_of_int r.d_attack_pkts);
  List.iter
    (fun (mr : Fleet.Ddos_scenario.mode_report) ->
      let m name v = metric (Printf.sprintf "ddos.%s.%s" (Oracle.Campaign.mode_id mr.dm_mode) name) v in
      let flag name b = m name (if b then 1. else 0.) in
      m "goodput_ratio" mr.dm_goodput_ratio;
      m "unprotected_ratio" mr.dm_unprotected_ratio;
      m "attack_dropped" (float_of_int mr.dm_attack_dropped);
      m "benign_dropped" (float_of_int mr.dm_benign_dropped);
      m "forged_admits" (float_of_int mr.dm_forged_admits);
      m "corrupt_flips" (float_of_int mr.dm_corrupt_flips);
      m "whitelist_load" mr.dm_whitelist_load;
      m "mem_reserved_bytes" (float_of_int mr.dm_mem_reserved_bytes);
      m "mem_peak_bytes" (float_of_int mr.dm_mem_peak_bytes);
      flag "mem_flat" mr.dm_mem_flat;
      flag "tampered" mr.dm_tampered;
      flag "key_stolen" mr.dm_key_stolen;
      m "unprotected_mem_wanted_bytes" (float_of_int mr.dm_unprotected_mem_wanted_bytes))
    r.d_mode_reports;
  gate "ddos." (Fleet.Ddos_scenario.gates r);
  print_endline
    "expectation: snic keeps benign goodput, flat defense memory (Fleet.Ddos_scenario.gates); unmediated modes collapse"

(* ------------------------------------------------------------------ *)
(* Fabric: attested NIC-to-NIC channels + cross-NIC chain failover *)

let fabric_section () =
  header "Attested fabric (lib/fabric): cross-NIC CuckooGuard chain + failover";
  let t0 = Sys.time () in
  let config = { Fleet.Fabric_scenario.default_config with Fleet.Fabric_scenario.f_seed = seed } in
  let (r : Fleet.Fabric_scenario.report) = Fleet.Fabric_scenario.run config in
  let secs = Sys.time () -. t0 in
  print_string (Fleet.Fabric_scenario.summary r);
  Printf.printf "(%.2fs)\n" secs;
  let m name v = metric ("fabric." ^ name) v in
  let flag name b = m name (if b then 1. else 0.) in
  m "events_digest" (float_of_int r.f_events_digest);
  m "benign_pkts" (float_of_int r.f_benign_pkts);
  m "handshakes" (float_of_int r.f_handshakes);
  m "hops" (float_of_int r.f_hops);
  m "admitted" (float_of_int r.f_admitted);
  m "goodput_ratio" r.f_goodput_ratio;
  m "benign_mac_failures" (float_of_int r.f_benign_mac_failures);
  m "replay_rejected" (float_of_int r.f_replay_rejected);
  m "stale_rejected" (float_of_int r.f_stale_rejected);
  m "tamper_rejected" (float_of_int r.f_tamper_rejected);
  flag "adversary_all_rejected"
    (r.f_replay_rejected = r.f_replay_sent
    && r.f_stale_rejected = r.f_stale_sent
    && r.f_tamper_rejected = r.f_tamper_sent);
  m "state_replayed" (float_of_int r.f_state_replayed);
  m "state_recovered" (float_of_int r.f_state_recovered);
  flag "failed_over" r.f_failed_over;
  flag "fail_closed" (Fleet.Fabric_scenario.fail_closed r);
  (* The same run at 4 domains must produce the summary of the 1-domain
     run above — the rack boot is the only fanned-out stage and it is
     seeded. *)
  let digest r = Par.Digest.strings [ Fleet.Fabric_scenario.summary r ] in
  let d1 = digest r and d4 = digest (Fleet.Fabric_scenario.run ~domains:4 config) in
  Printf.printf "summary digest: %d (1 domain) vs %d (4 domains) — %s\n" d1 d4
    (if d1 = d4 then "identical" else "DIVERGED");
  flag "consistent" (d1 = d4);
  (* The differential oracle with channel ops in the alphabet: S-NIC
     mode must stay clean with attested channels in play. *)
  let ops = if fast then 4_000 else 20_000 in
  let o = Oracle.Campaign.run ~fabric:true ~mode:Nicsim.Machine.Snic ~ops ~seed () in
  Printf.printf "oracle snic + chan ops: %d ops, %d executed, %d violations\n" ops o.Oracle.Campaign.executed
    (List.length o.Oracle.Campaign.violations);
  m "oracle_snic_violations" (float_of_int (List.length o.Oracle.Campaign.violations));
  gate "fabric."
    (Fleet.Fabric_scenario.gates r
    @ Obs.Gate.
        [
          { key = "consistent"; value = flag (d1 = d4); rule = Equals 1. };
          { key = "oracle_snic_violations"; value = int (List.length o.Oracle.Campaign.violations); rule = Equals 0. };
        ]);
  print_endline
    "expectation: zero benign MAC failures, every forged/replayed frame bounced, goodput unchanged by failover"

(* ------------------------------------------------------------------ *)
(* Parallel shards: domain scaling curve + cross-domain determinism *)

let par_section () =
  header "Parallel shards (lib/par): scaling curve + determinism digests";
  let cores = Par.Engine.available_domains () in
  let shards = 8 in
  let ops = if fast then 2_000 else 10_000 in
  let mode = match Oracle.Campaign.mode_of_id "se-s" with Some m -> m | None -> assert false in
  let m name v = metric ("par." ^ name) v in
  (* One oracle campaign per shard, shard seeds derived from --seed;
     the same workload at every fan-out, so the digest of the reports
     (merged in shard order) must be identical at every curve point. *)
  let curve = List.filter (fun d -> d <= max_domains) [ 1; 2; 4; 8 ] in
  Printf.printf "%d shards x %d ops each (oracle %s), %d core(s) available\n" shards ops
    (Oracle.Campaign.mode_id mode) cores;
  Printf.printf "%8s %12s %12s %10s %12s\n" "domains" "ops/sec" "speedup" "efficiency" "digest";
  let points =
    List.map
      (fun domains ->
        let t0 = Unix.gettimeofday () in
        let reports = Oracle.Campaign.run_sharded ~domains ~mode ~ops ~seed ~shards () in
        let wall = Unix.gettimeofday () -. t0 in
        let digest = Par.Digest.strings (Array.to_list (Array.map Oracle.Campaign.to_string reports)) in
        let rate = if wall > 0. then float_of_int (shards * ops) /. wall else 0. in
        (domains, rate, digest, reports))
      curve
  in
  let base_rate = match points with (_, r, _, _) :: _ -> r | [] -> 0. in
  List.iter
    (fun (domains, rate, digest, _) ->
      let speedup = if base_rate > 0. then rate /. base_rate else 0. in
      let efficiency = speedup /. float_of_int domains in
      Printf.printf "%8d %12.0f %11.2fx %9.0f%% %12d\n" domains rate speedup (100. *. efficiency) digest;
      m (Printf.sprintf "domains%d.digest" domains) (float_of_int digest);
      m (Printf.sprintf "domains%d.ops_per_sec" domains) rate;
      m (Printf.sprintf "domains%d.efficiency" domains) efficiency;
      if domains = 4 then begin
        m "speedup_4x" speedup;
        (* Scaling only binds on a host with the cores to show it; a
           smaller one still checks the determinism digests. *)
        if cores >= 4 then gate "par." Obs.Gate.[ { key = "speedup_4x"; value = Some speedup; rule = At_least 2.5 } ]
      end)
    points;
  let digests = List.map (fun (_, _, d, _) -> d) points in
  let consistent = List.for_all (fun d -> d = List.hd digests) digests in
  let reports1 = match points with (_, _, _, r) :: _ -> r | [] -> [||] in
  let executed =
    Array.fold_left (fun a (r : Oracle.Campaign.report) -> a + r.Oracle.Campaign.executed) 0 reports1
  in
  let violations =
    Array.fold_left
      (fun a (r : Oracle.Campaign.report) -> a + List.length r.Oracle.Campaign.violations)
      0 reports1
  in
  m "shards" (float_of_int shards);
  m "ops_per_shard" (float_of_int ops);
  m "executed_total" (float_of_int executed);
  m "violations_total" (float_of_int violations);
  m "digest_consistent" (if consistent then 1. else 0.);
  m "cores" (float_of_int cores);
  (* Fleet and chaos shard fan-outs: parallel (2 domains) vs sequential
     (1 domain) digests over the same derived-seed shard set. *)
  let fleet_digest domains =
    let config =
      { Fleet.Scenario.default_config with Fleet.Scenario.seed; n_nics = 8; n_tenants = 16; rounds = 2; packets_per_round = 200 }
    in
    let rs = Fleet.Run.many (module Fleet.Scenario) ~domains ~shards:4 config in
    Par.Digest.strings (Array.to_list (Array.map (fun (_, r, _) -> Fleet.Scenario.summary r) rs))
  in
  let chaos_digest domains =
    let config =
      { Fleet.Chaos.default_config with Fleet.Chaos.seed; n_nics = 4; n_tenants = 8; rounds = 2; packets_per_round = 100 }
    in
    let rs = Fleet.Run.many (module Fleet.Chaos) ~domains ~shards:2 config in
    Par.Digest.strings (Array.to_list (Array.map (fun (_, r, _) -> Fleet.Chaos.summary r) rs))
  in
  let f1 = fleet_digest 1 and f2 = fleet_digest 2 in
  let c1 = chaos_digest 1 and c2 = chaos_digest 2 in
  Printf.printf "fleet 4-shard digest: %d (1 domain) vs %d (2 domains) — %s\n" f1 f2
    (if f1 = f2 then "identical" else "DIVERGED");
  Printf.printf "chaos 2-shard digest: %d (1 domain) vs %d (2 domains) — %s\n" c1 c2
    (if c1 = c2 then "identical" else "DIVERGED");
  m "fleet.digest" (float_of_int f1);
  m "fleet.consistent" (if f1 = f2 then 1. else 0.);
  m "chaos.digest" (float_of_int c1);
  m "chaos.consistent" (if c1 = c2 then 1. else 0.);
  gate "par."
    Obs.Gate.
      [
        { key = "digest_consistent"; value = flag consistent; rule = Equals 1. };
        { key = "fleet.consistent"; value = flag (f1 = f2); rule = Equals 1. };
        { key = "chaos.consistent"; value = flag (c1 = c2); rule = Equals 1. };
      ];
  if cores < 4 then Printf.printf "note: %d core(s) — the speedup floor is waived (digests still checked)\n" cores;
  print_endline "expectation: identical digests at every fan-out; >= 2.5x at 4 domains on a 4-core host"

(* The sections --only selects, in the order the full run plays them:
   (name, banner, run). *)
let sections =
  [
    ("paper", "S-NIC paper bench (every table and figure, with the paper's values as claims)", paper_section);
    ("datapath", "S-NIC datapath bench (bulk fast paths vs per-byte baseline)", datapath_section);
    ("oracle", "S-NIC isolation oracle bench (differential fuzzing throughput)", oracle_section);
    ("vf", "S-NIC virtual-function bench (two-stage scheduler fairness at density)", vf_section);
    ("qos", "S-NIC QoS bench (credit arbitration, SLOs, noisy-neighbor self-healing)", qos_section);
    ("ddos", "S-NIC DDoS bench (CuckooGuard SYN proxy across protection modes)", ddos_section);
    ("fabric", "S-NIC fabric bench (attested NIC-to-NIC channels, cross-NIC chain failover)", fabric_section);
    ("par", "S-NIC parallel-shard bench (domain scaling + cross-domain determinism)", par_section);
  ]

let main () =
  print_endline "S-NIC evaluation reproduction (EuroSys'24) — all tables and figures";
  if fast then print_endline "[--fast: reduced Figure 5 sweeps]";
  paper_section ();
  fleet_section ();
  chaos_section ();
  List.iter (fun (name, _, run) -> if name <> "paper" then run ()) sections;
  microbenches ()

let () =
  (match only with
  | None -> main ()
  | Some name -> (
    match List.find_opt (fun (n, _, _) -> String.equal n name) sections with
    | Some (_, banner, run) ->
      print_endline banner;
      run ()
    | None ->
      cli_error "unknown --only section: %s\n  valid sections: %s" name
        (String.concat ", " (List.map (fun (n, _, _) -> n) sections))));
  write_metrics ();
  run_check ();
  if only = None then print_endline "\nAll experiments complete. See EXPERIMENTS.md for paper-vs-measured notes."
