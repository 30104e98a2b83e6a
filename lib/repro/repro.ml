type table = { title : string; header : string list; rows : string list list; notes : string list }
type output = { tables : table list; claims : Obs.Gate.t list }

(* An entry's parameter set is whatever its compute function takes;
   [fast] is the smaller one [bench --fast] uses, if any. *)
type 'p spec = { id : string; caption : string; params : 'p; fast : 'p option; compute : 'p -> output }
type entry = Entry : 'p spec -> entry

let id (Entry e) = e.id
let caption (Entry e) = e.caption
let shrinks (Entry e) = Option.is_some e.fast
let run ~fast (Entry e) = e.compute (match e.fast with Some p when fast -> p | _ -> e.params)
let claims (Entry e) out = List.map (fun (g : Obs.Gate.t) -> { g with key = e.id ^ "." ^ g.key }) out.claims
let fixed id caption compute = Entry { id; caption; params = (); fast = None; compute }
let scaled id caption params fast compute = Entry { id; caption; params; fast = Some fast; compute }
let out tables claims = { tables; claims }
let table header rows = { title = ""; header; rows; notes = [] }
let titled title t = { t with title }
let noted notes t = { t with notes }

(* One row from a tab-separated format: [cells "%s\t%.2f" name x]. *)
let cells fmt = Printf.ksprintf (String.split_on_char '\t') fmt
let pct2 = Printf.sprintf "%.2f%%"
let claim key rule value = { Obs.Gate.key; value; rule }
let near target tol = Obs.Gate.Within { target; tol }

(* A known deviation is claimed at our value; its key carries the paper's. *)
let paper_key key paper = Printf.sprintf "%s (paper %s)" key paper
let six = List.map (fun (s : Nf.Registry.spec) -> s.short) Nf.Registry.paper

let menus =
  Costmodel.Page_packing.
    [ ("equal", "Equal (2MB)", equal_2mb); ("flex_low", "Flex-low (128KB,2MB,64MB)", flex_low);
      ("flex_high", "Flex-high (2MB,32MB,128MB)", flex_high) ]

let table1 =
  fixed "table1" "Table 1: management APIs and trusted instructions" (fun () ->
      out
        [ table [ "Management API (NIC OS)"; "Trusted instruction (hardware)" ]
            [ [ "NF_create(net,core,dpi,...)"; "nf_launch: core_mask, page_table, vpp_config, accel_mask" ];
              [ "(n/a)"; "nf_attest: sign H(initial state) + DH parameters" ];
              [ "NF_destroy(nf_id)"; "nf_teardown: scrub + release all resources" ] ]
          |> noted [ "(exercised end-to-end by examples/quickstart.exe and the snic test suite)" ] ] [])

(* An area and a power line per [line] key, a column per [column] key;
   claims the paper's (label, area, power) at [units], to 3 decimals. *)
let cost_table ~corner ~line ~column ~units ~paper (rows : Costmodel.Tables.row list) =
  let keys f = List.fold_left (fun acc r -> if List.mem (f r) acc then acc else acc @ [ f r ]) [] rows in
  let cell l c field = Printf.sprintf "%.3f" (field (List.find (fun r -> line r = l && column r = c) rows)) in
  let metric name field l = l :: name :: List.map (fun c -> cell l c field) (keys column) in
  let area (r : Costmodel.Tables.row) = r.area_mm2 and power (r : Costmodel.Tables.row) = r.power_w in
  let paper_claims (label, a, p) =
    let r = Costmodel.Tables.find rows ~label ~units and key m = Printf.sprintf "%s.%s.x%d" m label units in
    [ claim (key "area") (near a 0.001) (Some r.area_mm2); claim (key "power") (near p 0.001) (Some r.power_w) ]
  in
  let lines = List.concat_map (fun l -> [ metric "area mm^2" area l; metric "power W" power l ]) (keys line) in
  out [ table (corner :: "metric" :: keys column) lines ] (List.concat_map paper_claims paper)

let table2 =
  fixed "table2" "Table 2: TLB hardware cost on programmable cores (McPAT-anchored model)" (fun () ->
      cost_table (Costmodel.Tables.table2 ()) ~corner:"per-core memory" ~units:4
        ~line:(fun r -> Printf.sprintf "%s (%d entries)" r.label r.entries)
        ~column:(fun r -> Printf.sprintf "%d-core" r.units)
        ~paper:[ ("366MB/core", 0.045, 0.026); ("512MB/core", 0.060, 0.035); ("1024MB/core", 0.163, 0.088) ])

let table3 =
  fixed "table3" "Table 3: TLB banks on virtualized accelerators" (fun () ->
      cost_table (Costmodel.Tables.table3 ()) ~corner:"clusters" ~units:16
        ~line:(fun r -> string_of_int r.units)
        ~column:(fun r -> Printf.sprintf "%s(%de)" r.label r.entries)
        ~paper:[ ("DPI", 0.074, 0.037); ("ZIP", 0.091, 0.044); ("RAID", 0.050, 0.023) ])

let table4 =
  fixed "table4" "Table 4: TLB banks on virtual packet pipelines and DMA" (fun () ->
      cost_table (Costmodel.Tables.table4 ()) ~corner:"units" ~units:12
        ~line:(fun r -> string_of_int r.units)
        ~column:(fun r -> Printf.sprintf "%s (%de)" r.label r.entries)
        ~paper:[ ("VPP", 0.037, 0.017); ("DMA", 0.037, 0.017) ])

let table5 =
  fixed "table5" "Table 5: per-core TLB cost vs page-size menu (48 cores)" (fun () ->
      let row (key, label, menu) (entries, area, power) =
        let r = Costmodel.Tables.table5_row ~label ~entries:(Memprof.Profiles.max_entries ~page_sizes:menu) ~cores:48 in
        ( cells "%s\t%d\t%.3f\t%.3f" label r.entries r.area_mm2 r.power_w,
          [ claim (key ^ ".entries") (Equals (float_of_int entries)) (Obs.Gate.int r.entries);
            claim (key ^ ".area") (near area 0.001) (Some r.area_mm2);
            claim (key ^ ".power") (near power 0.001) (Some r.power_w) ] )
      in
      let rows, claims = List.split (List.map2 row menus [ (183, 0.538, 0.311); (51, 0.214, 0.106); (13, 0.150, 0.069) ]) in
      out [ table [ "menu"; "entries"; "area mm^2"; "power W" ] rows ] (List.concat claims))

let overhead =
  fixed "overhead" "Headline silicon overhead and TCO (Section 5.2)" (fun () ->
      let b = Costmodel.Overhead.compute Costmodel.Overhead.headline and s = Costmodel.Tco.summary () in
      let added = cells "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f" in
      let tco =
        [ cells "LiquidIO $/core\t%.2f" s.nic_tco; cells "S-NIC $/core\t%.2f" s.snic_tco;
          cells "host Xeon $/core\t%.2f" s.host_tco; cells "advantage (host/NIC)\t%.3f" s.advantage_nic;
          cells "advantage (host/S-NIC)\t%.3f" s.advantage_snic; cells "advantage reduction %%\t%.2f" s.advantage_reduction_pct;
          cells "advantage preserved %%\t%.1f" s.preserved_pct ]
      in
      out
        [ table [ "added"; "cores"; "accels"; "VPP/DMA"; "total"; "overhead %" ]
            [ added "area mm^2" b.core_area b.accel_area b.io_area b.total_area b.area_overhead_pct;
              added "power W" b.core_power b.accel_power b.io_power b.total_power b.power_overhead_pct ];
          table [ "metric"; "value" ] tco |> titled "3-year TCO" ]
        [ claim (paper_key "area_pct" "8.89") (near 8.86 0.005) (Some b.area_overhead_pct);
          claim "power_pct" (near 11.45 0.01) (Some b.power_overhead_pct);
          claim "liquidio_usd" (near 38.97 0.01) (Some s.nic_tco); claim "snic_usd" (near 42.53 0.01) (Some s.snic_tco);
          claim "host_usd" (near 163.56 0.01) (Some s.host_tco);
          claim (paper_key "reduction_pct" "8.37") (near 8.38 0.005) (Some s.advantage_reduction_pct);
          claim "preserved_pct" (near 91.6 0.1) (Some s.preserved_pct) ])

let offload =
  fixed "offload" "Offload motivation (Section 1): host NF vs NIC NF vs S-NIC NF" (fun () ->
      let row (r : Costmodel.Offload.result) =
        cells "%s\t%.0f\t%.0f\t%.2f" r.deployment r.latency_ns r.kpps_per_core r.usd_per_mpps
      in
      out
        [ table [ "deployment"; "latency ns"; "kpps per core"; "$ per Mpps" ] (List.map row (Costmodel.Offload.comparison ()))
          |> noted [ "(offload removes the PCIe round trip and halves $/Mpps; S-NIC's isolation";
                     " tax, 1.7% IPC worst-case plus the silicon overhead, barely dents either)" ] ] [])

let table6 =
  fixed "table6" "Table 6: NF memory profiles and TLB sizing" (fun () ->
      let entries name menu = Memprof.Profiles.tlb_entries (Memprof.Profiles.find name) ~page_sizes:menu in
      let row (p : Memprof.Profiles.t) =
        cells "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f" p.name p.text_mb p.data_mb p.code_mb p.heap_stack_mb
          (Memprof.Profiles.total_mb p)
        @ List.map (fun (_, _, menu) -> string_of_int (entries p.name menu)) menus
        @ cells "%.1f%%" (Memprof.Mur.find p.name).mur_pct
      in
      (* The paper's entry columns for its six NFs, and the one cell we
         pack differently: FW's 13.75 MB heap fits 33 Flex-low pages. *)
      let paper = [ [ 11; 28; 25; 10; 37; 183 ]; [ 34; 51; 37; 22; 23; 46 ]; [ 11; 13; 10; 10; 7; 12 ] ] in
      let cell_claim key menu nf paper =
        let k = nf ^ "." ^ key and v = Obs.Gate.int (entries nf menu) in
        if k = "FW.flex_low" then claim (paper_key k (string_of_int paper)) (Equals 33.) v
        else claim k (Equals (float_of_int paper)) v
      in
      let header = [ "NF"; "text"; "data"; "code"; "heap+stk"; "total"; "Equal"; "Flex-low"; "Flex-high"; "MUR" ] in
      out
        [ table header (List.map row Memprof.Profiles.nfs)
          |> noted [ "(region sizes are the paper's Rust-NF measurements; entries and MUR are recomputed)" ] ]
        (List.concat (List.map2 (fun (key, _, menu) column -> List.map2 (cell_claim key menu) six column) menus paper)))

let table6_ocaml =
  scaled "table6-ocaml" "Table 6 extension: our OCaml NF structures, for comparison" 1.0 0.1 (fun scale ->
      let n_pat = Nf.Registry.dpi_patterns ~scale in
      let ac = Nf.Aho_corasick.build (Nf.Rulegen.dpi_patterns (Trace.Rng.create ~seed:0xD1) ~n:n_pat) in
      let lpm = Nf.Lpm.create () in
      let routes = Nf.Rulegen.routes (Trace.Rng.create ~seed:0x17) ~n:16_000 in
      List.iter (fun (p, l, nh) -> Nf.Lpm.insert lpm ~prefix:p ~len:l nh) routes;
      let rows =
        [ cells "DPI automaton\tpatterns\t%d" n_pat; cells "DPI automaton\tstates\t%d" (Nf.Aho_corasick.state_count ac);
          cells "DPI automaton\ttransitions\t%d" (Nf.Aho_corasick.transition_count ac);
          cells "LPM DIR-24-8\tlookup tables MB\t%.1f" (float_of_int (Nf.Lpm.table_bytes lpm) /. 1048576.);
          cells "LPM DIR-24-8\ttbl8 blocks\t%d" (Nf.Lpm.tbl8_blocks lpm) ]
      in
      let note = "(the paper's DPI graph is 97.28 MB, its LPM heap 64.90 MB)" in
      out [ table [ "structure"; "metric"; "value" ] rows |> noted [ note ] ] [])

let table7 =
  fixed "table7" "Table 7: accelerator memory profiles" (fun () ->
      let open Memprof.Accel_profiles in
      let find name = List.find (fun a -> a.name = name) all in
      let total name = Some (total_mb (find name)) and entries name = Obs.Gate.int (tlb_entries (find name)) in
      let buffer (n, b) = Printf.sprintf "%s %.4gKB" n (float_of_int b /. 1024.) in
      let buffers a = String.concat ", " (List.map buffer a.buffers) in
      let row a = cells "%s\t%.2f\t%d\t%s" a.name (total_mb a) (tlb_entries a) (buffers a) in
      out
        [ table [ "accel"; "total MB"; "TLB entries @2MB"; "buffers" ] (List.map row all) ]
        [ claim "DPI.total_mb" (near 101.90 0.01) (total "DPI"); claim "DPI.entries" (Equals 54.) (entries "DPI");
          claim "ZIP.total_mb" (near 132.24 0.01) (total "ZIP"); claim "ZIP.entries" (Equals 70.) (entries "ZIP");
          (* The RAID buffers sum to 8,320 KB = 8.125 MB. *)
          claim (paper_key "RAID.total_mb" "8.13") (near 8.125 0.001) (total "RAID");
          claim "RAID.entries" (Equals 5.) (entries "RAID") ])

let table8 =
  fixed "table8" "Table 8: memory utilization ratios" (fun () ->
      let used nf = Some (Memprof.Mur.find nf).used_mb and mur nf = Some (Memprof.Mur.find nf).mur_pct in
      let row (r : Memprof.Mur.row) = cells "%s\t%.2f\t%.2f\t%.1f%%" r.name r.prealloc_mb r.used_mb r.mur_pct in
      let matches (nf, u, m) =
        [ claim (nf ^ ".used_mb") (near u 0.01) (used nf); claim (nf ^ ".mur_pct") (near m 0.1) (mur nf) ]
      in
      out
        [ table [ "NF"; "prealloc MB"; "used MB"; "MUR" ] (List.map row (Memprof.Mur.table8 ())) ]
        (List.concat_map matches
           [ ("FW", 17.20, 100.0); ("DPI", 51.14, 100.0); ("LB", 4.16, 30.2); ("LPM", 68.33, 100.0); ("Mon", 246.31, 68.3) ]
        (* Our NAT HashMap model lands 0.05 MB above the paper's NAT. *)
        @ [ claim (paper_key "NAT.used_mb" "31.72") (near 31.775 0.001) (used "NAT");
            claim (paper_key "NAT.mur_pct" "72.3") (near 72.41 0.005) (mur "NAT") ]))

let mean6 median x = Uarch.Colocation.mean (List.map (fun nf -> median nf x) six)

(* Claims each (name, value) point at least the one before it. *)
let rec grows ~key = function
  | (a, va) :: ((b, vb) :: _ as rest) -> claim (Printf.sprintf "%s.%s_vs_%s" key b a) (At_least va) (Some vb) :: grows ~key rest
  | _ -> []

let fig5a =
  scaled "fig5a" "Figure 5a: median IPC degradation vs L2 size (2 colocated NFs)"
    (Uarch.Colocation.default_l2_sizes, 1500) ([ 32 * 1024; 256 * 1024; 4 lsl 20 ], 400)
    (fun (l2_sizes, packets) ->
      let results = Uarch.Colocation.figure5a ~l2_sizes ~packets () in
      let median nf size = (List.assoc size (List.assoc nf results)).Uarch.Colocation.median in
      let show s = if s >= 1 lsl 20 then Printf.sprintf "%dMB" (s lsr 20) else Printf.sprintf "%dKB" (s lsr 10) in
      let row size = show size :: List.map (fun nf -> pct2 (median nf size)) Uarch.Workload.names in
      let small = 8 lsl 10 and big = 16 lsl 20 in
      out
        [ table ("L2" :: Uarch.Workload.names) (List.map row l2_sizes)
          |> noted [ "(paper: small at big caches, growing as L2 shrinks; its FW/DPI/NAT-worst ranking";
                     " holds in Figure 5b at 16 NFs, not here, where DPI dips below zero)" ] ]
        (if List.mem small l2_sizes && List.mem big l2_sizes then
           [ claim "mean6.8KB_vs_16MB" (At_least (mean6 median big)) (Some (mean6 median small)) ]
         else []))

type colocation = { cotenancy : int list; samples : int; packets : int }

let fig5b = { cotenancy = Uarch.Colocation.default_cotenancy; samples = 6; packets = 1500 }

let fig5b_entry =
  scaled "fig5b" "Figure 5b: IPC degradation vs co-tenancy (4MB L2), median [p1; p99]" fig5b
    { cotenancy = [ 2; 4; 16 ]; samples = 3; packets = 400 }
    (fun { cotenancy; samples; packets } ->
      let results = Uarch.Colocation.figure5b ~cotenancy ~samples ~packets () in
      let stats nf n = List.assoc n (List.assoc nf results) in
      let median nf n = (stats nf n).Uarch.Colocation.median in
      let cell nf n = let s = stats nf n in Printf.sprintf "%.2f%% [%.2f; %.2f]" s.median s.p1 s.p99 in
      let row n = string_of_int n :: List.map (fun nf -> cell nf n) Uarch.Workload.names in
      let at16 fold nfs = List.fold_left (fun acc nf -> fold acc (median nf 16)) (median (List.hd nfs) 16) nfs in
      (* The six-NF mean where the paper reports one: ours, the paper's beside it. *)
      let mean (n, paper, ours) =
        let key = paper_key (Printf.sprintf "mean6.%dNFs" n) (Printf.sprintf "%.2f" paper) in
        if List.mem n cotenancy then Some (claim key (near ours 0.005) (Some (mean6 median n))) else None
      in
      let worst3 =
        claim "16NFs.min_FW_DPI_NAT_vs_max_LB_LPM_Mon" (At_least (at16 Float.max [ "LB"; "LPM"; "Mon" ]))
          (Some (at16 Float.min [ "FW"; "DPI"; "NAT" ]))
      in
      out
        [ table ("NFs" :: Uarch.Workload.names) (List.map row cotenancy) ]
        (List.filter_map mean [ (2, 0.24, 0.31); (4, 0.93, 0.96); (8, 3.41, 2.92); (16, 9.44, 6.89) ]
        @ grows ~key:"mean6" (List.map (fun n -> (Printf.sprintf "%dNFs" n, mean6 median n)) cotenancy)
        @ if List.mem 16 cotenancy then [ worst3 ] else []))

let fig6 =
  fixed "fig6" "Figure 6: nf_launch / nf_attest / nf_destroy latency (1.2 GHz NIC model)" (fun () ->
      let open Memprof.Instr_latency in
      let launch_of nf = launch (Memprof.Profiles.find nf) in
      let row (p : Memprof.Profiles.t) =
        let l = launch p and d = destroy p in
        cells "%s\t%.4f\t%.4f\t%.2f\t%.2f\t%.2f\t%.4f\t%.2f\t%.2f" p.name l.tlb_setup_ms l.denylist_ms l.sha_ms
          l.total_ms attest_ms d.allowlist_ms d.scrub_ms d.total_ms
      in
      out
        [ table
            [ "NF"; "tlb ms"; "denylist ms"; "sha ms"; "nf_launch ms"; "nf_attest ms"; "allowlist ms"; "scrub ms"; "nf_destroy ms" ]
            (List.map row Memprof.Profiles.nfs)
          |> noted [ Printf.sprintf "(the model hashes with the NIC's %.0f MB/s SHA-256 engine)" sha_mb_per_s ] ]
        (* The phase rates are fitted to these Appendix C anchors, within these tolerances. *)
        [ claim "LB.sha_ms" (near 29.62 1.0) (Some (launch_of "LB").sha_ms);
          claim "Mon.sha_ms" (near 763.52 10.) (Some (launch_of "Mon").sha_ms);
          claim "Mon.scrub_ms" (near 54.23 2.) (Some (destroy (Memprof.Profiles.find "Mon")).scrub_ms);
          claim "attest_ms" (near 5.6 0.1) (Some attest_ms) ])

let fig7 =
  fixed "fig7" "Figure 7: Monitor memory usage over time (150s CAIDA-like replay)" (fun () ->
      let series = Memprof.Timeline.monitor () in
      let watermark = match series with p :: _ -> p.Memprof.Timeline.prealloc_mb | [] -> 0. in
      let steady = Memprof.Timeline.final_mb series and peak = Memprof.Timeline.peak_mb series in
      let spikes = Memprof.Timeline.spike_count series in
      let point (p : Memprof.Timeline.point) =
        let bar = min 60 (int_of_float (p.used_mb /. watermark *. 60.)) in
        if Float.rem p.t_s 12.5 < 0.6 || p.used_mb > watermark *. 0.95 then
          Some (cells "%.1f\t%.1f\t|%s%s|" p.t_s p.used_mb (String.make bar '#') (String.make (60 - bar) ' '))
        else None
      in
      out
        [ table [ "t s"; "used MB"; "used / watermark" ] (List.filter_map point series) ]
        [ (* The paper's watermark is Table 6's Monitor total. *)
          claim (paper_key "watermark_mb" "360.54") (near 360.31 0.005) (Some watermark);
          claim "steady_mb" (near 246.31 0.01) (Some steady); claim "peak_mb" (near watermark 0.005) (Some peak);
          claim "resize_spikes" (At_least 3.) (Obs.Gate.int spikes) ])

let fig8 =
  fixed "fig8" "Figure 8: vDPI throughput vs cluster size and frame size" (fun () ->
      let frames = Trace.Flowgen.figure8_frame_sizes in
      let label f = if f < 1000 then Printf.sprintf "%dB" f else Printf.sprintf "%gKB" (float_of_int f /. 1000.) in
      let mpps kind threads frame = Uarch.Figure8.simulate ~kind ~threads ~frame_bytes:frame () in
      let sweep name kind threads = name :: List.map (fun f -> Printf.sprintf "%.3f" (mpps kind threads f)) frames in
      out
        [ table ("threads" :: List.map label frames) (List.map (fun t -> sweep (string_of_int t) Dpi t) [ 16; 32; 48 ])
          |> noted [ "(Mpps; small frames producer-bound ~1.07 Mpps flat, jumbo frames scale with threads)" ];
          table ("engine" :: List.map label frames) (List.map (fun k -> sweep (Nicsim.Accel.kind_name k) k 32) [ Zip; Raid ])
          |> titled "extension: the same sweep for the ZIP and RAID engines"
          |> noted [ "(32 threads; RAID's cheap per-byte XOR keeps even jumbo frames producer-bound)" ] ]
        [ claim "64B.mpps_48_vs_16_threads" (near (mpps Dpi 16 64) 0.05) (Some (mpps Dpi 48 64));
          claim "9KB.mpps_48_vs_16_threads" (At_least (2.5 *. mpps Dpi 16 9000)) (Some (mpps Dpi 48 9000)) ])

let attacks =
  fixed "attacks" "Section 3.3: concrete attacks across NIC architectures" (fun () ->
      let verdict (o : Attacks.outcome) = if o.succeeded then "SUCCEEDS" else "blocked" in
      let matrix = Attacks.matrix () in
      let succeeded nic pick =
        Obs.Gate.flag (List.exists (fun (n, c, s) -> n = nic && (pick (c, s)).Attacks.succeeded) matrix)
      in
      let temporal = Nicsim.Bus.Temporal { epoch = 96; dead = 16 } in
      let dos_ffa = Attacks.bus_dos Free_for_all and dos_tp = Attacks.bus_dos temporal in
      let cc_ffa = Attacks.bus_covert_channel Free_for_all and cc_tp = Attacks.bus_covert_channel temporal in
      let probe_sh = Attacks.accel_contention ~shared:true and probe_cl = Attacks.accel_contention ~shared:false in
      let sb = Attacks.Safebricks.safebricks_deployment () and sn = Attacks.Safebricks.snic_deployment () in
      let channels =
        [ cells "bus DoS: victim throughput retained\t%.1f%%\t%.1f%%" (100. *. dos_ffa.retained) (100. *. dos_tp.retained);
          cells "bus covert channel: 64-bit message decoded (chance 50%%)\t%.0f%%\t%.0f%%" (100. *. cc_ffa.accuracy)
            (100. *. cc_tp.accuracy);
          cells "accelerator probe: idle -> victim-active cycles\t%d -> %d\t%d -> %d" probe_sh.idle_latency
            probe_sh.busy_latency probe_cl.idle_latency probe_cl.busy_latency ]
      in
      let deployment (o : Attacks.Safebricks.outcome) =
        cells "%s\t%b\t%b\t%b" o.deployment o.kernel_saw_plaintext o.kernel_tampered_input o.dma_into_protected_memory
      in
      out
        [ table [ "NIC"; "pkt corruption"; "ruleset theft" ] (List.map (fun (n, c, s) -> [ n; verdict c; verdict s ]) matrix);
          table [ "channel"; "free-for-all bus / shared engine"; "temporal bus / dedicated cluster" ] channels
          |> titled "timing channels";
          table [ "deployment"; "kernel reads packets"; "kernel tampers input"; "DMA into TEE" ]
            [ deployment sb; deployment sn ]
          |> titled "deployment comparison: host-enclave NF (SafeBricks) vs S-NIC (the paper's motivation)" ]
        [ claim "LiquidIO SE-S.corruption" (Equals 1.) (succeeded "LiquidIO SE-S" fst);
          claim "LiquidIO SE-S.theft" (Equals 1.) (succeeded "LiquidIO SE-S" snd);
          claim "S-NIC.corruption" (Equals 0.) (succeeded "S-NIC" fst); claim "S-NIC.theft" (Equals 0.) (succeeded "S-NIC" snd);
          claim "bus_dos.temporal_retained" (At_least 0.99) (Some dos_tp.retained);
          claim "covert.temporal_accuracy" (At_most 0.6) (Some cc_tp.accuracy);
          claim "probe.dedicated_leaks" (Equals 0.) (Obs.Gate.flag probe_cl.distinguishable);
          claim "snic.kernel_reads_packets" (Equals 0.) (Obs.Gate.flag sn.kernel_saw_plaintext) ])

let ablation_bus =
  fixed "ablation-bus" "Ablation: bus arbitration policy (DoS resilience vs baseline cost)" (fun () ->
      let row name (r : Attacks.dos_result) =
        cells "%s\t%.0f\t%.0f\t%.1f%%" name (r.alone_pps /. 1e3) (r.under_attack_pps /. 1e3) (100. *. r.retained)
      in
      let temporal (epoch, dead) = row (Printf.sprintf "temporal epoch=%d dead=%d" epoch dead) (Attacks.bus_dos (Temporal { epoch; dead })) in
      out
        [ table [ "policy"; "alone kpps"; "attacked kpps"; "retained" ]
            (row "free-for-all" (Attacks.bus_dos Free_for_all) :: List.map temporal [ (96, 16); (192, 32); (384, 64) ]) ] [])

(* Channel 1 (prime+probe): the victim's activity evicts the attacker's
   primed lines. Channel 2 (flush+reload analog): the attacker touches
   addresses the victim may have cached and observes hits — the leak a
   soft, CAT-like write-only partition keeps (§4.2). Each is what the
   attacker observes with the victim active, minus idle. *)
let prime_probe mode =
  let run victim_active =
    let c = Nicsim.Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
    for i = 0 to 511 do ignore (Nicsim.Cache.access c ~domain:0 ~addr:(i * 64)) done;
    if victim_active then for i = 0 to 1023 do ignore (Nicsim.Cache.access c ~domain:1 ~addr:(0x800000 + (i * 64))) done;
    let misses = ref 0 in
    for i = 0 to 511 do if Nicsim.Cache.access c ~domain:0 ~addr:(i * 64) = Nicsim.Cache.Miss then incr misses done;
    !misses
  in
  run true - run false

(* The victim touches a region the attacker can also name (e.g. a
   shared library page). *)
let reload mode =
  let run victim_active =
    let c = Nicsim.Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
    if victim_active then for i = 0 to 63 do ignore (Nicsim.Cache.access c ~domain:1 ~addr:(0x400000 + (i * 64))) done;
    let hits = ref 0 in
    for i = 0 to 63 do if Nicsim.Cache.access c ~domain:0 ~addr:(0x400000 + (i * 64)) = Nicsim.Cache.Hit then incr hits done;
    !hits
  in
  run true - run false

let ablation_cache =
  fixed "ablation-cache" "Ablation: cache isolation mode (two side channels)" (fun () ->
      let leak n = if n = 0 then "ok" else "LEAK" in
      let row (name, mode) =
        let p = prime_probe mode and r = reload mode in
        cells "%s\t%d\t%s\t%d\t%s" name p (leak p) r (leak r)
      in
      let modes =
        Nicsim.Cache.
          [ ("shared (commodity)", Shared); ("soft / CAT-like", Soft); ("hard (S-NIC)", Hard); ("SecDCP dynamic", Secdcp) ]
      in
      let seen channel mode = Obs.Gate.int (channel mode) in
      out
        [ table [ "mode"; "prime+probe"; "verdict"; "reload-hit"; "verdict" ] (List.map row modes)
          |> noted [ "(soft partitioning closes the eviction channel but keeps the reload channel: insufficient)" ] ]
        [ claim "shared.prime_probe" (At_least 1.) (seen prime_probe Shared);
          claim "soft.prime_probe" (Equals 0.) (seen prime_probe Soft); claim "soft.reload" (At_least 1.) (seen reload Soft);
          claim "hard.prime_probe" (Equals 0.) (seen prime_probe Hard); claim "hard.reload" (Equals 0.) (seen reload Hard) ])

let ablation_decomposition =
  scaled "ablation-decomposition" "Ablation: where the Figure-5 degradation comes from (8 NFs @4MB L2)" 1200 400 (fun packets ->
      let names = six @ [ "FW"; "DPI" ] in
      let stream d n = Uarch.Workload.rebase (Uarch.Workload.stream ~packets n) ~domain:d in
      let streams = Array.of_list (List.mapi stream names) in
      let run isolation = Uarch.Cpu_model.run ~l2_bytes:(4 lsl 20) ~isolation streams in
      let base = run Baseline in
      let degradation isolation =
        let r = run isolation in
        fun d -> 100. *. (1. -. (r.(d).Uarch.Cpu_model.ipc /. base.(d).Uarch.Cpu_model.ipc))
      in
      let cache = degradation Cache_only and bus = degradation Bus_only and full = degradation Snic in
      out
        [ table [ "NF"; "cache part. only"; "bus part. only"; "full S-NIC" ]
            (List.mapi (fun d nf -> [ nf; pct2 (cache d); pct2 (bus d); pct2 (full d) ]) names)
          |> noted [ "(most of the cost is bus temporal partitioning; cache slicing matters for the big working sets)" ] ] [])

let ablation_pages =
  fixed "ablation-pages" "Ablation: page-size menu (entries vs wasted DRAM, the paper's six NFs)" (fun () ->
      let regions nf = Memprof.Profiles.regions (Memprof.Profiles.find nf) in
      let bytes menu = List.fold_left (fun acc nf -> acc + Costmodel.Page_packing.waste ~page_sizes:menu (regions nf)) 0 six in
      let waste menu = float_of_int (bytes menu) /. 1048576. and entries menu = Memprof.Profiles.max_entries ~page_sizes:menu in
      out
        [ table [ "menu"; "max entries"; "total waste MB" ]
            (List.map (fun (_, label, menu) -> cells "%s\t%d\t%.2f" label (entries menu) (waste menu)) menus) ] [])

let ablation_sched =
  fixed "ablation-sched" "Ablation: VPP packet scheduler (1000-packet backlog, 10% privileged traffic)" (fun () ->
      let open Nicsim in
      let backlog () =
        let rng = Trace.Rng.create ~seed:0x5C in
        List.init 1000 (fun i ->
            let privileged = Trace.Rng.int rng 10 = 0 in
            let flow = Trace.Rng.int rng 16 in
            let bytes = if flow < 4 then 1400 else 100 in
            ( { Sched.flow; bytes; level = (if privileged then 0 else 1); weight = (if flow < 2 then 4 else 1) },
              (i, privileged, bytes) ))
      in
      (* The mean position of privileged packets, and the small-packet
         share of the first half, in one policy's service order. *)
      let serve policy =
        let s = Sched.create policy in
        List.iter (fun (meta, x) -> Sched.enqueue s meta x) (backlog ());
        let prio_pos_sum = ref 0 and prio_n = ref 0 and small_first_half = ref 0 and small_total = ref 0 in
        let tally pos (_, privileged, bytes) =
          if privileged then (prio_pos_sum := !prio_pos_sum + pos; incr prio_n);
          if bytes = 100 then (incr small_total; if pos < 500 then incr small_first_half)
        in
        List.iteri tally (Sched.drain s);
        ( float_of_int !prio_pos_sum /. float_of_int (max 1 !prio_n),
          100. *. float_of_int !small_first_half /. float_of_int (max 1 !small_total) )
      in
      let policies = [ Sched.Fifo; Priority { levels = 2 }; Drr { quantum = 512 }; Wfq ] in
      let row p = let position, small = serve p in cells "%s\t%.1f\t%.1f%%" (Sched.policy_name p) position small in
      out [ table [ "policy"; "mean privileged position"; "small-pkt share of first half" ] (List.map row policies) ] [])

let ablation_underutil =
  fixed "ablation-underutil" "Ablation: the 4.8 underutilization trade-off (24h diurnal load)" (fun () ->
      let open Memprof.Underutil in
      let elastic mb = Elastic { instance_mb = mb } in
      let policies =
        [ ("static", Static_peak); ("elastic120", elastic 120.); ("elastic60", elastic 60.); ("elastic30", elastic 30.) ]
      in
      let util policy = 100. *. avg_utilization (simulate policy) in
      let row policy = cells "%s\t%.1f%%\t%d" (policy_name policy) (util policy) (churn (simulate policy) policy) in
      out
        [ table [ "provisioning policy"; "avg utilization"; "churn" ] (List.map row (List.map snd policies @ [ Dynamic ]))
          |> noted [ "(creating/destroying fixed-size instances recovers most of the utilization";
                     " that S-NIC's no-resize rule forfeits, at the cost of launch/teardown churn)" ] ]
        (* Elastic instances beat static peak provisioning (§4.8); smaller ones track the load closer. *)
        (grows ~key:"utilization" (List.map (fun (k, p) -> (k, util p)) policies)))

let ablation_denylist =
  fixed "ablation-denylist" "Ablation: denylist as bitmap vs page-table walk (4.1 footnote)" (fun () ->
      out
        [ table [ "design"; "dedicated SRAM KB"; "cycles per TLB install" ]
            [ cells "bitmap over 1 GB of DRAM\t%d\t1" ((1 lsl 30) / 4096 / 8 / 1024);
              cells "EPT-style walk, ~4 DRAM references\t0\t%d" (4 * 88) ]
          |> noted [ "(the paper picks the walk: TLB installs are rare events, die area is precious)" ] ] [])

let ablation_translation =
  fixed "ablation-translation" "Ablation: locked variable-size TLB vs per-core page table (4.2 alternate design)" (fun () ->
      let row (p : Memprof.Profiles.t) =
        cells "%s\t%d\t%d\t0cy\t%dxDRAM" p.name
          (Memprof.Profiles.tlb_entries p ~page_sizes:Costmodel.Page_packing.equal_2mb)
          (Nicsim.Pagetable.table_pages_for ~vaddr:0 ~len:(Costmodel.Page_packing.mb (Memprof.Profiles.total_mb p)))
          Nicsim.Pagetable.walk_dram_refs
      in
      out
        [ table [ "NF"; "TLB entries (Equal)"; "PT pages (4KB walker)"; "TLB cost"; "walk cost" ]
            (List.map row Memprof.Profiles.nfs)
          |> noted
               [ Printf.sprintf "TLB: zero-latency hits, no misses by construction; +%.3f mm^2 per core at 183 entries"
                   (Costmodel.Tlb_cost.area_mm2 183);
                 "page table: no CAM silicon, but every TLB refill costs DRAM walks and the tables live in the";
                 "function's RAM budget; the paper picks locked TLBs ('a typical implementation will not";
                 "associate a page table pointer with a programmable core')" ] ] [])

let all =
  [ table1; table2; table3; table4; table5; overhead; offload; table6; table6_ocaml; table7; table8; fig5a; fig5b_entry; fig6;
    fig7; fig8; attacks; ablation_bus; ablation_cache; ablation_decomposition; ablation_pages; ablation_sched;
    ablation_underutil; ablation_denylist; ablation_translation ]

let with_claims out =
  let row (g : Obs.Gate.t) =
    let value = match g.value with Some v -> Printf.sprintf "%g" v | None -> "missing" in
    [ g.key; value; Obs.Gate.rule_to_string g.rule; (if Obs.Gate.holds g then "yes" else "NO") ]
  in
  if out.claims = [] then out.tables
  else out.tables @ [ table [ "claim"; "value"; "must be"; "holds" ] (List.map row out.claims) |> titled "claims" ]

let numeric s = s <> "" && match s.[0] with '0' .. '9' | '-' | '.' -> true | _ -> false
let rec rstrip s = if s <> "" && s.[String.length s - 1] = ' ' then rstrip (String.sub s 0 (String.length s - 1)) else s

(* Numbers align right, text left. *)
let text_table b t =
  if t.title <> "" then Printf.bprintf b "\n-- %s --\n" t.title;
  let column i = List.map (fun row -> List.nth row i) t.rows in
  let width i h = List.fold_left (fun w c -> max w (String.length c)) (String.length h) (column i) in
  let cols = List.mapi (fun i h -> (width i h, i > 0 && List.for_all numeric (column i))) t.header in
  let pad (w, right) c = let fill = String.make (w - String.length c) ' ' in if right then fill ^ c else c ^ fill in
  List.iter (fun row -> Printf.bprintf b "%s\n" (rstrip (String.concat "  " (List.map2 pad cols row)))) (t.header :: t.rows);
  List.iter (Printf.bprintf b "%s\n") t.notes

let to_text e out =
  let b = Buffer.create 4096 in
  Printf.bprintf b "\n%s\n%s\n" (caption e) (String.make (String.length (caption e)) '=');
  List.iter (text_table b) (with_claims out);
  Buffer.contents b

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"') s then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\"" else s

let to_csv e out =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# %s: %s\n" (id e) (caption e);
  List.iter
    (fun t ->
      if t.title <> "" then Printf.bprintf b "# %s\n" t.title;
      List.iter (fun row -> Printf.bprintf b "%s\n" (String.concat "," (List.map csv_cell row))) (t.header :: t.rows);
      List.iter (Printf.bprintf b "# %s\n") t.notes)
    (with_claims out);
  Buffer.contents b
