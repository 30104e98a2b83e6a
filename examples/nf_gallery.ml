(* The six evaluation network functions of §5.1, each run over the same
   synthetic ICTF-like trace (Zipf 1.1 over 100k flows), with the
   statistics the paper's evaluation cares about.

   Run with: dune exec examples/nf_gallery.exe *)

let ip = Net.Ipv4_addr.of_string
let packets = 5_000

let trace () = Trace.Tracegen.ictf_like ~n_flows:20_000 ~seed:0xE5 ~packets ()

let run_counts nf =
  let fwd = ref 0 and drop = ref 0 in
  Seq.iter
    (fun p -> match nf.Nf.Types.process p with Nf.Types.Forward _ -> incr fwd | Nf.Types.Drop _ -> incr drop)
    (Trace.Tracegen.packets (trace ()));
  (!fwd, !drop)

let () =
  Printf.printf "replaying %d packets (Zipf 1.1, 20k flows) through each NF\n\n" packets;

  (* Firewall: the paper's 643 Emerging-Threats-like rules. *)
  let rng = Trace.Rng.create ~seed:0xF1 in
  let fw = Nf.Firewall.create ~default:Nf.Firewall.Allow (Nf.Rulegen.firewall_rules rng ~n:643) in
  let fwd, drop = run_counts (Nf.Firewall.nf fw) in
  Printf.printf "FW   %d rules: %d allowed, %d denied, %d flows cached (cap %d)\n" (Nf.Firewall.rule_count fw) fwd
    drop (Nf.Firewall.cached_flows fw) (Nf.Firewall.cache_capacity fw);

  (* DPI: a scaled Snort-like pattern set over an Aho-Corasick automaton. *)
  let rng = Trace.Rng.create ~seed:0xD1 in
  let dpi = Nf.Dpi.create (Nf.Rulegen.dpi_patterns rng ~n:3000) in
  let _, drop = run_counts (Nf.Dpi.nf dpi) in
  let ac = Nf.Dpi.automaton dpi in
  Printf.printf "DPI  %d patterns, %d automaton states, %d transitions: %d packets flagged\n"
    (Nf.Aho_corasick.pattern_count ac) (Nf.Aho_corasick.state_count ac) (Nf.Aho_corasick.transition_count ac) drop;

  (* NAT: MazuNAT-style translation of the 10/8 tenant prefix. *)
  let nat = Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") () in
  let fwd, drop = run_counts (Nf.Nat.nf nat) in
  Printf.printf "NAT  %d translated, %d unroutable, %d mappings live, %d ports left\n" fwd drop
    (Nf.Nat.active_mappings nat) (Nf.Nat.free_ports nat);

  (* LB: Maglev over 16 backends; show balance and consistency. *)
  let lb = Nf.Maglev.create (Nf.Rulegen.backends ~n:16) in
  let loads = Nf.Maglev.load lb in
  let mn = List.fold_left (fun a (_, c) -> min a c) max_int loads in
  let mx = List.fold_left (fun a (_, c) -> max a c) 0 loads in
  let lb7 = Nf.Maglev.remove lb "backend-007" in
  Printf.printf "LB   table %d, slot balance %.4f (min/max), disruption removing 1/16: %.2f%%\n"
    (Nf.Maglev.table_size lb)
    (float_of_int mn /. float_of_int mx)
    (100. *. Nf.Maglev.disruption lb lb7);

  (* LPM: DIR-24-8 with the paper's 16,000 random routes. *)
  let rng = Trace.Rng.create ~seed:0x17 in
  let lpm = Nf.Lpm.create () in
  List.iter (fun (p, l, nh) -> Nf.Lpm.insert lpm ~prefix:p ~len:l nh) (Nf.Rulegen.routes rng ~n:16_000);
  let fwd, drop = run_counts (Nf.Lpm.nf lpm) in
  Printf.printf "LPM  %d routes, %d tbl8 blocks, %.1f MB tables: %d routed, %d unroutable\n"
    (Nf.Lpm.route_count lpm) (Nf.Lpm.tbl8_blocks lpm)
    (float_of_int (Nf.Lpm.table_bytes lpm) /. 1048576.)
    fwd drop;

  (* Monitor: per-flow packet counters; show the Zipf head. *)
  let mon = Nf.Monitor.create () in
  let _ = run_counts (Nf.Monitor.nf mon) in
  Printf.printf "Mon  %d flows observed over %d packets; top flows:\n" (Nf.Monitor.flow_count mon)
    (Nf.Monitor.packets_seen mon);
  List.iter
    (fun (flow, count) -> Printf.printf "       %6d pkts  %s\n" count (Net.Five_tuple.to_string flow))
    (Nf.Monitor.top mon 3)
