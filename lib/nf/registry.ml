type spec = {
  short : string;
  description : string;
  build : ?probe:Types.probe -> scale:float -> unit -> Types.t;
}

let scaled base scale = max 1 (int_of_float (float_of_int base *. scale))
let fw_rules ~scale = scaled 643 scale
let dpi_patterns ~scale = scaled 33_471 scale
let lpm_routes ~scale = scaled 16_000 scale

let build_fw ?probe ~scale () =
  let rng = Trace.Rng.create ~seed:0xF1 in
  let rules = Rulegen.firewall_rules rng ~n:(fw_rules ~scale) in
  Firewall.nf (Firewall.create ?probe ~default:Firewall.Allow rules)

let build_dpi ?probe ~scale () =
  let rng = Trace.Rng.create ~seed:0xD1 in
  Dpi.nf (Dpi.create ?probe (Rulegen.dpi_patterns rng ~n:(dpi_patterns ~scale)))

let build_nat ?probe ~scale:_ () =
  Nat.nf
    (Nat.create ?probe
       ~internal_prefix:(Net.Ipv4_addr.of_string "10.0.0.0", 8)
       ~external_ip:(Net.Ipv4_addr.of_string "203.0.113.1")
       ())

let build_lb ?probe ~scale:_ () = Maglev.nf (Maglev.create ?probe (Rulegen.backends ~n:16))

let build_lpm ?probe ~scale () =
  let rng = Trace.Rng.create ~seed:0x17 in
  let t = Lpm.create ?probe () in
  List.iter (fun (p, l, nh) -> Lpm.insert t ~prefix:p ~len:l nh) (Rulegen.routes rng ~n:(lpm_routes ~scale));
  Lpm.nf t

let build_mon ?probe ~scale:_ () = Monitor.nf (Monitor.create ?probe ())

(* CuckooGuard pair: filter sized by [scale] in whole log2 steps so the
   paper-scale (1.0) filter holds 2^14 buckets x 4 slots = 64 Ki flows
   in a fixed 128 KiB reservation. *)
let ckf_log2_buckets ~scale =
  let shift = if scale >= 1.0 then 0 else if scale >= 0.1 then -4 else -7 in
  max 4 (14 + shift)

let build_ckf ?probe ~scale () =
  Cuckoo.nf (Cuckoo.nf_create ?probe ~fp_bits:12 ~log2_buckets:(ckf_log2_buckets ~scale) ())

let synp_key = lazy (Crypto.Hmac.derive ~secret:"snic-nf-registry" ~label:"synp-cookie")

let build_synp ?probe ~scale () =
  Syn_proxy.nf
    (Syn_proxy.create ?probe ~fp_bits:12 ~log2_buckets:(ckf_log2_buckets ~scale) ~key:(Lazy.force synp_key) ())

let all =
  [
    { short = "FW"; description = "stateful firewall, Emerging-Threats-like rules + flow cache"; build = build_fw };
    { short = "DPI"; description = "Aho-Corasick pattern matching over payloads"; build = build_dpi };
    { short = "NAT"; description = "MazuNAT-derived address translator"; build = build_nat };
    { short = "LB"; description = "Maglev consistent-hashing load balancer"; build = build_lb };
    { short = "LPM"; description = "DIR-24-8 longest prefix match routing"; build = build_lpm };
    { short = "Mon"; description = "per-flow packet counter"; build = build_mon };
    { short = "CKF"; description = "cuckoo-filter flow tracker, fixed-memory approximate set"; build = build_ckf };
    { short = "SYNP"; description = "SYN-cookie split proxy, cuckoo-filter whitelist"; build = build_synp };
  ]

let paper = List.filteri (fun i _ -> i < 6) all

let short_names () = String.concat ", " (List.map (fun s -> s.short) all)

let find short =
  match List.find_opt (fun s -> String.equal s.short short) all with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Nf.Registry.find: unknown NF %S (valid short names: %s)" short (short_names ()))
