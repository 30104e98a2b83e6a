let ip = Net.Ipv4_addr.of_string

let packet ?(src = "10.0.0.5") ?(dst = "93.184.216.34") ?(sport = 40000) ?(dport = 80) ?(payload = "data") () =
  Net.Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~proto:Net.Packet.Tcp ~src_port:sport ~dst_port:dport payload

(* ---------- generic LRU ---------- *)

module L = Nf.Lru.Make (Net.Five_tuple.Table)

let flow i = Net.Packet.flow (packet ~sport:(1000 + i) ())

let test_lru_basic () =
  let c = L.create ~capacity:3 in
  L.add c (flow 1) "a";
  L.add c (flow 2) "b";
  L.add c (flow 3) "c";
  Alcotest.(check (option string)) "find" (Some "a") (L.find c (flow 1));
  (* flow 1 is now MRU; adding a 4th evicts flow 2 (the LRU). *)
  L.add c (flow 4) "d";
  Alcotest.(check int) "bounded" 3 (L.length c);
  Alcotest.(check (option string)) "evicted" None (L.find c (flow 2));
  Alcotest.(check (option string)) "survivor" (Some "a") (L.find c (flow 1));
  Alcotest.(check int) "one eviction" 1 (L.evictions c)

let test_lru_update_in_place () =
  let c = L.create ~capacity:2 in
  L.add c (flow 1) "a";
  L.add c (flow 1) "a2";
  Alcotest.(check int) "no duplicate" 1 (L.length c);
  Alcotest.(check (option string)) "updated" (Some "a2") (L.find c (flow 1))

let test_lru_recency_order () =
  let c = L.create ~capacity:4 in
  List.iter (fun i -> L.add c (flow i) i) [ 1; 2; 3; 4 ];
  ignore (L.find c (flow 2));
  let order = L.keys_by_recency c in
  Alcotest.(check int) "four keys" 4 (List.length order);
  Alcotest.(check bool) "flow 2 is MRU" true (Net.Five_tuple.equal (List.hd order) (flow 2))

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:100
    (QCheck.pair (QCheck.int_range 1 16) (QCheck.list_of_size (QCheck.Gen.int_range 0 100) (QCheck.int_bound 30)))
    (fun (cap, ops) ->
      let c = L.create ~capacity:cap in
      List.iter (fun i -> L.add c (flow i) i) ops;
      L.length c <= cap
      && List.for_all (fun i -> not (L.mem c (flow i)) || L.find c (flow i) <> None) ops)

(* ---------- firewall LRU behavior ---------- *)

let test_firewall_lru_eviction () =
  let fw = Nf.Firewall.create ~cache_capacity:2 ~default:Nf.Firewall.Allow [] in
  ignore (Nf.Firewall.classify fw (packet ~sport:1 ()));
  ignore (Nf.Firewall.classify fw (packet ~sport:2 ()));
  (* Touch flow 1, then add flow 3: flow 2 must be the one evicted. *)
  ignore (Nf.Firewall.classify fw (packet ~sport:1 ()));
  ignore (Nf.Firewall.classify fw (packet ~sport:3 ()));
  Alcotest.(check int) "cache stays bounded" 2 (Nf.Firewall.cached_flows fw);
  Alcotest.(check int) "one eviction" 1 (Nf.Firewall.cache_evictions fw)

(* ---------- NAT expiry ---------- *)

let make_nat () = Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") ()

let test_nat_expiry_recycles_ports () =
  let nat = make_nat () in
  let p1 = Option.get (Nf.Nat.translate nat (packet ~sport:1111 ())) in
  (* Keep a second flow fresh with more traffic. *)
  for _ = 1 to 10 do
    ignore (Nf.Nat.translate nat (packet ~sport:2222 ()))
  done;
  Alcotest.(check int) "two mappings" 2 (Nf.Nat.active_mappings nat);
  let expired = Nf.Nat.expire nat ~idle_for:5 in
  Alcotest.(check int) "stale flow expired" 1 expired;
  Alcotest.(check int) "one mapping left" 1 (Nf.Nat.active_mappings nat);
  (* The recycled port is reused by the next new flow. *)
  let p3 = Option.get (Nf.Nat.translate nat (packet ~sport:3333 ())) in
  Alcotest.(check int) "port recycled" p1.Net.Packet.src_port p3.Net.Packet.src_port

let test_nat_refresh_prevents_expiry () =
  let nat = make_nat () in
  ignore (Nf.Nat.translate nat (packet ~sport:1111 ()));
  for _ = 1 to 10 do
    ignore (Nf.Nat.translate nat (packet ~sport:1111 ()))
  done;
  Alcotest.(check int) "fresh mapping survives" 0 (Nf.Nat.expire nat ~idle_for:5)

let test_nat_inbound_refreshes () =
  let nat = make_nat () in
  let out = Option.get (Nf.Nat.translate nat (packet ~sport:1111 ())) in
  (* Only inbound traffic for a while. *)
  for _ = 1 to 10 do
    let reply =
      Net.Packet.make ~src_ip:(ip "93.184.216.34") ~dst_ip:out.Net.Packet.src_ip ~proto:Net.Packet.Tcp ~src_port:80
        ~dst_port:out.Net.Packet.src_port "r"
    in
    ignore (Nf.Nat.translate nat reply)
  done;
  Alcotest.(check int) "inbound refreshed it" 0 (Nf.Nat.expire nat ~idle_for:5)

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basic;
    Alcotest.test_case "lru update in place" `Quick test_lru_update_in_place;
    Alcotest.test_case "lru recency order" `Quick test_lru_recency_order;
    QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
    Alcotest.test_case "firewall LRU eviction" `Quick test_firewall_lru_eviction;
    Alcotest.test_case "nat expiry recycles ports" `Quick test_nat_expiry_recycles_ports;
    Alcotest.test_case "nat refresh prevents expiry" `Quick test_nat_refresh_prevents_expiry;
    Alcotest.test_case "nat inbound refreshes" `Quick test_nat_inbound_refreshes;
  ]
