open Nicsim

let mb = 1 lsl 20

(* ---------- Physmem ---------- *)

let test_physmem_rw () =
  let m = Physmem.create ~size:(4 * mb) in
  Physmem.write_u8 m 0 0xAB;
  Physmem.write_u8 m (4 * mb - 1) 0xCD;
  Alcotest.(check int) "first byte" 0xAB (Physmem.read_u8 m 0);
  Alcotest.(check int) "last byte" 0xCD (Physmem.read_u8 m (4 * mb - 1));
  Alcotest.(check int) "untouched reads zero" 0 (Physmem.read_u8 m 1234);
  Physmem.write_u64 m 64 0x1122334455667788;
  Alcotest.(check int) "u64 roundtrip" 0x1122334455667788 (Physmem.read_u64 m 64);
  Physmem.write_bytes m ~pos:100 "hello";
  Alcotest.(check string) "bytes roundtrip" "hello" (Physmem.read_bytes m ~pos:100 ~len:5);
  Alcotest.check_raises "oob" (Invalid_argument "Physmem: access [0x400000, 0x400001) outside DRAM of 0x400000 bytes")
    (fun () -> ignore (Physmem.read_u8 m (4 * mb)))

let test_physmem_cross_page () =
  let m = Physmem.create ~size:(1 * mb) in
  let pos = Physmem.page_size - 3 in
  Physmem.write_u64 m pos 0xDEADBEEFCAFE;
  Alcotest.(check int) "u64 across page boundary" 0xDEADBEEFCAFE (Physmem.read_u64 m pos)

let test_physmem_zero_range () =
  let m = Physmem.create ~size:(1 * mb) in
  Physmem.write_bytes m ~pos:1000 (String.make 10000 'x');
  Physmem.zero_range m ~pos:1000 ~len:10000;
  Alcotest.(check bool) "scrubbed" true (Physmem.is_zero m ~pos:1000 ~len:10000);
  Alcotest.(check bool) "neighbours intact" true (Physmem.is_zero m ~pos:0 ~len:1000)

let test_physmem_ownership () =
  let m = Physmem.create ~size:(1 * mb) in
  let p = Physmem.page_size in
  Physmem.set_owner m ~pos:(4 * p) ~len:(2 * p) (Physmem.Nf 3);
  Alcotest.(check bool) "owned" true (Physmem.owner_equal (Physmem.Nf 3) (Physmem.owner_of m (4 * p)));
  Alcotest.(check bool) "middle of range" true (Physmem.owner_equal (Physmem.Nf 3) (Physmem.owner_of m ((5 * p) + 17)));
  Alcotest.(check bool) "outside free" true (Physmem.owner_equal Physmem.Free (Physmem.owner_of m (6 * p)));
  (match Physmem.owned_ranges m (Physmem.Nf 3) with
  | [ (pos, len) ] ->
    Alcotest.(check int) "range pos" (4 * p) pos;
    Alcotest.(check int) "range len" (2 * p) len
  | l -> Alcotest.failf "expected one run, got %d" (List.length l));
  Alcotest.check_raises "unaligned" (Invalid_argument "Physmem.set_owner: range must be page-aligned") (fun () ->
      Physmem.set_owner m ~pos:7 ~len:p Physmem.Nic_os)

(* Regression (bugfix PR): owner listings must come out ascending, not in
   Hashtbl hash order — scrub and teardown walk them. *)
let test_physmem_pages_owned_sorted () =
  let m = Physmem.create ~size:(4 * mb) in
  let p = Physmem.page_size in
  (* Claim pages in a deliberately scattered order. *)
  List.iter
    (fun idx -> Physmem.set_owner m ~pos:(idx * p) ~len:p (Physmem.Nf 7))
    [ 900; 3; 511; 42; 120; 7; 1000 ];
  let pages = Physmem.pages_owned m (Physmem.Nf 7) in
  Alcotest.(check (list int)) "ascending page indices" [ 3; 7; 42; 120; 511; 900; 1000 ] pages;
  (* owned_ranges rides pages_owned: runs must also come out ascending. *)
  Physmem.set_owner m ~pos:(8 * p) ~len:p (Physmem.Nf 7);
  match Physmem.owned_ranges m (Physmem.Nf 7) with
  | (first, len) :: _ ->
    Alcotest.(check int) "first run starts at lowest page" (3 * p) first;
    Alcotest.(check int) "single page run" p len
  | [] -> Alcotest.fail "expected owned ranges"

(* Regression (bugfix PR): a hostile length near max_int used to wrap
   [pos + len] negative and slip past the bounds check. *)
let test_physmem_check_overflow () =
  let m = Physmem.create ~size:(1 * mb) in
  let assert_rejected name pos len =
    match Physmem.read_bytes m ~pos ~len with
    | _ -> Alcotest.failf "%s: hostile range was accepted" name
    | exception Invalid_argument _ -> ()
  in
  assert_rejected "len = max_int" 8 max_int;
  assert_rejected "pos + len wraps" (mb - 1) (max_int - 100);
  assert_rejected "negative len" 0 (-1);
  (* The exact boundary is still fine. *)
  Alcotest.(check int) "full-size read ok" mb (String.length (Physmem.read_bytes m ~pos:0 ~len:mb))

let test_physmem_bulk_blits () =
  let m = Physmem.create ~size:(4 * mb) in
  let p = Physmem.page_size in
  (* Page-straddling write via blit, read back via the per-byte path. *)
  let src = Bytes.init (3 * p) (fun i -> Char.chr ((i * 31) land 0xff)) in
  let pos = (5 * p) - 100 in
  Physmem.blit_from_bytes m ~pos src ~off:0 ~len:(Bytes.length src);
  let ok = ref true in
  for i = 0 to Bytes.length src - 1 do
    if Physmem.read_u8 m (pos + i) <> Char.code (Bytes.get src i) then ok := false
  done;
  Alcotest.(check bool) "blit_from_bytes matches per-byte reads" true !ok;
  (* Bulk read over a never-written (sparse) region returns zeroes and
     does not materialize pages. *)
  let r0 = Physmem.resolutions m in
  let buf = Bytes.make (2 * p) 'x' in
  Physmem.blit_to_bytes m ~pos:(2 * mb) buf ~off:0 ~len:(2 * p);
  Alcotest.(check bool) "sparse read is zeroes" true (Bytes.for_all (fun c -> c = '\000') buf);
  Alcotest.(check int) "one resolution per page" 2 (Physmem.resolutions m - r0);
  Alcotest.(check bool) "sparse pages stay sparse" true (Physmem.is_zero m ~pos:(2 * mb) ~len:(2 * p));
  (* fill with a non-zero byte, then fill '\000' restores sparseness. *)
  Physmem.fill m ~pos:(3 * mb) ~len:(2 * p) 'q';
  Alcotest.(check string) "fill visible" (String.make 8 'q') (Physmem.read_bytes m ~pos:((3 * mb) + p) ~len:8);
  Physmem.fill m ~pos:(3 * mb) ~len:(2 * p) '\000';
  Alcotest.(check bool) "zero fill scrubs" true (Physmem.is_zero m ~pos:(3 * mb) ~len:(2 * p))

(* ---------- TLB ---------- *)

let test_tlb_translate () =
  let tlb = Tlb.create () in
  Tlb.install tlb { Tlb.vbase = 0x10000; pbase = 0x800000; size = 0x10000; writable = true };
  Tlb.install tlb { Tlb.vbase = 0x20000; pbase = 0x900000; size = 0x10000; writable = false };
  Alcotest.(check (option int)) "read hit" (Some 0x800123) (Tlb.translate tlb ~vaddr:0x10123 ~access:Tlb.Read);
  Alcotest.(check (option int)) "write hit" (Some 0x800123) (Tlb.translate tlb ~vaddr:0x10123 ~access:Tlb.Write);
  Alcotest.(check (option int)) "ro read" (Some 0x900000) (Tlb.translate tlb ~vaddr:0x20000 ~access:Tlb.Read);
  Alcotest.(check (option int)) "ro write denied" None (Tlb.translate tlb ~vaddr:0x20000 ~access:Tlb.Write);
  Alcotest.(check (option int)) "miss" None (Tlb.translate tlb ~vaddr:0x99999999 ~access:Tlb.Read);
  Alcotest.(check int) "mapped bytes" 0x20000 (Tlb.mapped_bytes tlb)

let test_tlb_validation () =
  let tlb = Tlb.create ~capacity:1 () in
  Alcotest.check_raises "size not pow2" (Invalid_argument "Tlb.install: size must be a power of two") (fun () ->
      Tlb.install tlb { Tlb.vbase = 0; pbase = 0; size = 3000; writable = true });
  Alcotest.check_raises "unaligned" (Invalid_argument "Tlb.install: base not aligned to size") (fun () ->
      Tlb.install tlb { Tlb.vbase = 0x100; pbase = 0; size = 0x1000; writable = true });
  Tlb.install tlb { Tlb.vbase = 0; pbase = 0; size = 0x1000; writable = true };
  Alcotest.check_raises "full" (Invalid_argument "Tlb.install: TLB full") (fun () ->
      Tlb.install tlb { Tlb.vbase = 0x1000; pbase = 0x1000; size = 0x1000; writable = true });
  Alcotest.check_raises "overlap" (Invalid_argument "Tlb.install: overlapping mapping") (fun () ->
      Tlb.install tlb { Tlb.vbase = 0; pbase = 0x2000; size = 0x1000; writable = true })

let test_tlb_translate_run () =
  let tlb = Tlb.create () in
  Tlb.install tlb { Tlb.vbase = 0x10000; pbase = 0x800000; size = 0x10000; writable = true };
  Tlb.install tlb { Tlb.vbase = 0x20000; pbase = 0x900000; size = 0x10000; writable = false };
  (* A run is clipped at its entry's end even when the next entry is
     virtually adjacent (it may not be physically contiguous). *)
  Alcotest.(check (option (pair int int)))
    "run clipped at entry end"
    (Some (0x80ff00, 0x100))
    (Tlb.translate_run tlb ~vaddr:0x1ff00 ~len:0x1000 ~access:Tlb.Read);
  Alcotest.(check (option (pair int int)))
    "run clipped by len"
    (Some (0x800100, 0x80))
    (Tlb.translate_run tlb ~vaddr:0x10100 ~len:0x80 ~access:Tlb.Read);
  Alcotest.(check (option (pair int int)))
    "write to ro entry misses" None
    (Tlb.translate_run tlb ~vaddr:0x20000 ~len:16 ~access:Tlb.Write);
  Alcotest.(check (option (pair int int)))
    "unmapped misses" None
    (Tlb.translate_run tlb ~vaddr:0x50000 ~len:16 ~access:Tlb.Read)

let test_accel_stream () =
  let mem = Physmem.create ~size:(4 * mb) in
  let a = Accel.create ~kind:Accel.Zip ~threads:16 ~cluster_size:16 in
  let cluster = Option.get (Accel.claim_cluster a ~nf:1) in
  let tlb = Accel.cluster_tlb a ~cluster in
  (* Map only [0, 1MB): like nf_launch, then lock. *)
  ignore (Tlb.map_region tlb ~vbase:0 ~pbase:0 ~len:mb ~writable:true);
  Tlb.lock tlb;
  let data = String.init 10_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Physmem.write_bytes mem ~pos:0 data;
  (match
     Accel.stream a ~cluster ~now:0 ~mem ~src:0 ~src_len:(String.length data) ~dst:0x40000
       ~f:(fun s -> String.uppercase_ascii s)
   with
  | Error e -> Alcotest.failf "stream failed: %s" (Accel.stream_error_to_string e)
  | Ok (written, done_at) ->
    Alcotest.(check int) "bytes written" (String.length data) written;
    let expect_cost =
      Accel.overhead_cycles Accel.Zip
      + int_of_float (Accel.cycles_per_byte Accel.Zip *. float_of_int (String.length data))
    in
    Alcotest.(check int) "cost matches the service model" expect_cost done_at;
    Alcotest.(check string) "output landed at dst"
      (String.uppercase_ascii data)
      (Physmem.read_bytes mem ~pos:0x40000 ~len:written));
  (* A destination outside the locked bank faults at the exact first
     unmapped virtual address. *)
  (match Accel.stream a ~cluster ~now:0 ~mem ~src:0 ~src_len:16 ~dst:(mb - 8) ~f:Fun.id with
  | Ok _ -> Alcotest.fail "stream escaped the cluster TLB"
  | Error (Accel.Stream_fault { vaddr; write }) ->
    Alcotest.(check int) "faulting vaddr" mb vaddr;
    Alcotest.(check bool) "write fault" true write);
  match Accel.stream a ~cluster ~now:0 ~mem ~src:(2 * mb) ~src_len:16 ~dst:0 ~f:Fun.id with
  | Ok _ -> Alcotest.fail "unmapped source was readable"
  | Error (Accel.Stream_fault { vaddr; write }) ->
    Alcotest.(check int) "source fault vaddr" (2 * mb) vaddr;
    Alcotest.(check bool) "read fault" false write

let test_tlb_lock () =
  let tlb = Tlb.create () in
  Tlb.install tlb { Tlb.vbase = 0; pbase = 0; size = 0x1000; writable = true };
  Tlb.lock tlb;
  Alcotest.(check bool) "locked" true (Tlb.is_locked tlb);
  Alcotest.check_raises "install after lock" (Invalid_argument "Tlb.install: TLB is locked") (fun () ->
      Tlb.install tlb { Tlb.vbase = 0x1000; pbase = 0x1000; size = 0x1000; writable = true })

(* ---------- Bus ---------- *)

let test_bus_free_for_all () =
  let bus = Bus.create ~policy:Bus.Free_for_all ~clients:2 in
  let t1 = Bus.request bus ~client:0 ~now:0 ~cost:10 in
  Alcotest.(check int) "first op immediate" 10 t1;
  (* Client 1 asks at time 0 but the bus is busy until 10. *)
  let t2 = Bus.request bus ~client:1 ~now:0 ~cost:10 in
  Alcotest.(check int) "second op queues" 20 t2;
  let s = Bus.stats bus ~client:1 in
  Alcotest.(check int) "waited" 10 s.Bus.wait_cycles;
  Alcotest.(check (option int)) "unbounded interference" None (Bus.worst_case_interference bus)

let test_bus_temporal_slots () =
  let bus = Bus.create ~policy:(Bus.Temporal { epoch = 100; dead = 20 }) ~clients:2 in
  (* Client 0 owns [0,100); issue window is [0,80-cost]. *)
  Alcotest.(check int) "own slot" 10 (Bus.request bus ~client:0 ~now:0 ~cost:10);
  (* Client 1 owns [100,200): its request at t=0 waits for its slot. *)
  Alcotest.(check int) "waits for own slot" 110 (Bus.request bus ~client:1 ~now:0 ~cost:10);
  (* Client 0 again: next client-0 slot is [200,300). *)
  Alcotest.(check int) "round robin" 210 (Bus.request bus ~client:0 ~now:150 ~cost:10);
  Alcotest.(check (option int)) "bounded interference" (Some 120) (Bus.worst_case_interference bus)

let test_bus_temporal_dead_time () =
  let bus = Bus.create ~policy:(Bus.Temporal { epoch = 100; dead = 20 }) ~clients:2 in
  (* An op of cost 30 cannot issue after cycle 50 of the owner's slot
     (must finish by 80 = epoch - dead). At now=60, wait for next slot. *)
  Alcotest.(check int) "dead time pushes to next slot" 230 (Bus.request bus ~client:0 ~now:60 ~cost:30);
  Alcotest.check_raises "cost too large" (Invalid_argument "Bus.request: cost exceeds usable epoch") (fun () ->
      ignore (Bus.request bus ~client:0 ~now:0 ~cost:81))

let test_bus_temporal_isolation_guarantee () =
  (* A greedy client hammering the bus cannot change when the victim's
     ops are served beyond the static slot schedule. *)
  let run ~attacker_ops =
    let bus = Bus.create ~policy:(Bus.Temporal { epoch = 100; dead = 20 }) ~clients:2 in
    for _ = 1 to attacker_ops do
      ignore (Bus.request bus ~client:1 ~now:0 ~cost:10)
    done;
    Bus.request bus ~client:0 ~now:0 ~cost:10
  in
  Alcotest.(check int) "victim unaffected by attacker load" (run ~attacker_ops:0) (run ~attacker_ops:500)

(* ---------- Cache ---------- *)

let line = 64

let test_cache_hit_miss () =
  let c = Cache.create ~sets:16 ~ways:4 ~line_bits:6 ~mode:Cache.Shared ~domains:2 in
  Alcotest.(check bool) "first access misses" true (Cache.access c ~domain:0 ~addr:0x1000 = Cache.Miss);
  Alcotest.(check bool) "second access hits" true (Cache.access c ~domain:0 ~addr:0x1000 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~domain:0 ~addr:0x103F = Cache.Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c ~domain:0 ~addr:0x1040 = Cache.Miss);
  let s = Cache.stats c ~domain:0 in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 ~line_bits:6 ~mode:Cache.Shared ~domains:1 in
  ignore (Cache.access c ~domain:0 ~addr:0);
  ignore (Cache.access c ~domain:0 ~addr:line);
  ignore (Cache.access c ~domain:0 ~addr:0);
  (* Fill a third line: LRU (line 64) is evicted, line 0 survives. *)
  ignore (Cache.access c ~domain:0 ~addr:(2 * line));
  Alcotest.(check bool) "line 0 survives" true (Cache.access c ~domain:0 ~addr:0 = Cache.Hit);
  Alcotest.(check bool) "line 64 evicted" true (Cache.access c ~domain:0 ~addr:line = Cache.Miss)

(* The §3.2/§4.2 story in miniature: under a shared cache an attacker
   observes the victim's activity via evictions; under hard partitioning
   the attacker's hit rate is independent of the victim. *)
let prime_probe ~mode ~victim_active =
  let c = Cache.create ~sets:16 ~ways:4 ~line_bits:6 ~mode ~domains:2 in
  (* Prime: attacker (domain 0) fills sets with its own lines. *)
  let stride = 16 * 64 in
  for i = 0 to 63 do
    ignore (Cache.access c ~domain:0 ~addr:(i * stride / 4 * 4));
    ignore (Cache.access c ~domain:0 ~addr:(i mod 16 * 64))
  done;
  (* Victim (domain 1) touches memory, or stays idle. *)
  if victim_active then
    for i = 0 to 255 do
      ignore (Cache.access c ~domain:1 ~addr:(0x100000 + (i * 64)))
    done;
  (* Probe: attacker re-touches its lines and counts misses. *)
  let misses = ref 0 in
  for i = 0 to 15 do
    if Cache.access c ~domain:0 ~addr:(i * 64) = Cache.Miss then incr misses
  done;
  !misses

let test_cache_shared_leaks () =
  let idle = prime_probe ~mode:Cache.Shared ~victim_active:false in
  let active = prime_probe ~mode:Cache.Shared ~victim_active:true in
  Alcotest.(check bool)
    (Printf.sprintf "shared cache leaks activity (idle=%d active=%d)" idle active)
    true (active > idle)

let test_cache_hard_partition_no_leak () =
  let idle = prime_probe ~mode:Cache.Hard ~victim_active:false in
  let active = prime_probe ~mode:Cache.Hard ~victim_active:true in
  Alcotest.(check int) "hard partition: victim invisible" idle active

let test_cache_soft_partition_fills_confined () =
  let c = Cache.create ~sets:4 ~ways:4 ~line_bits:6 ~mode:Cache.Soft ~domains:2 in
  (* Domain 1 fills; its lines land only in ways 2..3. *)
  for i = 0 to 31 do
    ignore (Cache.access c ~domain:1 ~addr:(i * 4 * 64))
  done;
  Alcotest.(check bool) "occupancy bounded by its ways" true (Cache.occupancy c ~domain:1 <= 2 * 4);
  (* But cross-domain read hits are possible (the leak CAT keeps). *)
  ignore (Cache.access c ~domain:1 ~addr:0x5000);
  Alcotest.(check bool) "soft: foreign hit allowed" true (Cache.access c ~domain:0 ~addr:0x5000 = Cache.Hit)

let test_cache_flush_domain () =
  let c = Cache.create ~sets:16 ~ways:4 ~line_bits:6 ~mode:Cache.Hard ~domains:2 in
  ignore (Cache.access c ~domain:0 ~addr:0);
  ignore (Cache.access c ~domain:1 ~addr:0x40);
  Cache.flush_domain c 0;
  Alcotest.(check int) "domain 0 flushed" 0 (Cache.occupancy c ~domain:0);
  Alcotest.(check int) "domain 1 intact" 1 (Cache.occupancy c ~domain:1)

let test_cache_partition_sizes () =
  let c = Cache.create ~sets:16 ~ways:16 ~line_bits:6 ~mode:Cache.Hard ~domains:3 in
  let spans = List.map (fun d -> Cache.fill_ways c ~domain:d) [ 0; 1; 2 ] in
  let total = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 spans in
  Alcotest.(check int) "ways fully distributed" 16 total;
  List.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) (Printf.sprintf "domain %d nonempty" i) true (hi > lo))
    spans

(* ---------- Alloc ---------- *)

let make_alloc () =
  let m = Physmem.create ~size:(16 * mb) in
  (m, Alloc.init m ~base:0x10000 ~heap_base:(8 * mb) ~heap_size:(8 * mb) ~max_entries:64)

let test_alloc_basic () =
  let m, a = make_alloc () in
  let b1 = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 0) 5000) in
  let b2 = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 1) 100) in
  Alcotest.(check bool) "distinct" true (b1 <> b2);
  Alcotest.(check bool) "owner set" true (Physmem.owner_equal (Physmem.Nf 0) (Physmem.owner_of m b1));
  Alcotest.(check int) "two live" 2 (List.length (Alloc.live a));
  Alcotest.(check string) "magic in DRAM" Alloc.magic (Physmem.read_bytes m ~pos:(Alloc.metadata_base a) ~len:8);
  Alloc.free a b1;
  Alcotest.(check int) "one live" 1 (List.length (Alloc.live a));
  Alcotest.(check bool) "pages freed" true (Physmem.owner_equal Physmem.Free (Physmem.owner_of m b1))

let test_alloc_reuse_and_exhaustion () =
  let _, a = make_alloc () in
  let b1 = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os 4096) in
  Alloc.free a b1;
  let b2 = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os 4096) in
  Alcotest.(check int) "slot reused" b1 b2;
  Alcotest.(check bool) "oversized alloc fails" true (Alloc.alloc a ~owner:Physmem.Nic_os (9 * mb) = None)

let test_alloc_metadata_scannable () =
  (* What the attacks do: find a victim buffer by walking raw DRAM. *)
  let m, a = make_alloc () in
  let victim = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 7) 2048) in
  let base = Alloc.metadata_base a in
  let n = Physmem.read_u64 m (base + 8) in
  let found = ref None in
  for i = 0 to n - 1 do
    let d = base + 16 + (i * Alloc.desc_size) in
    let owner = Physmem.read_u64 m d in
    if owner = 8 (* NF 7 + 1 *) && Physmem.read_u64 m (d + 24) = 1 then found := Some (Physmem.read_u64 m (d + 8))
  done;
  Alcotest.(check (option int)) "victim buffer located by scan" (Some victim) !found

(* ---------- Pktio ---------- *)

let udp_frame ?(dport = 9000) () =
  let p =
    Net.Packet.make ~src_ip:(Net.Ipv4_addr.of_string "10.0.0.1") ~dst_ip:(Net.Ipv4_addr.of_string "10.0.0.2")
      ~proto:Net.Packet.Udp ~src_port:1111 ~dst_port:dport "payload!"
  in
  Net.Packet.serialize p

let make_pktio () =
  let m = Physmem.create ~size:(32 * mb) in
  let a = Alloc.init m ~base:0x10000 ~heap_base:(16 * mb) ~heap_size:(16 * mb) ~max_entries:256 in
  (m, Pktio.create m a ~rx_buffer_bytes:(2 * mb) ~tx_buffer_bytes:(2 * mb))

let test_pktio_delivery () =
  let m, io = make_pktio () in
  Alcotest.(check bool) "reserve" true (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536 = Ok ());
  Pktio.add_rule io ~m:{ Pktio.match_any with dst_port = Some 9000 } ~nf:0;
  (match Pktio.deliver io (udp_frame ()) with
  | Ok nf -> Alcotest.(check int) "routed to NF 0" 0 nf
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "queued" 1 (Pktio.rx_depth io ~nf:0);
  match Pktio.rx_pop io ~nf:0 with
  | Some (addr, len) ->
    Alcotest.(check int) "length preserved" (Bytes.length (udp_frame ())) len;
    let frame = Physmem.read_bytes m ~pos:addr ~len in
    Alcotest.(check bool) "parses" true (Result.is_ok (Net.Packet.parse (Bytes.of_string frame)));
    Pktio.transmit io ~nf:0 ~addr ~len;
    Alcotest.(check int) "on wire" 1 (List.length (Pktio.wire_out io))
  | None -> Alcotest.fail "no descriptor"

let test_pktio_no_rule_drops () =
  let _, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536);
  (match Pktio.deliver io (udp_frame ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected drop");
  Alcotest.(check int) "drop counted" 1 (Pktio.drop_count io)

let test_pktio_rule_priority () =
  let _, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:0 ~rx_bytes:65536 ~tx_bytes:65536);
  ignore (Pktio.reserve io ~nf:1 ~rx_bytes:65536 ~tx_bytes:65536);
  Pktio.add_rule io ~m:{ Pktio.match_any with dst_port = Some 9000 } ~nf:0;
  Pktio.add_rule io ~m:Pktio.match_any ~nf:1;
  Alcotest.(check bool) "specific rule first" true (Pktio.deliver io (udp_frame ()) = Ok 0);
  Alcotest.(check bool) "fallback rule" true (Pktio.deliver io (udp_frame ~dport:80 ()) = Ok 1)

let test_pktio_vni_match () =
  let _, io = make_pktio () in
  ignore (Pktio.reserve io ~nf:2 ~rx_bytes:65536 ~tx_bytes:65536);
  Pktio.add_rule io ~m:{ Pktio.match_any with vni = Some 42 } ~nf:2;
  let inner =
    Net.Packet.make ~src_ip:(Net.Ipv4_addr.of_string "192.168.0.1") ~dst_ip:(Net.Ipv4_addr.of_string "192.168.0.2")
      ~proto:Net.Packet.Tcp ~src_port:1 ~dst_port:2 "x"
  in
  let outer =
    Net.Vxlan.encapsulate ~vni:42 ~outer_src_ip:(Net.Ipv4_addr.of_string "172.16.0.1")
      ~outer_dst_ip:(Net.Ipv4_addr.of_string "172.16.0.2") inner
  in
  Alcotest.(check bool) "vni routed" true (Pktio.deliver io (Net.Packet.serialize outer) = Ok 2);
  (* Same outer flow, different VNI: no match. *)
  let outer43 =
    Net.Vxlan.encapsulate ~vni:43 ~outer_src_ip:(Net.Ipv4_addr.of_string "172.16.0.1")
      ~outer_dst_ip:(Net.Ipv4_addr.of_string "172.16.0.2") inner
  in
  Alcotest.(check bool) "other vni dropped" true (Result.is_error (Pktio.deliver io (Net.Packet.serialize outer43)))

let test_pktio_reservation_accounting () =
  let _, io = make_pktio () in
  let cap = Pktio.rx_available io in
  Alcotest.(check bool) "reserve ok" true (Pktio.reserve io ~nf:0 ~rx_bytes:(cap - 100) ~tx_bytes:0 = Ok ());
  (match Pktio.reserve io ~nf:1 ~rx_bytes:200 ~tx_bytes:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "over-reservation accepted");
  Pktio.release io ~nf:0;
  Alcotest.(check int) "space returned" cap (Pktio.rx_available io);
  Alcotest.(check bool) "double pipeline rejected" true
    (Pktio.reserve io ~nf:1 ~rx_bytes:10 ~tx_bytes:10 = Ok ()
    && Pktio.reserve io ~nf:1 ~rx_bytes:10 ~tx_bytes:10 = Error "NF already has a packet pipeline")

(* ---------- Accel ---------- *)

let test_accel_clusters () =
  let a = Accel.create ~kind:Accel.Dpi ~threads:64 ~cluster_size:16 in
  Alcotest.(check int) "clusters" 4 (Accel.cluster_count a);
  Alcotest.(check int) "all free" 4 (Accel.free_clusters a);
  let c0 = Option.get (Accel.claim_cluster a ~nf:0) in
  let c1 = Option.get (Accel.claim_cluster a ~nf:1) in
  Alcotest.(check bool) "distinct clusters" true (c0 <> c1);
  Alcotest.(check (option int)) "owner recorded" (Some 0) (Accel.cluster_owner a ~cluster:c0);
  Accel.release_clusters a ~nf:0;
  Alcotest.(check (option int)) "released" None (Accel.cluster_owner a ~cluster:c0);
  Alcotest.(check int) "three free" 3 (Accel.free_clusters a)

let test_accel_exhaustion () =
  let a = Accel.create ~kind:Accel.Zip ~threads:32 ~cluster_size:16 in
  ignore (Accel.claim_cluster a ~nf:0);
  ignore (Accel.claim_cluster a ~nf:1);
  Alcotest.(check (option int)) "no cluster left" None (Accel.claim_cluster a ~nf:2)

let test_accel_throughput_scaling () =
  (* More threads => more parallel service => earlier completion of a
     batch of large requests. *)
  let finish ~threads =
    let a = Accel.create ~kind:Accel.Dpi ~threads ~cluster_size:threads in
    let last = ref 0 in
    for _ = 1 to 200 do
      last := max !last (Accel.submit a ~cluster:0 ~now:0 ~bytes:9000)
    done;
    !last
  in
  let t16 = finish ~threads:16 and t48 = finish ~threads:48 in
  Alcotest.(check bool) (Printf.sprintf "48 threads faster (%d vs %d)" t48 t16) true (t48 * 2 < t16)

let test_accel_service_order () =
  let a = Accel.create ~kind:Accel.Raid ~threads:2 ~cluster_size:2 in
  let c1 = Accel.submit a ~cluster:0 ~now:0 ~bytes:100 in
  let c2 = Accel.submit a ~cluster:0 ~now:0 ~bytes:100 in
  Alcotest.(check int) "two threads run in parallel" c1 c2;
  let c3 = Accel.submit a ~cluster:0 ~now:0 ~bytes:100 in
  Alcotest.(check bool) "third waits" true (c3 > c1)

(* ---------- DMA ---------- *)

let test_dma_unchecked () =
  let nic = Physmem.create ~size:(4 * mb) in
  let host = Physmem.create ~size:(4 * mb) in
  let d = Dma.create ~nic_mem:nic ~host_mem:host ~banks:2 in
  Physmem.write_bytes nic ~pos:0x1000 "secret-from-nic";
  (match Dma.transfer ~checked:false d ~bank:0 ~direction:Dma.To_host ~nic_addr:0x1000 ~host_addr:0x2000 ~len:15 with
  | Ok () -> Alcotest.(check string) "copied" "secret-from-nic" (Physmem.read_bytes host ~pos:0x2000 ~len:15)
  | Error e -> Alcotest.fail (Dma.error_to_string e))

let test_dma_checked_windows () =
  let nic = Physmem.create ~size:(4 * mb) in
  let host = Physmem.create ~size:(4 * mb) in
  let d = Dma.create ~nic_mem:nic ~host_mem:host ~banks:1 in
  (* Window: NIC [0x100000,0x110000) visible at vaddr 0x0; host
     [0x200000,0x210000) at vaddr 0x0. *)
  Tlb.install (Dma.up_tlb d ~bank:0) { Tlb.vbase = 0; pbase = 0x100000; size = 0x10000; writable = true };
  Tlb.install (Dma.down_tlb d ~bank:0) { Tlb.vbase = 0; pbase = 0x200000; size = 0x10000; writable = true };
  Physmem.write_bytes nic ~pos:0x100040 "windowed";
  (match Dma.transfer ~checked:true d ~bank:0 ~direction:Dma.To_host ~nic_addr:0x40 ~host_addr:0x80 ~len:8 with
  | Ok () -> Alcotest.(check string) "through window" "windowed" (Physmem.read_bytes host ~pos:0x200080 ~len:8)
  | Error e -> Alcotest.fail (Dma.error_to_string e));
  (* Outside the window: rejected. *)
  match Dma.transfer ~checked:true d ~bank:0 ~direction:Dma.To_host ~nic_addr:0x20000 ~host_addr:0x80 ~len:8 with
  | Error (Dma.Violation "DMA window violation") -> ()
  | Ok () -> Alcotest.fail "window escape"
  | Error e -> Alcotest.failf "unexpected: %s" (Dma.error_to_string e)

(* ---------- Machine access-control matrix ---------- *)

(* Build a machine with two NFs materialized the commodity way: buffers
   allocated, core bound, TLB mapped. Returns (machine, nf0 buffer paddr,
   nf1 buffer paddr). *)
let setup_machine mode =
  let m = Machine.create (Machine.default_config ~mode) in
  let alloc = Machine.alloc m in
  let b0 = Option.get (Alloc.alloc alloc ~owner:(Physmem.Nf 0) 8192) in
  let b1 = Option.get (Alloc.alloc alloc ~owner:(Physmem.Nf 1) 8192) in
  Machine.bind_core m ~core:0 ~nf:0;
  Machine.bind_core m ~core:1 ~nf:1;
  Tlb.install (Machine.core_tlb m ~core:0) { Tlb.vbase = 0x10000000; pbase = b0; size = 8192; writable = true };
  Tlb.install (Machine.core_tlb m ~core:1) { Tlb.vbase = 0x10000000; pbase = b1; size = 8192; writable = true };
  if mode = Machine.Bluefield then begin
    (* NF state lives in secure-world memory. *)
    Machine.set_secure m ~pos:b0 ~len:8192 true;
    Machine.set_secure m ~pos:b1 ~len:8192 true
  end;
  (m, b0, b1)

let can r = Result.is_ok r

let test_machine_own_memory_always_works () =
  List.iter
    (fun mode ->
      let m, _, _ = setup_machine mode in
      let name = Machine.mode_name mode in
      Alcotest.(check bool) (name ^ ": NF writes own memory via TLB") true
        (can (Machine.store_u8 m (Machine.Nf_code 0) (Machine.Virt { core = 0; vaddr = 0x10000000 }) 0x42));
      Alcotest.(check (result int reject)) (name ^ ": NF reads it back")
        (Ok 0x42)
        (match Machine.load_u8 m (Machine.Nf_code 0) (Machine.Virt { core = 0; vaddr = 0x10000000 }) with
        | Ok v -> Ok v
        | Error e -> Alcotest.failf "unexpected fault: %s" (Machine.fault_to_string e)))
    [ Machine.Liquidio_se_s; Machine.Liquidio_se_um { nf_xkphys = true }; Machine.Agilio; Machine.Bluefield; Machine.Snic ]

let test_machine_cross_nf_matrix () =
  (* NF 0 tries to read NF 1's buffer by physical address. *)
  let attempt mode =
    let m, _, b1 = setup_machine mode in
    can (Machine.load_u8 m (Machine.Nf_code 0) (Machine.Phys b1))
  in
  Alcotest.(check bool) "LiquidIO SE-S: cross-NF read succeeds" true (attempt Machine.Liquidio_se_s);
  Alcotest.(check bool) "LiquidIO SE-UM + xkphys: succeeds" true (attempt (Machine.Liquidio_se_um { nf_xkphys = true }));
  Alcotest.(check bool) "LiquidIO SE-UM w/o xkphys: blocked" false (attempt (Machine.Liquidio_se_um { nf_xkphys = false }));
  Alcotest.(check bool) "Agilio: succeeds" true (attempt Machine.Agilio);
  Alcotest.(check bool) "BlueField: blocked (secure world)" false (attempt Machine.Bluefield);
  Alcotest.(check bool) "S-NIC: blocked (single owner)" false (attempt Machine.Snic)

let test_machine_os_snooping_matrix () =
  (* The NIC OS tries to read an NF's buffer. Only S-NIC repels it. *)
  let attempt mode =
    let m, b0, _ = setup_machine mode in
    can (Machine.load_u8 m Machine.Os (Machine.Phys b0))
  in
  List.iter
    (fun mode -> Alcotest.(check bool) (Machine.mode_name mode ^ ": OS snoops NF memory") true (attempt mode))
    [ Machine.Liquidio_se_s; Machine.Liquidio_se_um { nf_xkphys = false }; Machine.Agilio; Machine.Bluefield ];
  Alcotest.(check bool) "S-NIC: denylist blocks the OS" false (attempt Machine.Snic)

let test_machine_snic_os_keeps_own_memory () =
  let m, _, _ = setup_machine Machine.Snic in
  (* The allocator metadata belongs to the OS and stays accessible. *)
  let meta = Alloc.metadata_base (Machine.alloc m) in
  Alcotest.(check bool) "OS reads own metadata" true (can (Machine.load_u8 m Machine.Os (Machine.Phys meta)));
  (* Free memory is fine too. *)
  Alcotest.(check bool) "OS reads free memory" true (can (Machine.load_u8 m Machine.Os (Machine.Phys 0x500000)))

let test_machine_tlb_fault () =
  let m, _, _ = setup_machine Machine.Snic in
  match Machine.load_u8 m (Machine.Nf_code 0) (Machine.Virt { core = 0; vaddr = 0x99999000 }) with
  | Error (Machine.Tlb_fault _) -> ()
  | _ -> Alcotest.fail "expected TLB fault"

let test_machine_core_binding () =
  let m, _, _ = setup_machine Machine.Snic in
  Alcotest.(check (option int)) "core 0 bound" (Some 0) (Machine.core_owner m ~core:0);
  Alcotest.check_raises "rebind conflict" (Invalid_argument "Machine.bind_core: core 0 is bound to NF 0") (fun () ->
      Machine.bind_core m ~core:0 ~nf:5);
  Machine.unbind_cores m ~nf:0;
  Alcotest.(check (option int)) "released" None (Machine.core_owner m ~core:0);
  Alcotest.(check int) "free core count" 15 (List.length (Machine.free_cores m))

let suite =
  [
    Alcotest.test_case "physmem read/write" `Quick test_physmem_rw;
    Alcotest.test_case "physmem cross-page u64" `Quick test_physmem_cross_page;
    Alcotest.test_case "physmem zero range" `Quick test_physmem_zero_range;
    Alcotest.test_case "physmem ownership" `Quick test_physmem_ownership;
    Alcotest.test_case "physmem pages_owned sorted" `Quick test_physmem_pages_owned_sorted;
    Alcotest.test_case "physmem overflow-safe bounds" `Quick test_physmem_check_overflow;
    Alcotest.test_case "physmem bulk blits + sparse fill" `Quick test_physmem_bulk_blits;
    Alcotest.test_case "tlb translate" `Quick test_tlb_translate;
    Alcotest.test_case "tlb translate_run" `Quick test_tlb_translate_run;
    Alcotest.test_case "tlb validation" `Quick test_tlb_validation;
    Alcotest.test_case "tlb lock" `Quick test_tlb_lock;
    Alcotest.test_case "bus free-for-all queues" `Quick test_bus_free_for_all;
    Alcotest.test_case "bus temporal slots" `Quick test_bus_temporal_slots;
    Alcotest.test_case "bus dead time" `Quick test_bus_temporal_dead_time;
    Alcotest.test_case "bus temporal isolation" `Quick test_bus_temporal_isolation_guarantee;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache shared leaks (prime+probe)" `Quick test_cache_shared_leaks;
    Alcotest.test_case "cache hard partition no leak" `Quick test_cache_hard_partition_no_leak;
    Alcotest.test_case "cache soft partition" `Quick test_cache_soft_partition_fills_confined;
    Alcotest.test_case "cache flush domain" `Quick test_cache_flush_domain;
    Alcotest.test_case "cache partition sizes" `Quick test_cache_partition_sizes;
    Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
    Alcotest.test_case "alloc reuse/exhaustion" `Quick test_alloc_reuse_and_exhaustion;
    Alcotest.test_case "alloc metadata scannable" `Quick test_alloc_metadata_scannable;
    Alcotest.test_case "pktio delivery" `Quick test_pktio_delivery;
    Alcotest.test_case "pktio drops unmatched" `Quick test_pktio_no_rule_drops;
    Alcotest.test_case "pktio rule priority" `Quick test_pktio_rule_priority;
    Alcotest.test_case "pktio vxlan vni match" `Quick test_pktio_vni_match;
    Alcotest.test_case "pktio reservations" `Quick test_pktio_reservation_accounting;
    Alcotest.test_case "accel clusters" `Quick test_accel_clusters;
    Alcotest.test_case "accel exhaustion" `Quick test_accel_exhaustion;
    Alcotest.test_case "accel throughput scaling" `Quick test_accel_throughput_scaling;
    Alcotest.test_case "accel parallel service" `Quick test_accel_service_order;
    Alcotest.test_case "accel stream via cluster TLB" `Quick test_accel_stream;
    Alcotest.test_case "dma unchecked" `Quick test_dma_unchecked;
    Alcotest.test_case "dma checked windows" `Quick test_dma_checked_windows;
    Alcotest.test_case "machine: own memory ok in all modes" `Quick test_machine_own_memory_always_works;
    Alcotest.test_case "machine: cross-NF matrix" `Quick test_machine_cross_nf_matrix;
    Alcotest.test_case "machine: OS snooping matrix" `Quick test_machine_os_snooping_matrix;
    Alcotest.test_case "machine: S-NIC OS keeps own memory" `Quick test_machine_snic_os_keeps_own_memory;
    Alcotest.test_case "machine: TLB fault" `Quick test_machine_tlb_fault;
    Alcotest.test_case "machine: core binding" `Quick test_machine_core_binding;
  ]

(* ---------- page tables (the §4.2 alternate design) ---------- *)

let test_pagetable_map_walk () =
  let m = Physmem.create ~size:(8 * mb) in
  let next = ref 0x100000 in
  let alloc () =
    let p = !next in
    next := !next + 4096;
    p
  in
  let root = Pagetable.create m ~alloc in
  Pagetable.map m ~alloc ~root ~vaddr:0x00400000 ~paddr:0x200000 ~writable:true;
  Pagetable.map m ~alloc ~root ~vaddr:0x00401000 ~paddr:0x300000 ~writable:false;
  Alcotest.(check (option int)) "read through" (Some 0x200123)
    (Pagetable.walk m ~root ~vaddr:0x00400123 ~access:Pagetable.Read);
  Alcotest.(check (option int)) "write allowed" (Some 0x200000)
    (Pagetable.walk m ~root ~vaddr:0x00400000 ~access:Pagetable.Write);
  Alcotest.(check (option int)) "ro read ok" (Some 0x300040)
    (Pagetable.walk m ~root ~vaddr:0x00401040 ~access:Pagetable.Read);
  Alcotest.(check (option int)) "ro write denied" None
    (Pagetable.walk m ~root ~vaddr:0x00401040 ~access:Pagetable.Write);
  Alcotest.(check (option int)) "unmapped" None (Pagetable.walk m ~root ~vaddr:0x00900000 ~access:Pagetable.Read);
  Alcotest.check_raises "double map" (Invalid_argument "Pagetable.map: vaddr already mapped") (fun () ->
      Pagetable.map m ~alloc ~root ~vaddr:0x00400000 ~paddr:0x500000 ~writable:true)

let test_pagetable_range_and_costs () =
  let m = Physmem.create ~size:(16 * mb) in
  let next = ref 0x100000 in
  let alloc () =
    let p = !next in
    next := !next + 4096;
    p
  in
  let root = Pagetable.create m ~alloc in
  let pages = Pagetable.map_range m ~alloc ~root ~vaddr:0x00400000 ~paddr:0x800000 ~len:(1 lsl 20) ~writable:true in
  Alcotest.(check int) "256 PTEs for 1MB" 256 pages;
  (* Every page translates. *)
  for i = 0 to 255 do
    Alcotest.(check (option int))
      (Printf.sprintf "page %d" i)
      (Some (0x800000 + (i * 4096)))
      (Pagetable.walk m ~root ~vaddr:(0x00400000 + (i * 4096)) ~access:Pagetable.Read)
  done;
  Alcotest.(check int) "walk cost" 2 Pagetable.walk_dram_refs;
  (* 1 MB within one 2MB L1 slot: root + one L2 table. *)
  Alcotest.(check int) "table pages" 2 (Pagetable.table_pages_for ~vaddr:0x00400000 ~len:(1 lsl 20));
  (* The paper's Monitor (361 MB): ~181 L2 tables + root. *)
  Alcotest.(check int) "monitor-sized tables" 182 (Pagetable.table_pages_for ~vaddr:0 ~len:(361 * 1024 * 1024))

let suite =
  suite
  @ [
      Alcotest.test_case "pagetable map/walk" `Quick test_pagetable_map_walk;
      Alcotest.test_case "pagetable range/costs" `Quick test_pagetable_range_and_costs;
    ]

let test_alloc_reuse_preserves_slot_extent () =
  let m = Physmem.create ~size:(16 * mb) in
  let a = Alloc.init m ~base:0x10000 ~heap_base:(8 * mb) ~heap_size:(8 * mb) ~max_entries:64 in
  (* Allocate big, free, reallocate small into the same slot: the slot
     must keep its full extent so freeing the small allocation releases
     everything and a later big allocation fits again. *)
  let big = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os (64 * 1024)) in
  Alloc.free a big;
  let small = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os 4096) in
  Alcotest.(check int) "slot reused" big small;
  (match Alloc.live a with
  | [ (_, _, len) ] -> Alcotest.(check int) "slot extent preserved" (64 * 1024) len
  | l -> Alcotest.failf "expected one live, got %d" (List.length l));
  Alloc.free a small;
  let big2 = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os (64 * 1024)) in
  Alcotest.(check int) "big allocation fits in the recycled slot" big big2

let suite = suite @ [ Alcotest.test_case "alloc reuse keeps slot extent" `Quick test_alloc_reuse_preserves_slot_extent ]

(* Regression for the order-insensitivity claims on [Pktio]'s
   [Hashtbl.fold] sums (pktio.ml): reserved_rx/reserved_tx must not
   depend on reservation insertion order, including after releases
   perturb the table's internal layout. *)
let test_pktio_reserved_order_insensitive () =
  let reservations = [ (0, 4096, 8192); (1, 65536, 1024); (2, 16384, 16384); (3, 1024, 4096); (4, 8192, 2048) ] in
  let build order =
    let _, io = make_pktio () in
    List.iter
      (fun (nf, rx, tx) ->
        match Pktio.reserve io ~nf ~rx_bytes:rx ~tx_bytes:tx with
        | Ok () -> ()
        | Error e -> Alcotest.failf "reserve nf=%d: %s" nf e)
      order;
    io
  in
  let fwd = build reservations in
  let rev = build (List.rev reservations) in
  Alcotest.(check int) "reserved_rx order-insensitive" (Pktio.reserved_rx fwd) (Pktio.reserved_rx rev);
  Alcotest.(check int) "reserved_tx order-insensitive" (Pktio.reserved_tx fwd) (Pktio.reserved_tx rev);
  (* Release a middle entry in both and re-compare: deletion rehashing
     must not change the sums either. *)
  Pktio.release fwd ~nf:2;
  Pktio.release rev ~nf:2;
  Alcotest.(check int) "reserved_rx after release" (Pktio.reserved_rx fwd) (Pktio.reserved_rx rev);
  Alcotest.(check int) "reserved_tx after release" (Pktio.reserved_tx fwd) (Pktio.reserved_tx rev);
  Alcotest.(check int) "rx_available after release" (Pktio.rx_available fwd) (Pktio.rx_available rev);
  Alcotest.(check int) "tx_available after release" (Pktio.tx_available fwd) (Pktio.tx_available rev)

let suite =
  suite @ [ Alcotest.test_case "pktio reserved sums ignore insertion order" `Quick test_pktio_reserved_order_insensitive ]

(* ---------- Alloc: DRAM is the only copy of allocator state ---------- *)

(* The descriptor of the live buffer at [addr], located the way the §3.3
   attacks locate one: by walking the raw metadata. *)
let desc_of m a addr =
  let base = Alloc.metadata_base a in
  let rec go i =
    if i >= Physmem.read_u64 m (base + 8) then Alcotest.failf "no descriptor for %#x" addr
    else begin
      let d = base + 16 + (i * Alloc.desc_size) in
      if Physmem.read_u64 m (d + 8) = addr && Physmem.read_u64 m (d + 24) = 1 then d else go (i + 1)
    end
  in
  go 0

let test_alloc_follows_bit_rot () =
  let m, a = make_alloc () in
  let pre = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 0) 4096) in
  let victim = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 1) 4096) in
  ignore (Alloc.alloc a ~owner:(Physmem.Nf 2) 4096);
  (* Rot clears the victim's in_use bit: the firmware now sees a free
     slot, whatever any earlier walk saw. *)
  Physmem.flip_bit m ~pos:(desc_of m a victim + 24) ~bit:0;
  Alcotest.(check bool) "live no longer lists the victim" false
    (List.exists (fun (_, addr, _) -> addr = victim) (Alloc.live a));
  Alcotest.(check int) "two still live" 2 (List.length (Alloc.live a));
  Alcotest.(check (option int)) "next alloc reuses the rotted slot" (Some victim)
    (Alloc.alloc a ~owner:(Physmem.Nf 3) 4096);
  Alcotest.(check bool) "victim's page handed to the new owner" true
    (Physmem.owner_equal (Physmem.Nf 3) (Physmem.owner_of m victim));
  Alcotest.(check bool) "untouched buffer keeps its owner" true
    (Physmem.owner_equal (Physmem.Nf 0) (Physmem.owner_of m pre))

(* An NF stores a victim's address into a free descriptor. Commodity
   firmware follows the poisoned table and hands the victim's page to
   the next caller; S-NIC refuses the store, so the table stays sound. *)
let test_alloc_follows_nf_store () =
  let poisoned mode =
    let m = Machine.create (Machine.default_config ~mode) in
    let a = Machine.alloc m in
    let spare = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 0) 4096) in
    let victim = Option.get (Alloc.alloc a ~owner:(Physmem.Nf 1) 4096) in
    let d = desc_of (Machine.mem m) a spare in
    Alloc.free a spare;
    let store = Machine.store_u64 m (Machine.Nf_code 0) (Machine.Phys (d + 8)) victim in
    (store, spare, victim, Alloc.alloc a ~owner:(Physmem.Nf 0) 4096)
  in
  (match poisoned Machine.Agilio with
  | Ok (), _, victim, got -> Alcotest.(check (option int)) "Agilio: alloc returns the victim's buffer" (Some victim) got
  | Error e, _, _, _ -> Alcotest.failf "Agilio: store refused: %s" (Machine.fault_to_string e));
  match poisoned Machine.Snic with
  | Error (Machine.Denied _), spare, _, got -> Alcotest.(check (option int)) "S-NIC: alloc unaffected" (Some spare) got
  | Error e, _, _, _ -> Alcotest.failf "S-NIC: wrong fault: %s" (Machine.fault_to_string e)
  | Ok (), _, _, _ -> Alcotest.fail "S-NIC: NF store into allocator metadata was allowed"

(* The walk copies descriptors a page at a time: with 256 live buffers,
   an alloc plus a free of the newest walks 513 descriptors for a
   handful of page resolutions, not one per descriptor field. *)
let test_alloc_walk_cost () =
  let m = Physmem.create ~size:(16 * mb) in
  let a = Alloc.init m ~base:0x10000 ~heap_base:(8 * mb) ~heap_size:(8 * mb) ~max_entries:512 in
  for _ = 1 to 256 do
    ignore (Option.get (Alloc.alloc a ~owner:Physmem.Nic_os 4096))
  done;
  let r0 = Physmem.resolutions m in
  let newest = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os 4096) in
  Alloc.free a newest;
  let cost = Physmem.resolutions m - r0 in
  if cost > 24 then Alcotest.failf "alloc + free over 256 live buffers cost %d page resolutions (ceiling 24)" cost

let suite =
  suite
  @ [
      Alcotest.test_case "alloc follows bit rot in DRAM" `Quick test_alloc_follows_bit_rot;
      Alcotest.test_case "alloc follows NF metadata store" `Quick test_alloc_follows_nf_store;
      Alcotest.test_case "alloc walk cost per page" `Quick test_alloc_walk_cost;
    ]
