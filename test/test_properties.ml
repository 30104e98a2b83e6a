(* Cross-cutting property tests on core invariants, beyond each module's
   own qcheck suites. *)

open Nicsim

(* ---------- bigint algebra on large values ---------- *)

let gen_big = QCheck.map Bigint.of_bytes_be (QCheck.string_of_size (QCheck.Gen.int_range 0 48))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"bigint (a+b)-b = a on large values" ~count:300 (QCheck.pair gen_big gen_big)
    (fun (a, b) -> Bigint.equal a (Bigint.sub (Bigint.add a b) b))

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"bigint shift left then right" ~count:300 (QCheck.pair gen_big (QCheck.int_bound 100))
    (fun (a, k) -> Bigint.equal a (Bigint.shift_right (Bigint.shift_left a k) k))

let prop_mul_commutes =
  QCheck.Test.make ~name:"bigint mul commutes" ~count:200 (QCheck.pair gen_big gen_big) (fun (a, b) ->
      Bigint.equal (Bigint.mul a b) (Bigint.mul b a))

let prop_modpow_matches_naive =
  QCheck.Test.make ~name:"modpow matches naive iteration" ~count:200
    (QCheck.triple (QCheck.int_range 0 50) (QCheck.int_range 0 12) (QCheck.int_range 2 50))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      Bigint.to_int
        (Bigint.modpow ~base:(Bigint.of_int b) ~exponent:(Bigint.of_int e) ~modulus:(Bigint.of_int m))
      = Some !naive)

let prop_bit_length =
  QCheck.Test.make ~name:"bit_length agrees with ints" ~count:300 (QCheck.int_bound max_int) (fun n ->
      let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
      Bigint.bit_length (Bigint.of_int n) = width n 0)

(* ---------- page packing invariants ---------- *)

let menus = [| Costmodel.Page_packing.equal_2mb; Costmodel.Page_packing.flex_low; Costmodel.Page_packing.flex_high |]

let prop_packing_covers =
  QCheck.Test.make ~name:"packing always covers the request" ~count:300
    (QCheck.pair (QCheck.int_bound 2) (QCheck.int_bound 500_000_000))
    (fun (mi, bytes) ->
      let menu = menus.(mi) in
      Costmodel.Page_packing.allocated ~page_sizes:menu [ bytes ] >= bytes
      && Costmodel.Page_packing.waste ~page_sizes:menu [ bytes ] < List.fold_left min max_int menu)

let prop_packing_monotone_entries =
  QCheck.Test.make ~name:"finer menus never need fewer bytes" ~count:200 (QCheck.int_bound 500_000_000)
    (fun bytes ->
      (* Flex-low has the smallest page: its allocation is the tightest. *)
      Costmodel.Page_packing.allocated ~page_sizes:Costmodel.Page_packing.flex_low [ bytes ]
      <= Costmodel.Page_packing.allocated ~page_sizes:Costmodel.Page_packing.equal_2mb [ bytes ])

(* The decomposition maps the allocation with disjoint, exactly-covering
   pages, so the entry count must bracket the allocation between
   [entries x smallest] and [entries x largest] pages, and the allocation
   itself must be page-aligned and a fixed point of re-packing. *)
let prop_packing_entries_bracket_allocation =
  QCheck.Test.make ~name:"packing entries exactly tile the allocation" ~count:300
    (QCheck.pair (QCheck.int_bound 2) (QCheck.int_bound 500_000_000))
    (fun (mi, bytes) ->
      let menu = menus.(mi) in
      let smallest = List.fold_left min max_int menu and largest = List.fold_left max 0 menu in
      let alloc = Costmodel.Page_packing.allocated ~page_sizes:menu [ bytes ] in
      let entries = Costmodel.Page_packing.entries ~page_sizes:menu [ bytes ] in
      alloc mod smallest = 0
      && entries * smallest <= alloc
      && alloc <= entries * largest
      && Costmodel.Page_packing.allocated ~page_sizes:menu [ alloc ] = alloc
      && Costmodel.Page_packing.entries ~page_sizes:menu [ alloc ] = entries)

(* Table 5's point, generalized: over the six Table-6 NF profiles (with
   every region scaled by a common factor), the *largest* per-NF entry
   count — what sizes the locked TLBs — is never worse under Flex-low
   than under Equal-2MB. Note this is a property of the profile set, not
   of single regions: a lone small region can cost Flex-low more entries
   (e.g. 3 MB = 1x2MB + 8x128KB = 9 vs 2 under Equal). *)
let scaled_profiles f =
  List.map
    (fun p -> List.map (fun r -> max 1 (int_of_float (float_of_int r *. f))) (Memprof.Profiles.regions p))
    Memprof.Profiles.nfs

let max_entries_over menu regionss =
  List.fold_left (fun acc rs -> max acc (Costmodel.Page_packing.entries ~page_sizes:menu rs)) 0 regionss

let prop_flex_low_max_entries_le_equal =
  QCheck.Test.make ~name:"flex-low max entries <= equal-2MB over scaled NF profiles" ~count:200
    (QCheck.float_bound_inclusive 7.75)
    (fun df ->
      let rs = scaled_profiles (0.25 +. df) in
      max_entries_over Costmodel.Page_packing.flex_low rs <= max_entries_over Costmodel.Page_packing.equal_2mb rs)

let test_table5_paper_point () =
  Alcotest.(check int) "equal-2MB max entries" 183 (Memprof.Profiles.max_entries ~page_sizes:Costmodel.Page_packing.equal_2mb);
  Alcotest.(check int) "flex-low max entries" 51 (Memprof.Profiles.max_entries ~page_sizes:Costmodel.Page_packing.flex_low)

(* ---------- scheduler ordering properties ---------- *)

let prop_priority_strictness =
  QCheck.Test.make ~name:"priority never serves a lower class before a queued higher one" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60) (QCheck.int_bound 3))
    (fun levels ->
      let s = Sched.create (Sched.Priority { levels = 4 }) in
      List.iteri (fun i l -> Sched.enqueue s { Sched.flow = i; bytes = 10; level = l; weight = 1 } l) levels;
      let order = Sched.drain s in
      let rec sorted = function a :: (b :: _ as rest) -> a <= b && sorted rest | _ -> true in
      sorted order)

(* ---------- TLB translation is a partial injection ---------- *)

let prop_tlb_injective =
  QCheck.Test.make ~name:"tlb never maps two vaddrs to overlapping paddrs" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.pair (QCheck.int_bound 63) (QCheck.int_bound 63)))
    (fun picks ->
      let tlb = Tlb.create () in
      let size = 0x1000 in
      List.iter
        (fun (v, p) ->
          try Tlb.install tlb { Tlb.vbase = v * size; pbase = (64 + p) * size; size; writable = true }
          with Invalid_argument _ -> ())
        picks;
      (* For every mapped vaddr, translation is a function (deterministic)
         and the reverse direction never produces two vaddrs with the
         same paddr unless they came from the same entry. *)
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for v = 0 to (70 * size) - 1 do
        if v mod 997 = 0 then begin
          match Tlb.translate tlb ~vaddr:v ~access:Tlb.Read with
          | None -> ()
          | Some p -> begin
            match Hashtbl.find_opt seen p with
            | Some v' when v' <> v -> ok := false
            | _ -> Hashtbl.replace seen p v
          end
        end
      done;
      !ok)

(* ---------- attestation round-trips under serialization fuzz ---------- *)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrips" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) (QCheck.string_of_size (QCheck.Gen.int_range 0 64)))
    (fun fields ->
      match Snic.Wire.decode ~expect:(List.length fields) (Snic.Wire.encode fields) with
      | Ok got -> got = fields
      | Error _ -> false)

let prop_wire_decode_total =
  QCheck.Test.make ~name:"wire decode is total on junk" ~count:300
    (QCheck.pair (QCheck.int_bound 6) (QCheck.string_of_size (QCheck.Gen.int_range 0 100)))
    (fun (n, junk) -> match Snic.Wire.decode ~expect:n junk with Ok _ | Error _ -> true)

(* Strictness: every proper prefix of a non-empty encoding is a typed
   error (truncated prefix or truncated field), and extending an
   encoding by any byte is a typed error (trailing bytes) — decode
   accepts exactly the image of encode, never via exception. *)
let gen_wire_fields =
  QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.string_of_size (QCheck.Gen.int_range 0 32))

let prop_wire_rejects_truncation =
  QCheck.Test.make ~name:"wire decode rejects every proper prefix" ~count:200
    (QCheck.pair gen_wire_fields (QCheck.int_bound 1000))
    (fun (fields, cut) ->
      let s = Snic.Wire.encode fields in
      let cut = cut mod String.length s in
      match Snic.Wire.decode ~expect:(List.length fields) (String.sub s 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let prop_wire_rejects_trailing =
  QCheck.Test.make ~name:"wire decode rejects trailing garbage" ~count:200
    (QCheck.pair gen_wire_fields QCheck.printable_char)
    (fun (fields, extra) ->
      let s = Snic.Wire.encode fields ^ String.make 1 extra in
      match Snic.Wire.decode ~expect:(List.length fields) s with Error _ -> true | Ok _ -> false)

let prop_wire_rejects_wrong_arity =
  QCheck.Test.make ~name:"wire decode rejects wrong field count" ~count:200 gen_wire_fields (fun fields ->
      let s = Snic.Wire.encode fields in
      let n = List.length fields in
      (match Snic.Wire.decode ~expect:(n - 1) s with Error _ -> true | Ok _ -> false)
      && match Snic.Wire.decode ~expect:(n + 1) s with Error _ -> true | Ok _ -> false)

(* ---------- cipher: distinct nonces, distinct streams ---------- *)

(* ---------- bulk datapath vs the per-byte reference ---------- *)

(* Differential property for the bugfix PR: the page-granular bulk blits
   must be byte-for-byte equivalent to the legacy one-lookup-per-byte
   loop — across random sizes, page-straddling offsets, sparse
   (never-written) pages, and with DRAM bit rot injected through
   [flip_bit] at identical positions in both memories. *)
let prop_bulk_blits_match_perbyte =
  let page = Physmem.page_size in
  let gen =
    QCheck.quad
      (QCheck.int_bound ((3 * page) - 1)) (* write offset, may straddle pages *)
      (QCheck.int_bound (2 * page)) (* write length *)
      (QCheck.string_of_size (QCheck.Gen.return 64)) (* payload seed *)
      (QCheck.small_list (QCheck.pair (QCheck.int_bound ((6 * page) - 1)) (QCheck.int_bound 7)))
    (* bit rot: (pos, bit) *)
  in
  QCheck.Test.make ~name:"bulk blits = per-byte loop (sizes, straddles, sparse, bit rot)" ~count:200 gen
    (fun (off, len, seed, flips) ->
      let size = 8 * page in
      let bulk = Physmem.create ~size in
      let reference = Physmem.create ~size in
      let slen = String.length seed in
      let payload = Bytes.init (max len 1) (fun i -> if slen = 0 then '\000' else seed.[(off + i) mod slen]) in
      (* Write: bulk blit vs per-byte stores. *)
      Physmem.blit_from_bytes bulk ~pos:off payload ~off:0 ~len;
      for i = 0 to len - 1 do
        Physmem.write_u8 reference (off + i) (Char.code (Bytes.get payload i))
      done;
      (* Identical bit rot in both worlds. *)
      List.iter
        (fun (pos, bit) ->
          Physmem.flip_bit bulk ~pos ~bit;
          Physmem.flip_bit reference ~pos ~bit)
        flips;
      (* Read back a larger window including pages neither memory ever
         wrote: bulk read vs per-byte loads must agree everywhere. *)
      let window = 7 * page in
      let got = Physmem.read_bytes bulk ~pos:0 ~len:window in
      let ok = ref true in
      for i = 0 to window - 1 do
        if Char.code got.[i] <> Physmem.read_u8 reference i then ok := false
      done;
      !ok)

(* ---------- allocator walk vs the field-by-field reference ---------- *)

(* The allocator as it was before its walk copied descriptors a page at
   a time: every descriptor field is one [Physmem.read_u64]. Kept here as
   the reference the windowed walk must match, result for result and
   byte for byte, even on metadata that bit rot or raw stores corrupted. *)
module Field_walk = struct
  type t = { mem : Physmem.t; base : int; heap_base : int; heap_size : int; max_entries : int; mutable bump : int }

  let owner_code = function Physmem.Nic_os -> 0 | Physmem.Nf k -> k + 1 | Physmem.Free -> invalid_arg "Alloc: Free owner"

  let init mem ~base ~heap_base ~heap_size ~max_entries =
    let meta_len = 16 + (max_entries * 32) in
    Physmem.write_bytes mem ~pos:base Alloc.magic;
    Physmem.write_u64 mem (base + 8) 0;
    let page = Physmem.page_size in
    let align v = (v + page - 1) land lnot (page - 1) in
    Physmem.set_owner mem ~pos:(base land lnot (page - 1)) ~len:(align meta_len + page) Physmem.Nic_os;
    { mem; base; heap_base; heap_size; max_entries; bump = 0 }

  let entry_count t = Physmem.read_u64 t.mem (t.base + 8)
  let desc_addr t i = t.base + 16 + (i * 32)

  let read_desc t i =
    let d = desc_addr t i in
    ( Physmem.read_u64 t.mem d,
      Physmem.read_u64 t.mem (d + 8),
      Physmem.read_u64 t.mem (d + 16),
      Physmem.read_u64 t.mem (d + 24) )

  let write_desc t i ~owner ~addr ~len ~in_use =
    let d = desc_addr t i in
    Physmem.write_u64 t.mem d owner;
    Physmem.write_u64 t.mem (d + 8) addr;
    Physmem.write_u64 t.mem (d + 16) len;
    Physmem.write_u64 t.mem (d + 24) (if in_use then 1 else 0)

  let page_align v = (v + Physmem.page_size - 1) land lnot (Physmem.page_size - 1)

  let alloc t ?(align = Physmem.page_size) ~owner len =
    if len <= 0 then invalid_arg "Alloc.alloc: non-positive length";
    if align <= 0 || align land (align - 1) <> 0 then invalid_arg "Alloc.alloc: alignment must be a power of two";
    let align = max align Physmem.page_size in
    let alen = page_align len in
    let n = entry_count t in
    let rec find_slot i =
      if i >= n then None
      else begin
        let _, addr, slot_len, in_use = read_desc t i in
        if in_use = 0 && slot_len >= alen && addr land (align - 1) = 0 then Some (i, addr, slot_len)
        else find_slot (i + 1)
      end
    in
    let slot =
      match find_slot 0 with
      | Some s -> Some s
      | None ->
        let start = (t.heap_base + t.bump + align - 1) land lnot (align - 1) in
        let off = start - t.heap_base in
        if off + alen > t.heap_size || n >= t.max_entries then None
        else begin
          t.bump <- off + alen;
          Physmem.write_u64 t.mem (t.base + 8) (n + 1);
          Some (n, start, alen)
        end
    in
    match slot with
    | None -> None
    | Some (i, addr, alen) ->
      write_desc t i ~owner:(owner_code owner) ~addr ~len:alen ~in_use:true;
      Physmem.set_owner t.mem ~pos:addr ~len:alen owner;
      Some addr

  let free t addr =
    let n = entry_count t in
    let rec go i =
      if i >= n then invalid_arg "Alloc.free: unknown address"
      else begin
        let owner, a, len, in_use = read_desc t i in
        if a = addr && in_use = 1 then begin
          write_desc t i ~owner ~addr:a ~len ~in_use:false;
          Physmem.set_owner t.mem ~pos:a ~len Physmem.Free
        end
        else go (i + 1)
      end
    in
    go 0

  let live t =
    let n = entry_count t in
    let rec go i acc =
      if i >= n then List.rev acc
      else begin
        let owner, addr, len, in_use = read_desc t i in
        if in_use = 1 then begin
          let o = if owner = 0 then Physmem.Nic_os else Physmem.Nf (owner - 1) in
          go (i + 1) ((o, addr, len) :: acc)
        end
        else go (i + 1) acc
      end
    in
    go 0 []
end

type alloc_op =
  | Op_alloc of int * int * int (* owner code, length, log2 alignment *)
  | Op_free of int (* picks one of the addresses handed out so far *)
  | Op_free_raw of int
  | Op_live
  | Op_flip of int * int (* metadata byte offset, bit *)
  | Op_poke of int * int (* word: -1 = entry count, else descriptor word index; value *)

let show_alloc_op = function
  | Op_alloc (o, len, al) -> Printf.sprintf "alloc(owner=%d, len=%d, align=2^%d)" o len al
  | Op_free k -> Printf.sprintf "free(#%d)" k
  | Op_free_raw a -> Printf.sprintf "free(%#x)" a
  | Op_live -> "live"
  | Op_flip (off, bit) -> Printf.sprintf "flip(meta+%d, bit %d)" off bit
  | Op_poke (w, v) -> Printf.sprintf "poke(%s, %d)" (if w < 0 then "count" else Printf.sprintf "word %d" w) v

(* A small DRAM whose end is close to the metadata, so corrupted counts
   walk off it. Two of the bases sit off any word boundary, so
   descriptors and walk windows straddle pages and the end of DRAM at
   odd offsets too. *)
let walk_dram = 16 * Physmem.page_size
let walk_max_entries = 40

let prop_alloc_walk_matches_field_walk =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (3, int_range 0 3);
        (3, map (fun p -> p * Physmem.page_size) (int_range (-2) 20));
        (2, int_range (-4) (-1));
        (2, int_range 0 2200) (* entry counts up to and past the end of DRAM *);
        (2, oneofl [ max_int; min_int; max_int / 32; min_int / 32; -(1 lsl 58) ]);
        (2, int);
      ]
  in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun o len al -> Op_alloc (o, len, al))
            (int_range 0 3)
            (int_range 1 (3 * Physmem.page_size))
            (int_range 12 14) );
        (4, map (fun k -> Op_free k) nat);
        (1, map (fun a -> Op_free_raw a) (map (fun p -> p * Physmem.page_size) (int_range 0 16)));
        (2, return Op_live);
        (3, map2 (fun off bit -> Op_flip (off, bit)) (int_range 0 (16 + (walk_max_entries * 32) - 1)) (int_range 0 7));
        (3, map2 (fun w v -> Op_poke (w, v)) (int_range 0 ((walk_max_entries * 4) - 1)) value);
        (1, map (fun v -> Op_poke (-1, v)) value);
      ]
  in
  let gen = pair (oneofl [ 0x1000; 0x1008; 0x1f03; 0x2ff5 ]) (list_size (int_range 1 40) op) in
  let print (base, ops) = Printf.sprintf "base %#x: %s" base (String.concat "; " (List.map show_alloc_op ops)) in
  QCheck.Test.make ~name:"alloc page walk = field-by-field walk under corruption" ~count:500 (QCheck.make ~print gen)
    (fun (base, ops) ->
      let heap_base = 5 * Physmem.page_size in
      let heap_size = walk_dram - heap_base in
      let mem_new = Physmem.create ~size:walk_dram and mem_ref = Physmem.create ~size:walk_dram in
      let a = Alloc.init mem_new ~base ~heap_base ~heap_size ~max_entries:walk_max_entries in
      let r = Field_walk.init mem_ref ~base ~heap_base ~heap_size ~max_entries:walk_max_entries in
      let handed = ref [] in
      let outcome f = match f () with v -> v | exception Invalid_argument msg -> "raised " ^ msg in
      let show_addr = function Some a -> Printf.sprintf "Some %#x" a | None -> "None" in
      let show_live l =
        String.concat "," (List.map (fun (o, addr, len) -> Format.asprintf "%a@%#x+%d" Physmem.pp_owner o addr len) l)
      in
      let step op =
        let both f_new f_ref = (outcome f_new, outcome f_ref) in
        match op with
        | Op_alloc (o, len, al) ->
          let owner = if o = 0 then Physmem.Nic_os else Physmem.Nf (o - 1) and align = 1 lsl al in
          both
            (fun () ->
              let got = Alloc.alloc a ~align ~owner len in
              Option.iter (fun addr -> handed := addr :: !handed) got;
              show_addr got)
            (fun () -> show_addr (Field_walk.alloc r ~align ~owner len))
        | Op_free k | Op_free_raw k ->
          let addr =
            match (op, !handed) with Op_free _, (_ :: _ as h) -> List.nth h (k mod List.length h) | _ -> k
          in
          both (fun () -> Alloc.free a addr; "ok") (fun () -> Field_walk.free r addr; "ok")
        | Op_live -> both (fun () -> show_live (Alloc.live a)) (fun () -> show_live (Field_walk.live r))
        | Op_flip (off, bit) ->
          Physmem.flip_bit mem_new ~pos:(base + off) ~bit;
          Physmem.flip_bit mem_ref ~pos:(base + off) ~bit;
          ("", "")
        | Op_poke (w, v) ->
          let pos = if w < 0 then base + 8 else base + 16 + (8 * w) in
          Physmem.write_u64 mem_new pos v;
          Physmem.write_u64 mem_ref pos v;
          ("", "")
      in
      let rec run = function
        | [] -> true
        | op :: rest ->
          let got, want = step op in
          if got <> want then
            QCheck.Test.fail_reportf "%s: windowed walk gave %S, field walk %S" (show_alloc_op op) got want
          else run rest
      in
      let ops_agree = run ops in
      let dram m = Physmem.read_bytes m ~pos:0 ~len:walk_dram in
      let owners m = List.init (walk_dram / Physmem.page_size) (fun p -> Physmem.owner_of m (p * Physmem.page_size)) in
      ops_agree
      && (dram mem_new = dram mem_ref || QCheck.Test.fail_report "final DRAM bytes differ")
      && (owners mem_new = owners mem_ref || QCheck.Test.fail_report "final page owners differ"))

let prop_cipher_nonce_separation =
  QCheck.Test.make ~name:"cipher keystreams differ across nonces" ~count:100
    (QCheck.string_of_size (QCheck.Gen.int_range 16 64))
    (fun pt ->
      let key = Crypto.Sha256.digest "k" in
      let c1 = Crypto.Cipher.seal ~key ~nonce:1L pt in
      let c2 = Crypto.Cipher.seal ~key ~nonce:2L pt in
      not (String.equal c1 c2))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_add_sub_inverse;
    QCheck_alcotest.to_alcotest prop_shift_roundtrip;
    QCheck_alcotest.to_alcotest prop_mul_commutes;
    QCheck_alcotest.to_alcotest prop_modpow_matches_naive;
    QCheck_alcotest.to_alcotest prop_bit_length;
    QCheck_alcotest.to_alcotest prop_packing_covers;
    QCheck_alcotest.to_alcotest prop_packing_monotone_entries;
    QCheck_alcotest.to_alcotest prop_packing_entries_bracket_allocation;
    QCheck_alcotest.to_alcotest prop_flex_low_max_entries_le_equal;
    Alcotest.test_case "Table 5 paper point (183 vs 51 entries)" `Quick test_table5_paper_point;
    QCheck_alcotest.to_alcotest prop_priority_strictness;
    QCheck_alcotest.to_alcotest prop_tlb_injective;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_decode_total;
    QCheck_alcotest.to_alcotest prop_wire_rejects_truncation;
    QCheck_alcotest.to_alcotest prop_wire_rejects_trailing;
    QCheck_alcotest.to_alcotest prop_wire_rejects_wrong_arity;
    QCheck_alcotest.to_alcotest prop_cipher_nonce_separation;
    QCheck_alcotest.to_alcotest prop_bulk_blits_match_perbyte;
    QCheck_alcotest.to_alcotest prop_alloc_walk_matches_field_walk;
  ]
