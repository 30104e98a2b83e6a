type t = {
  mem : Physmem.t;
  base : int;
  heap_base : int;
  heap_size : int;
  max_entries : int;
  mutable bump : int; (* next free heap offset *)
  window : Bytes.t; (* scratch copy of the descriptors being walked; DRAM holds the state *)
}

let magic = "SNICALOC"
let desc_size = 32
let header_size = 16

(* One walk window: the descriptors one 4 KB page holds. *)
let window_descs = Physmem.page_size / desc_size

let metadata_base t = t.base
let heap_base t = t.heap_base
let heap_size t = t.heap_size

let owner_code = function Physmem.Nic_os -> 0 | Physmem.Nf k -> k + 1 | Physmem.Free -> invalid_arg "Alloc: Free owner"

let init mem ~base ~heap_base ~heap_size ~max_entries =
  let meta_len = header_size + (max_entries * desc_size) in
  Physmem.write_bytes mem ~pos:base magic;
  Physmem.write_u64 mem (base + 8) 0;
  let page = Physmem.page_size in
  let align v = (v + page - 1) land lnot (page - 1) in
  Physmem.set_owner mem ~pos:(base land lnot (page - 1)) ~len:(align meta_len + page) Physmem.Nic_os;
  { mem; base; heap_base; heap_size; max_entries; bump = 0; window = Bytes.create (window_descs * desc_size) }

let entry_count t = Physmem.read_u64 t.mem (t.base + 8)
let set_entry_count t n = Physmem.write_u64 t.mem (t.base + 8) n
let desc_addr t i = t.base + header_size + (i * desc_size)

(* Word [f] (0 owner, 1 addr, 2 len, 3 in_use) of window slot [j],
   decoded as [Physmem.read_u64] does: the low 63 bits. *)
let field t j f = Int64.to_int (Bytes.get_int64_le t.window ((j * desc_size) + (8 * f)))

(* [scan t ~n f] walks descriptors 0 .. n-1 in index order and returns
   the first [Some] of [f i j], where [j] is descriptor [i]'s slot in the
   window. Callers pass the entry count they just read from DRAM, and
   the descriptors are re-read too, up to [window_descs] of them per
   [blit_to_bytes], so a descriptor changed by bit rot or a raw store is
   followed exactly. *)
let scan t ~n f =
  let dram = Physmem.size t.mem in
  let rec from i =
    if i >= n then None
    else begin
      let d = desc_addr t i in
      let k = min (min (n - i) window_descs) ((dram - d) / desc_size) in
      if k = 0 then begin
        (* Only a corrupted entry count walks this far: descriptor [i]
           runs past the end of DRAM. Fail where a field-by-field read
           fails, at its in_use word, which such a read reaches first. *)
        ignore (Physmem.read_u64 t.mem (d + 24));
        assert false
      end;
      Physmem.blit_to_bytes t.mem ~pos:d t.window ~off:0 ~len:(k * desc_size);
      let rec slot j = if j = k then from (i + k) else match f (i + j) j with None -> slot (j + 1) | found -> found in
      slot 0
    end
  in
  from 0

(* [write_u64]'s encoding: the value's low 63 bits, top bit clear. *)
let set_field b f v = Bytes.set_int64_le b (8 * f) (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)

(* Stages descriptor [i] in the window's first slot (the walk that
   found it is over) and stores it with one 32-byte blit. *)
let write_desc t i ~owner ~addr ~len ~in_use =
  let b = t.window and d = desc_addr t i in
  set_field b 0 owner;
  set_field b 1 addr;
  set_field b 2 len;
  set_field b 3 (if in_use then 1 else 0);
  if d >= 0 && d <= Physmem.size t.mem - desc_size then Physmem.blit_from_bytes t.mem ~pos:d b ~off:0 ~len:desc_size
  else
    (* Only a negative corrupted entry count puts a new descriptor
       outside DRAM. Store it a word at a time, so the write fails at
       the same word, with the same message, as [write_u64] does. *)
    for f = 0 to 3 do
      Physmem.blit_from_bytes t.mem ~pos:(d + (8 * f)) b ~off:(8 * f) ~len:8
    done

let page_align v = (v + Physmem.page_size - 1) land lnot (Physmem.page_size - 1)

let alloc t ?(align = Physmem.page_size) ~owner len =
  if len <= 0 then invalid_arg "Alloc.alloc: non-positive length";
  if align <= 0 || align land (align - 1) <> 0 then invalid_arg "Alloc.alloc: alignment must be a power of two";
  let align = max align Physmem.page_size in
  let alen = page_align len in
  (* Reuse the first free slot of sufficient size and alignment, else
     bump. Reuse keeps the slot's full extent: shrinking it would orphan
     the tail bytes forever. *)
  let n = entry_count t in
  let reuse =
    scan t ~n (fun i j ->
        let addr = field t j 1 and slot_len = field t j 2 in
        if field t j 3 = 0 && slot_len >= alen && addr land (align - 1) = 0 then Some (i, addr, slot_len) else None)
  in
  let slot =
    match reuse with
    | Some _ -> reuse
    | None ->
      let start = (t.heap_base + t.bump + align - 1) land lnot (align - 1) in
      let off = start - t.heap_base in
      if off + alen > t.heap_size || n >= t.max_entries then None
      else begin
        t.bump <- off + alen;
        set_entry_count t (n + 1);
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
  let hit i j = if field t j 1 = addr && field t j 3 = 1 then Some (i, field t j 0, field t j 2) else None in
  match scan t ~n:(entry_count t) hit with
  | None -> invalid_arg "Alloc.free: unknown address"
  | Some (i, owner, len) ->
    write_desc t i ~owner ~addr ~len ~in_use:false;
    Physmem.set_owner t.mem ~pos:addr ~len Physmem.Free

let live t =
  let acc = ref [] in
  ignore
    (scan t ~n:(entry_count t) (fun _ j ->
         if field t j 3 = 1 then begin
           let owner = field t j 0 in
           let o = if owner = 0 then Physmem.Nic_os else Physmem.Nf (owner - 1) in
           acc := (o, field t j 1, field t j 2) :: !acc
         end;
         None));
  List.rev !acc
