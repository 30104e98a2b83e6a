(* Partial-key cuckoo filter (Fan et al., CoNEXT'14) — the fixed-memory
   flow set behind the CuckooGuard split proxy.  All memory is allocated
   at creation, so an S-NIC preallocation is never outgrown (§4.8
   fixed-reservation model): a full filter rejects inserts instead of
   growing. *)

let slots_per_bucket = 4
let max_kicks = 500

type t = {
  fp_bits : int;
  mask : int; (* buckets - 1, buckets a power of two *)
  slots : int array; (* buckets * slots_per_bucket; 0 = empty *)
  rng : Trace.Rng.t; (* kick-victim selection, seeded at creation *)
  probe : Types.probe option;
  mutable occupied : int;
  mutable kicks : int;
  mutable rejected : int;
}

let create ?probe ?(seed = 0xCF17) ~fp_bits ~log2_buckets () =
  if fp_bits < 2 || fp_bits > 30 then invalid_arg "Cuckoo.create: fp_bits must be in [2, 30]";
  if log2_buckets < 1 || log2_buckets > 28 then invalid_arg "Cuckoo.create: log2_buckets must be in [1, 28]";
  let buckets = 1 lsl log2_buckets in
  {
    fp_bits;
    mask = buckets - 1;
    slots = Array.make (buckets * slots_per_bucket) 0;
    rng = Trace.Rng.create ~seed;
    probe;
    occupied = 0;
    kicks = 0;
    rejected = 0;
  }

(* Fingerprints live in [1, 2^fp_bits - 1]; 0 marks an empty slot. *)
let fingerprint t flow =
  let fp = (Net.Five_tuple.hash flow lsr 20) land ((1 lsl t.fp_bits) - 1) in
  if fp = 0 then 1 else fp

let index1 t flow = Net.Five_tuple.hash flow land t.mask

(* Partial-key displacement: the alternate bucket is derived from the
   fingerprint alone, so a kicked entry can move without re-hashing the
   original key.  The xor makes [alt] an involution: alt (alt i) = i. *)
let alt t i fp = (i lxor (fp * 0x5bd1e995)) land t.mask

let touch t i = match t.probe with Some probe -> probe ~region:0 ~index:i | None -> ()

let bucket_slot t i s = t.slots.((i * slots_per_bucket) + s)
let set_slot t i s v = t.slots.((i * slots_per_bucket) + s) <- v

let find_in_bucket t i fp =
  let rec go s = if s >= slots_per_bucket then -1 else if bucket_slot t i s = fp then s else go (s + 1) in
  go 0

let free_slot t i = find_in_bucket t i 0

let place t i fp =
  match free_slot t i with
  | -1 -> false
  | s ->
    set_slot t i s fp;
    t.occupied <- t.occupied + 1;
    true

let mem_fp t i1 i2 fp = find_in_bucket t i1 fp >= 0 || find_in_bucket t i2 fp >= 0

let mem t flow =
  let fp = fingerprint t flow in
  let i1 = index1 t flow in
  let i2 = alt t i1 fp in
  touch t i1;
  touch t i2;
  mem_fp t i1 i2 fp

let insert t flow =
  let fp = fingerprint t flow in
  let i1 = index1 t flow in
  let i2 = alt t i1 fp in
  touch t i1;
  touch t i2;
  if mem_fp t i1 i2 fp then true (* already present (or an indistinguishable fingerprint is) *)
  else if place t i1 fp || place t i2 fp then true
  else begin
    (* Both buckets full: displace a random resident and chase it to
       its alternate bucket, at most [max_kicks] hops.  [occupied]
       tracks nonzero slots, so swaps leave it unchanged and only
       [place] bumps it.  On failure the in-hand fingerprint is dropped
       and the insert reported rejected — fixed memory means the filter
       saturates, it never grows. *)
    let i = ref (if Trace.Rng.bool t.rng then i1 else i2) in
    let cur = ref fp in
    let placed = ref false in
    let n = ref 0 in
    while (not !placed) && !n < max_kicks do
      let s = Trace.Rng.int t.rng slots_per_bucket in
      let victim = bucket_slot t !i s in
      set_slot t !i s !cur;
      cur := victim;
      i := alt t !i victim;
      t.kicks <- t.kicks + 1;
      touch t !i;
      placed := place t !i !cur;
      incr n
    done;
    if not !placed then t.rejected <- t.rejected + 1;
    !placed
  end

let remove t flow =
  let fp = fingerprint t flow in
  let i1 = index1 t flow in
  let i2 = alt t i1 fp in
  touch t i1;
  touch t i2;
  let del i =
    match find_in_bucket t i fp with
    | -1 -> false
    | s ->
      set_slot t i s 0;
      t.occupied <- t.occupied - 1;
      true
  in
  del i1 || del i2

let occupancy t = t.occupied
let capacity t = (t.mask + 1) * slots_per_bucket
let load_factor t = float_of_int t.occupied /. float_of_int (capacity t)
let kicks t = t.kicks
let rejected t = t.rejected

(* Modeled on-NIC footprint: one fingerprint per slot, byte-rounded.
   Constant for the lifetime of the filter — the §4.8 story. *)
let memory_bytes t = capacity t * ((t.fp_bits + 7) / 8)

(* Model a cross-tenant write landing in filter memory (§3.3 packet/state
   corruption): flip one fingerprint bit.  Benign flows whose slot is hit
   start failing lookups — exactly the integrity loss the ddos scenario
   charges to modes that let the write land. *)
let corrupt t ~bit =
  let nslots = Array.length t.slots in
  let s = (bit / t.fp_bits) mod nslots in
  let b = bit mod t.fp_bits in
  let old = t.slots.(s) in
  let v = old lxor (1 lsl b) in
  t.slots.(s) <- v;
  if old = 0 && v <> 0 then t.occupied <- t.occupied + 1
  else if old <> 0 && v = 0 then t.occupied <- t.occupied - 1

(* ------------------------------------------------------------------ *)

type nf_state = { filter : t; mutable packets : int }

let nf_create ?probe ?seed ?(fp_bits = 12) ?(log2_buckets = 14) () =
  { filter = create ?probe ?seed ~fp_bits ~log2_buckets (); packets = 0 }

let nf (st : nf_state) =
  {
    Types.name = "CKF";
    process =
      (fun pkt ->
        st.packets <- st.packets + 1;
        let flow = Net.Packet.flow pkt in
        ignore (insert st.filter flow);
        Types.Forward pkt);
  }

let nf_filter st = st.filter
