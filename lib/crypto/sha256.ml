(* FIPS 180-4 SHA-256 over native ints. OCaml ints are 63 bits wide, so a
   32-bit word is masked only where it is rotated or stored: the low 32
   bits of [+], [lxor], [land], [lor] and [lnot] depend only on the low 32
   bits of their operands, and only a right shift moves high bits down. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  block : Bytes.t; (* a partial 64-byte block; whole blocks are compressed where they lie *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* the last 16 words of the message schedule *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 16 0;
  }

(* A 32-bit [x] held twice: bits 0..62 of [x lor (x lsl 32)] are [x]
   followed by its low 31 bits, so shifting it right by [n <= 31] leaves
   [rotr x n] in the low 32 bits. *)
let twice x = x lor (x lsl 32)

(* Compress the 64 bytes of [src] from [off]. Round [t] reads schedule
   word [t] from [w.(t land 15)]; from [t = 16] on it first overwrites
   that slot, which held word t-16, with word [t] computed from words
   t-16, t-15, t-7 and t-2. The round loop bounds every unsafe index of
   [k] to 0..63 and of [w] to 0..15. *)
let compress ctx src off =
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be src (off + (4 * t))) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let wt =
      if t < 16 then Array.unsafe_get w t
      else begin
        let x = Array.unsafe_get w ((t + 1) land 15) and y = Array.unsafe_get w ((t + 14) land 15) in
        let xx = twice x and yy = twice y in
        let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
        let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
        let v = (Array.unsafe_get w (t land 15) + s0 + Array.unsafe_get w ((t + 9) land 15) + s1) land mask in
        Array.unsafe_set w (t land 15) v;
        v
      end
    in
    let ee = twice !e and aa = twice !a in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + wt in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let copy ctx = { ctx with h = Array.copy ctx.h; block = Bytes.copy ctx.block; w = Array.make 16 0 }

(* Top up a pending partial block first, then compress whole blocks
   straight from [src] and stage only the tail. *)
let absorb ctx src pos len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let n = min !len (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !pos ctx.block 0 !len;
    ctx.fill <- !len
  end

let feed_bytes ctx b = absorb ctx b 0 (Bytes.length b)
let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crypto.Sha256.feed_sub";
  absorb ctx (Bytes.unsafe_of_string s) pos len

(* Pad in place: 0x80, zeros, and the 64-bit big-endian bit count in the
   last 8 bytes, spilling into a second block when fewer than 9 bytes
   are free. *)
let finalize ctx =
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  if fill >= 56 then begin
    Bytes.fill b (fill + 1) (63 - fill) '\000';
    compress ctx b 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b (fill + 1) (55 - fill) '\000';
  Bytes.set_int64_be b 56 (Int64.of_int (ctx.total * 8));
  compress ctx b 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      Bytes.set out (2 * i) hex_digits.[Char.code c lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[Char.code c land 0xf])
    s;
  Bytes.unsafe_to_string out
