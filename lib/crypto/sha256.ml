(* FIPS 180-4 SHA-256 over native ints masked to 32 bits. OCaml ints are 63
   bits wide, so 32-bit adds never overflow before masking. *)

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
  block : Bytes.t; (* 64-byte input block being filled *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx =
  let w = ctx.w and b = ctx.block in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code (Bytes.get b (4 * t)) lsl 24)
      lor (Char.code (Bytes.get b ((4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.get b ((4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.get b ((4 * t) + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and bb = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !bb) lxor (!a land !c) lxor (!bb land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !bb;
    bb := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !bb) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let copy ctx = { ctx with h = Array.copy ctx.h; block = Bytes.copy ctx.block; w = Array.make 64 0 }

let absorb ctx src pos len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let n = min !len (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed_bytes ctx b = absorb ctx b 0 (Bytes.length b)
let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crypto.Sha256.feed_sub";
  absorb ctx (Bytes.unsafe_of_string s) pos len

let finalize ctx =
  let total_bits = ctx.total * 8 in
  (* Append 0x80, zero padding, and the 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 0 else 64 - rem
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (1 + pad_len + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  (* Do not let the length-field bytes count toward [total]. *)
  let saved = ctx.total in
  feed_bytes ctx tail;
  ctx.total <- saved;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
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
