let block_size = 64
let tag_len = 32

(* The SHA-256 states after absorbing the ipad and opad blocks. Nothing
   feeds or finalizes them after [keyed] returns: [mac_sub] works on
   copies, so one keyed state can serve any number of domains. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let keyed key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad c =
    let ctx = Sha256.init () in
    Sha256.feed ctx
      (String.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor c)));
    ctx
  in
  { inner = pad 0x36; outer = pad 0x5c }

let mac_sub k s ~pos ~len =
  let ctx = Sha256.copy k.inner in
  Sha256.feed_sub ctx s ~pos ~len;
  let inner = Sha256.finalize ctx in
  let ctx = Sha256.copy k.outer in
  Sha256.feed ctx inner;
  Sha256.finalize ctx

let mac ~key msg = mac_sub (keyed key) msg ~pos:0 ~len:(String.length msg)
let derive ~secret ~label = mac ~key:secret (label ^ "\x01")

let verify_at ~tag s ~pos =
  if String.length tag <> tag_len || pos < 0 || pos > String.length s - tag_len then false
  else begin
    (* OR together every byte's difference: no early exit, so the time
       taken does not depend on where the first mismatch is. *)
    let diff = ref 0 in
    for i = 0 to tag_len - 1 do
      diff := !diff lor (Char.code tag.[i] lxor Char.code s.[pos + i])
    done;
    !diff = 0
  end
