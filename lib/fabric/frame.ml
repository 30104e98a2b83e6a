type t = { chan : int; seq : int; payload : string }

let magic = "SNF1"
let max_payload = 1 lsl 16
let mac_len = 32 (* HMAC-SHA256 *)
let overhead = 4 + 4 + 4 + 4 + mac_len
let u32_max = 0xFFFFFFFF

type error =
  | Truncated of { need : int; got : int }
  | Bad_magic
  | Oversize of int
  | Bad_mac
  | Trailing of int

let error_to_string = function
  | Truncated { need; got } -> Printf.sprintf "truncated frame: need %d bytes, got %d" need got
  | Bad_magic -> "bad frame magic"
  | Oversize n -> Printf.sprintf "length field %d exceeds the %d-byte payload ceiling" n max_payload
  | Bad_mac -> "frame MAC does not verify"
  | Trailing n -> Printf.sprintf "%d trailing bytes after the frame" n

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let encode ~key t =
  if t.chan < 0 || t.chan > u32_max then invalid_arg "Fabric.Frame.encode: chan outside u32";
  if t.seq < 0 || t.seq > u32_max then invalid_arg "Fabric.Frame.encode: seq outside u32";
  let len = String.length t.payload in
  if len > max_payload then invalid_arg "Fabric.Frame.encode: payload too long";
  let b = Bytes.create (overhead + len) in
  Bytes.blit_string magic 0 b 0 4;
  put_u32 b 4 t.chan;
  put_u32 b 8 t.seq;
  put_u32 b 12 len;
  Bytes.blit_string t.payload 0 b 16 len;
  (* [b] is not written while [mac_sub] reads it as a string. *)
  let mac = Crypto.Hmac.mac_sub key (Bytes.unsafe_to_string b) ~pos:0 ~len:(16 + len) in
  Bytes.blit_string mac 0 b (16 + len) mac_len;
  Bytes.unsafe_to_string b

let magic_u32 = get_u32 magic 0

let decode ~key s ~pos =
  let avail = String.length s - pos in
  if avail < 16 then Error (Truncated { need = 16; got = max avail 0 })
  else if get_u32 s pos <> magic_u32 then Error Bad_magic
  else begin
    let chan = get_u32 s (pos + 4) in
    let seq = get_u32 s (pos + 8) in
    let len = get_u32 s (pos + 12) in
    if len > max_payload then Error (Oversize len)
    else begin
      let need = 16 + len + mac_len in
      if avail < need then Error (Truncated { need; got = avail })
      else begin
        let expect = Crypto.Hmac.mac_sub key s ~pos ~len:(16 + len) in
        if not (Crypto.Hmac.verify_at ~tag:expect s ~pos:(pos + 16 + len)) then Error Bad_mac
        else Ok ({ chan; seq; payload = String.sub s (pos + 16) len }, pos + need)
      end
    end
  end

let decode_exact ~key s =
  match decode ~key s ~pos:0 with
  | Error e -> Error e
  | Ok (t, stop) ->
    let rest = String.length s - stop in
    if rest > 0 then Error (Trailing rest) else Ok t
