(* CuckooGuard-style SYN-cookie split proxy: the defense keeps ZERO
   per-SYN state.  A SYN is answered with a stateless cookie (truncated
   HMAC-SHA256 over the 5-tuple and a coarse epoch) and dropped; only a
   client that echoes the cookie back proves liveness and earns a slot
   in the fixed-memory cuckoo-filter whitelist.  Spoofed sources never
   see the cookie, so a flood costs the proxy nothing but per-packet
   compute — memory stays flat at the filter's fixed reservation.

   [Net.Packet.t] carries no TCP flags, so the handshake rides on a
   payload convention: a payload of "SYN" is a SYN, "ACK:<hex>" is the
   cookie echo, anything else is data.  UDP is not the proxy's problem
   and passes through untouched. *)

type t = {
  key : Crypto.Hmac.keyed;
  msg : Bytes.t; (* cookie-message scratch, rewritten by every [cookie_at] *)
  filter : Cuckoo.t;
  mutable epoch : int;
  mutable challenges : int; (* SYNs answered with a cookie (and dropped) *)
  mutable admitted : int; (* valid cookie echoes whitelisted *)
  mutable bad_cookies : int;
  mutable no_handshake : int; (* data from flows not in the whitelist *)
}

(* The longest cookie message: four ints of up to 20 characters (the
   ports, the protocol and the epoch), two dotted quads and the
   separators come to 119 bytes. *)
let msg_capacity = 128

let create ?probe ?filter_seed ?(fp_bits = 12) ?(log2_buckets = 14) ~key () =
  {
    key = Crypto.Hmac.keyed key;
    msg = Bytes.create msg_capacity;
    filter = Cuckoo.create ?probe ?seed:filter_seed ~fp_bits ~log2_buckets ();
    epoch = 0;
    challenges = 0;
    admitted = 0;
    bad_cookies = 0;
    no_handshake = 0;
  }

let cookie_bytes = 8

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* [n] in decimal, as [%d] prints it.  The digits come from [-|n|],
   which cannot overflow, so [min_int] prints too. *)
let put_int b pos n =
  let rec digits pos m =
    let pos = if m <= -10 then digits pos (m / 10) else pos in
    put_char b pos (Char.chr (Char.code '0' - (m mod 10)))
  in
  if n < 0 then digits (put_char b pos '-') n else digits pos (-n)

let put_ip b pos a =
  let pos = put_int b pos ((a lsr 24) land 0xff) in
  let pos = put_int b (put_char b pos '.') ((a lsr 16) land 0xff) in
  let pos = put_int b (put_char b pos '.') ((a lsr 8) land 0xff) in
  put_int b (put_char b pos '.') (a land 0xff)

(* Writes the cookie message into [b] and returns its length.  The bytes
   are exactly [Printf.sprintf "%s|%d" (Net.Five_tuple.to_string flow)
   epoch], i.e. ["a.b.c.d:sport -> e.f.g.h:dport /proto|epoch"]: changing
   one of them changes every cookie. *)
let write_msg b (flow : Net.Five_tuple.t) epoch =
  let pos = put_ip b 0 flow.src_ip in
  let pos = put_int b (put_char b pos ':') flow.src_port in
  let pos = put_ip b (put_string b pos " -> ") flow.dst_ip in
  let pos = put_int b (put_char b pos ':') flow.dst_port in
  let pos = put_int b (put_string b pos " /") flow.proto in
  put_int b (put_char b pos '|') epoch

let cookie_at t ~epoch flow =
  let len = write_msg t.msg flow epoch in
  (* [t.msg] is not written while [mac_sub] reads it as a string. *)
  let tag = Crypto.Hmac.mac_sub t.key (Bytes.unsafe_to_string t.msg) ~pos:0 ~len in
  Crypto.Sha256.to_hex (String.sub tag 0 cookie_bytes)

let cookie t flow = cookie_at t ~epoch:t.epoch flow

(* A cookie stays valid across one epoch turn (the client's RTT may
   straddle it); anything older is stale and rejected. *)
let validate t flow hex = String.equal hex (cookie t flow) || String.equal hex (cookie_at t ~epoch:(t.epoch - 1) flow)

let advance_epoch t = t.epoch <- t.epoch + 1
let epoch t = t.epoch

let syn_payload = "SYN"
let ack_prefix = "ACK:"
let ack_payload t flow = ack_prefix ^ cookie t flow

let whitelisted t flow = Cuckoo.mem t.filter flow

let process t pkt =
  match pkt.Net.Packet.proto with
  | Net.Packet.Udp -> Types.Forward pkt
  | Net.Packet.Tcp ->
    let flow = Net.Packet.flow pkt in
    let payload = pkt.Net.Packet.payload in
    if String.starts_with ~prefix:syn_payload payload && String.length payload <= String.length syn_payload then begin
      (* Stateless challenge: answer with the cookie, keep nothing. *)
      t.challenges <- t.challenges + 1;
      Types.Drop ("syn-cookie-challenge:" ^ cookie t flow)
    end
    else if String.starts_with ~prefix:ack_prefix payload then begin
      let hex = String.sub payload (String.length ack_prefix) (String.length payload - String.length ack_prefix) in
      if validate t flow hex then begin
        t.admitted <- t.admitted + 1;
        ignore (Cuckoo.insert t.filter flow);
        Types.Forward pkt
      end
      else begin
        t.bad_cookies <- t.bad_cookies + 1;
        Types.Drop "bad-cookie"
      end
    end
    else if whitelisted t flow then Types.Forward pkt
    else begin
      t.no_handshake <- t.no_handshake + 1;
      Types.Drop "no-handshake"
    end

let nf t = { Types.name = "SYNP"; process = (fun pkt -> process t pkt) }
let filter t = t.filter
let memory_bytes t = Cuckoo.memory_bytes t.filter
let challenges t = t.challenges
let admitted t = t.admitted
let bad_cookies t = t.bad_cookies
let no_handshake t = t.no_handshake
