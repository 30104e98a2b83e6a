(* Seeded adversarial traffic: a spoofed SYN flood against one victim
   service.  The generator streams events through a callback so
   millions-of-flows scale never materializes an array of packets;
   everything is a pure function of the Rng, so the same seed replays
   the same attack byte for byte. *)

type kind = Syn | Ack | Data

type event = {
  kind : kind;
  flow : Net.Five_tuple.t;
  benign : bool;
  size : int; (* wire bytes *)
}

let kind_name = function Syn -> "SYN" | Ack -> "ACK" | Data -> "DATA"

(* Every TCP scenario targets one victim service; what varies is who the
   sources are and whether they complete the handshake. *)
let victim_ip = Net.Ipv4_addr.of_octets 203 0 113 10
let victim_port = 443

(* Distinct TCP client tuples against the victim.  Benign clients live
   in 10.0.0.0/8; spoofed sources are drawn from 11..255 so the two
   populations can never collide.  Distinctness within a population uses
   the same bounded-rejection discipline as [Flowgen.flows]: after 16
   consecutive collisions the tuple comes from a counter-derived range
   (src port below the 1024 floor sampling uses) that is disjoint from
   anything sampling can produce. *)
let client_tuples rng ~n ~spoofed =
  let seen = Hashtbl.create (2 * n) in
  let counter = ref 0 in
  Array.init n (fun _ ->
      let rec go tries =
        if tries >= 16 then begin
          let c = !counter in
          incr counter;
          let src_port = 1 + (c mod 1023) in
          let q = c / 1023 in
          let o1 = if spoofed then 255 else 10 in
          let src_ip = Net.Ipv4_addr.of_octets o1 ((q lsr 8) land 0xff) (q land 0xff) 253 in
          Net.Five_tuple.make ~src_ip ~dst_ip:victim_ip ~proto:6 ~src_port ~dst_port:victim_port
        end
        else begin
          let o1 = if spoofed then 11 + Rng.int rng 245 else 10 in
          let src_ip =
            Net.Ipv4_addr.of_octets o1 (Rng.int rng 256) (Rng.int rng 256) (Rng.int rng 254 + 1)
          in
          let src_port = 1024 + Rng.int rng (65536 - 1024) in
          let ft = Net.Five_tuple.make ~src_ip ~dst_ip:victim_ip ~proto:6 ~src_port ~dst_port:victim_port in
          if Hashtbl.mem seen ft then go (tries + 1)
          else begin
            Hashtbl.add seen ft ();
            ft
          end
        end
      in
      go 0)

let data_size rng = Rng.pick rng [| 64; 512; 512; 1500 |]

let syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow ~f =
  (* Benign flows are long-lived: they all handshake up front, then the
     data phase spreads each flow's packets across [packets_per_flow]
     rounds over the whole stream.  Every benign packet is shadowed by
     [attack_factor] spoofed SYNs, each from a fresh never-repeating
     source — the 10x-load shape of a classic spoofed SYN flood.  The
     split matters to defenses keeping per-flow admission state: the
     attack has the entire data phase to saturate or corrupt it between
     a flow's admission and its later packets. *)
  let benign = client_tuples rng ~n:benign_flows ~spoofed:false in
  let attack =
    client_tuples rng ~n:(benign_flows * (2 + packets_per_flow) * attack_factor) ~spoofed:true
  in
  let ai = ref 0 in
  let next_attack () =
    let ft = attack.(!ai mod Array.length attack) in
    incr ai;
    f { kind = Syn; flow = ft; benign = false; size = 64 }
  in
  let shadowed kind ft size =
    f { kind; flow = ft; benign = true; size };
    for _ = 1 to attack_factor do
      next_attack ()
    done
  in
  Array.iter
    (fun ft ->
      shadowed Syn ft 64;
      shadowed Ack ft 64)
    benign;
  for _ = 1 to packets_per_flow do
    Array.iter (fun ft -> shadowed Data ft (data_size rng)) benign
  done

(* ------------------------------------------------------------------ *)

let event_hash e =
  let k = match e.kind with Syn -> 1 | Ack -> 2 | Data -> 3 in
  let h = Net.Five_tuple.hash e.flow in
  ((h * 131) + (k lsl 8) + (if e.benign then 1 else 0) + (e.size * 7)) land max_int

let digest gen =
  let h = ref 0x9e37 in
  gen (fun e -> h := ((!h * 1_000_003) + event_hash e) land 0x3FFF_FFFF);
  !h
