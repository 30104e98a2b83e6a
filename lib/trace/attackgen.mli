(** Seeded adversarial traffic: a spoofed SYN flood against one victim
    service.  The generator streams events through a callback so
    millions-of-flows scale never builds a packet array; the same [Rng]
    seed replays the same attack byte for byte. *)

type kind = Syn | Ack | Data

type event = {
  kind : kind;
  flow : Net.Five_tuple.t;
  benign : bool; (* false = attack traffic *)
  size : int; (* wire bytes *)
}

val kind_name : kind -> string

(** All TCP scenarios target this one victim service. *)
val victim_ip : Net.Ipv4_addr.t

val victim_port : int

(** [syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow ~f]:
    every benign flow handshakes (SYN, ACK) up front, then the data
    phase spreads each flow's [packets_per_flow] packets across rounds
    over the whole stream; every benign packet is interleaved with
    [attack_factor] spoofed SYNs that never complete, each from a fresh
    never-repeating source.  Long-lived flows under sustained attack:
    a stateful defense must keep its admission state intact between a
    flow's handshake and its last data packet. *)
val syn_flood :
  Rng.t -> benign_flows:int -> attack_factor:int -> packets_per_flow:int -> f:(event -> unit) -> unit

(** [digest gen] folds every event [gen] produces into a small integer —
    the determinism fingerprint used by tests and CI diffs:
    [digest (fun f -> syn_flood rng ~... ~f)]. *)
val digest : ((event -> unit) -> unit) -> int
