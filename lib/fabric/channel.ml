type tx = {
  t_key : Crypto.Hmac.keyed;
  t_chan : int;
  mutable t_next : int;
  t_cap : int;
  t_buf : string Queue.t; (* oldest first; at most t_cap payloads *)
  mutable t_sent : int;
  t_tap : string -> unit;
  t_sink : Obs.sink;
}

type rx = {
  r_key : Crypto.Hmac.keyed;
  r_chan : int;
  r_window : Window.t;
  mutable r_delivered : int;
  mutable r_mac_fail : int;
  mutable r_wrong_chan : int;
  r_sink : Obs.sink;
}

type recv_error =
  | Decode of Frame.error
  | Wrong_channel of int
  | Replayed of int
  | Stale of int

let recv_error_to_string = function
  | Decode e -> Frame.error_to_string e
  | Wrong_channel c -> Printf.sprintf "frame belongs to channel %d" c
  | Replayed s -> Printf.sprintf "sequence %d already accepted (replay)" s
  | Stale s -> Printf.sprintf "sequence %d older than the receive window" s

let pair ?(sink = Obs.null) ?(window = 32) ?(buffer = 1024) ?(tap = fun _ -> ()) ~key ~chan () =
  if buffer < 0 then invalid_arg "Fabric.Channel.pair: negative buffer capacity";
  let key = Crypto.Hmac.keyed key in
  ( { t_key = key; t_chan = chan; t_next = 0; t_cap = buffer; t_buf = Queue.create (); t_sent = 0; t_tap = tap; t_sink = sink },
    {
      r_key = key;
      r_chan = chan;
      r_window = Window.create ~size:window;
      r_delivered = 0;
      r_mac_fail = 0;
      r_wrong_chan = 0;
      r_sink = sink;
    } )

let chan tx = tx.t_chan

let send tx payload =
  let wire = Frame.encode ~key:tx.t_key { Frame.chan = tx.t_chan; seq = tx.t_next; payload } in
  tx.t_next <- tx.t_next + 1;
  tx.t_sent <- tx.t_sent + 1;
  Queue.push payload tx.t_buf;
  (* Drop the oldest buffered payload; the cap bounds failover state. *)
  if Queue.length tx.t_buf > tx.t_cap then ignore (Queue.pop tx.t_buf);
  Obs.count tx.t_sink Obs.Fabric_tx;
  tx.t_tap wire;
  wire

let recv rx wire =
  match Frame.decode_exact ~key:rx.r_key wire with
  | Error e ->
    rx.r_mac_fail <- rx.r_mac_fail + 1;
    Obs.count rx.r_sink Obs.Fabric_mac_fail;
    Error (Decode e)
  | Ok f when f.Frame.chan <> rx.r_chan ->
    rx.r_wrong_chan <- rx.r_wrong_chan + 1;
    Obs.count rx.r_sink Obs.Fabric_mac_fail;
    Error (Wrong_channel f.Frame.chan)
  | Ok f -> (
    match Window.admit rx.r_window f.Frame.seq with
    | Window.Fresh ->
      rx.r_delivered <- rx.r_delivered + 1;
      Obs.count rx.r_sink Obs.Fabric_rx;
      Ok f.Frame.payload
    | Window.Replay ->
      Obs.count rx.r_sink Obs.Fabric_replay_drop;
      Error (Replayed f.Frame.seq)
    | Window.Stale ->
      Obs.count rx.r_sink Obs.Fabric_stale_drop;
      Error (Stale f.Frame.seq))

let buffered tx = List.of_seq (Queue.to_seq tx.t_buf)
let sent tx = tx.t_sent
let delivered rx = rx.r_delivered
let mac_failures rx = rx.r_mac_fail + rx.r_wrong_chan
let replay_rejects rx = Window.replays rx.r_window
let stale_rejects rx = Window.stales rx.r_window
let wrong_channel_rejects rx = rx.r_wrong_chan
