open Nicsim

let nic_hz = 1.2e9

(* Per-packet generation cost on a producer core (build headers, touch
   payload, post the descriptor): 16 cores at 18k cycles/packet cap the
   pipeline at ~1.07 Mpps, the flat ceiling of the paper's small-frame
   curves. *)
let producer_cores = 16
let producer_cycles_per_pkt = 18_000

let simulate ?(kind = Accel.Dpi) ?(packets = 4_000) ~threads ~frame_bytes () =
  let accel = Accel.create ~kind ~threads ~cluster_size:threads in
  (* Producer c emits its k-th packet at (k+1) * cost; merge the 16
     producer timelines in time order and push each frame through the
     accelerator's earliest-free thread. *)
  let next_emit = Array.make producer_cores 0 in
  let last_completion = ref 0 in
  for _ = 1 to packets do
    let c = ref 0 in
    for k = 1 to producer_cores - 1 do
      if next_emit.(k) < next_emit.(!c) then c := k
    done;
    let emit_time = next_emit.(!c) + producer_cycles_per_pkt in
    next_emit.(!c) <- emit_time;
    let done_at = Accel.submit accel ~cluster:0 ~now:emit_time ~bytes:frame_bytes in
    if done_at > !last_completion then last_completion := done_at
  done;
  float_of_int packets /. (float_of_int !last_completion /. nic_hz) /. 1e6
