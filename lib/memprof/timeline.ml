type point = { t_s : float; used_mb : float; prealloc_mb : float }

let mbf bytes = float_of_int bytes /. (1024. *. 1024.)

(* Calibrated to the paper's Monitor numbers: 1.8 M flows over 150 s,
   113-byte table entries, 14.9 MB of steady DPDK base, a 90 MB startup
   staging copy and a 3.39 MB fixed footprint. *)
let duration_s = 150.
let flows_per_sec = 12_000
let entry_bytes = 113
let base_mb = 14.92
let init_staging_mb = 90.
let fixed_mb = 3.39

let monitor ?(samples = 150) () =
  let flows_at t = int_of_float (float_of_int flows_per_sec *. t) in
  let final_flows = flows_at duration_s in
  (* The preallocation must cover the worst transient: base + the final
     resize's coexisting old+new tables (what Table 6 reports). *)
  let prealloc_mb =
    fixed_mb +. base_mb +. mbf (Hashmap_model.resize_peak_bytes ~entry_bytes final_flows)
  in
  let steady t = fixed_mb +. base_mb +. mbf (Hashmap_model.bytes ~entry_bytes (flows_at t)) in
  let points = ref [] in
  let emit t_s used_mb = points := { t_s; used_mb; prealloc_mb } :: !points in
  for i = 0 to samples do
    let t = duration_s *. float_of_int i /. float_of_int samples in
    let t_prev = duration_s *. float_of_int (max 0 (i - 1)) /. float_of_int samples in
    (* DPDK hugepage initialization: a temporary normal-memory block holds
       the data being copied into hugepages during the first seconds. *)
    let staging = if t < 2.0 then init_staging_mb *. (1. -. (t /. 2.0)) else 0. in
    (* A HashMap doubling inside this interval momentarily keeps both
       tables alive: show the spike. *)
    if i > 0 && Hashmap_model.is_resize_point ~prev:(flows_at t_prev) ~now:(flows_at t) then
      emit (t -. (duration_s /. float_of_int samples /. 2.))
        (fixed_mb +. base_mb +. mbf (Hashmap_model.resize_peak_bytes ~entry_bytes (flows_at t)));
    emit t (steady t +. staging)
  done;
  List.rev !points

let peak_mb points = List.fold_left (fun acc p -> Float.max acc p.used_mb) 0. points

let final_mb points = match List.rev points with [] -> 0. | p :: _ -> p.used_mb

let spike_count points =
  (* A spike is a local maximum strictly above both neighbours. *)
  let arr = Array.of_list points in
  let n = Array.length arr in
  let count = ref 0 in
  for i = 1 to n - 2 do
    if arr.(i).used_mb > arr.(i - 1).used_mb +. 1. && arr.(i).used_mb > arr.(i + 1).used_mb +. 1. then incr count
  done;
  !count
