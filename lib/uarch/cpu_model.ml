open Nicsim

(* Matched to the Marvell configuration the paper copies into gem5
   (1.2 GHz cores, 32 KB L1, 16-way L2) with a DDR3-style main memory. *)
let l1_bytes = 32 * 1024
let l1_ways = 4
let line_bits = 6
let l2_ways = 16
let l2_hit_cycles = 12
let dram_cycles = 80 (* latency after the bus transfer completes *)
let bus_cost = 8 (* bus occupancy of one line fill *)

(* Temporal-partitioning epoch and dead time (the S-NIC bus config). *)
let epoch = 12
let dead = 2

type isolation = Baseline | Snic | Cache_only | Bus_only

type domain_result = {
  nf : string;
  instructions : int;
  cycles : int;
  ipc : float;
  l1_miss_rate : float;
  l2_miss_rate : float;
}

let default_horizon = 2_000_000
let max_domains = l2_ways

let run ?(horizon = default_horizon) ~l2_bytes ~isolation streams =
  let n = Array.length streams in
  if n = 0 then invalid_arg "Cpu_model.run: no streams";
  let line = 1 lsl line_bits in
  let l1 () =
    Cache.create ~sets:(l1_bytes / line / l1_ways) ~ways:l1_ways ~line_bits ~mode:Cache.Shared ~domains:1
  in
  let l2_sets = max 1 (l2_bytes / line / l2_ways) in
  let l2 =
    Cache.create ~sets:l2_sets ~ways:l2_ways ~line_bits
      ~mode:(match isolation with Baseline | Bus_only -> Cache.Shared | Snic | Cache_only -> Cache.Hard)
      ~domains:n
  in
  let bus =
    Bus.create
      ~policy:
        (match isolation with
        | Baseline | Cache_only -> Bus.Free_for_all
        | Snic | Bus_only -> Bus.Temporal { epoch; dead })
      ~clients:n
  in
  let l1s = Array.init n (fun _ -> l1 ()) in
  let clock = Array.make n 0 in
  let idx = Array.make n 0 in
  let accesses = Array.make n 0 in
  let l1_miss = Array.make n 0 and l2_miss = Array.make n 0 in
  (* All domains co-run for a fixed window, wrapping their streams, like
     the paper's continuously loaded NFs: a domain whose stream is short
     does not stop contending. *)
  let remaining = ref n in
  let finished = Array.make n false in
  while !remaining > 0 do
    (* Advance the in-window domain that is earliest in global time, so
       shared-resource contention happens in true time order. *)
    let d = ref (-1) in
    for k = 0 to n - 1 do
      if (not finished.(k)) && (!d < 0 || clock.(k) < clock.(!d)) then d := k
    done;
    let d = !d in
    let stream = streams.(d) in
    let addr = stream.Workload.addrs.(idx.(d)) in
    clock.(d) <- clock.(d) + stream.Workload.exec_cycles_per_access;
    (match Cache.access l1s.(d) ~domain:0 ~addr with
    | Cache.Hit -> ()
    | Cache.Miss -> begin
      l1_miss.(d) <- l1_miss.(d) + 1;
      clock.(d) <- clock.(d) + l2_hit_cycles;
      match Cache.access l2 ~domain:d ~addr with
      | Cache.Hit -> ()
      | Cache.Miss ->
        l2_miss.(d) <- l2_miss.(d) + 1;
        let done_at = Bus.request bus ~client:d ~now:clock.(d) ~cost:bus_cost in
        clock.(d) <- done_at + dram_cycles
    end);
    accesses.(d) <- accesses.(d) + 1;
    idx.(d) <- (idx.(d) + 1) mod Array.length stream.Workload.addrs;
    if clock.(d) >= horizon then begin
      finished.(d) <- true;
      decr remaining
    end
  done;
  Array.init n (fun d ->
      let instructions = accesses.(d) * streams.(d).Workload.exec_cycles_per_access in
      {
        nf = streams.(d).Workload.nf;
        instructions;
        cycles = clock.(d);
        ipc = float_of_int instructions /. float_of_int (max 1 clock.(d));
        l1_miss_rate = float_of_int l1_miss.(d) /. float_of_int (max 1 accesses.(d));
        l2_miss_rate = float_of_int l2_miss.(d) /. float_of_int (max 1 l1_miss.(d));
      })

let degradation ?horizon ~l2_bytes streams =
  let base = run ?horizon ~l2_bytes ~isolation:Baseline streams in
  let snic = run ?horizon ~l2_bytes ~isolation:Snic streams in
  Array.init (Array.length streams) (fun d ->
      (base.(d).nf, 100. *. (1. -. (snic.(d).ipc /. base.(d).ipc))))
