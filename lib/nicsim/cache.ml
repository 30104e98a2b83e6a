type mode = Shared | Soft | Hard | Secdcp
type result = Hit | Miss
type stats = { hits : int; misses : int; evicted_by_others : int }

type line = { mutable tag : int; mutable valid : bool; mutable owner : int; mutable lru : int }

type t = {
  sets : int;
  set_bits : int;
  ways : int;
  line_bits : int;
  mode : mode;
  domains : int;
  lines : line array; (* sets * ways, row-major *)
  mutable clock : int;
  per_domain : stats array;
  alloc : int array; (* ways per domain (Hard/Secdcp); prefix-summed into ranges *)
  mutable os_hits_mark : int; (* domain-0 stats at the last rebalance *)
  mutable os_misses_mark : int;
  mutable sink : Obs.sink;
  mutable track : int;
}

let create ~sets ~ways ~line_bits ~mode ~domains =
  if sets <= 0 || sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if domains <= 0 then invalid_arg "Cache.create: domains must be positive";
  if mode <> Shared && ways < domains then invalid_arg "Cache.create: need at least one way per domain";
  if mode = Secdcp && domains < 2 then invalid_arg "Cache.create: Secdcp needs the OS plus at least one function";
  let set_bits = (let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in lg sets) in
  (* Even initial split with leftovers to low domains. *)
  let alloc =
    Array.init domains (fun d -> (ways / domains) + if d < ways mod domains then 1 else 0)
  in
  {
    sets;
    set_bits;
    ways;
    line_bits;
    mode;
    domains;
    lines = Array.init (sets * ways) (fun _ -> { tag = 0; valid = false; owner = -1; lru = 0 });
    clock = 0;
    per_domain = Array.make domains { hits = 0; misses = 0; evicted_by_others = 0 };
    alloc;
    os_hits_mark = 0;
    os_misses_mark = 0;
    sink = Obs.null;
    track = 0;
  }

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track

let fill_ways t ~domain =
  match t.mode with
  | Shared -> (0, t.ways)
  | Soft | Hard | Secdcp ->
    let lo = ref 0 in
    for d = 0 to domain - 1 do
      lo := !lo + t.alloc.(d)
    done;
    (!lo, !lo + t.alloc.(domain))

let allocation t ~domain = match t.mode with Shared -> t.ways | Soft | Hard | Secdcp -> t.alloc.(domain)

let bump t domain f =
  let s = t.per_domain.(domain) in
  t.per_domain.(domain) <- f s

let access t ~domain ~addr =
  if domain < 0 || domain >= t.domains then invalid_arg "Cache.access: bad domain";
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.line_bits in
  let set = line_addr land (t.sets - 1) in
  let tag = line_addr lsr t.set_bits in
  let row = set * t.ways in
  let hit_lo, hit_hi = match t.mode with Hard | Secdcp -> fill_ways t ~domain | Shared | Soft -> (0, t.ways) in
  let found = ref None in
  for w = hit_lo to hit_hi - 1 do
    let l = t.lines.(row + w) in
    if !found = None && l.valid && l.tag = tag then found := Some l
  done;
  match !found with
  | Some l ->
    l.lru <- t.clock;
    bump t domain (fun s -> { s with hits = s.hits + 1 });
    Obs.count t.sink Obs.Cache_hit;
    Hit
  | None ->
    bump t domain (fun s -> { s with misses = s.misses + 1 });
    Obs.count t.sink Obs.Cache_miss;
    Obs.count t.sink Obs.Cache_fill;
    (* Fill: evict LRU among the domain's fill ways. *)
    let lo, hi = fill_ways t ~domain in
    let victim = ref t.lines.(row + lo) in
    for w = lo to hi - 1 do
      let l = t.lines.(row + w) in
      if (not l.valid) && !victim.valid then victim := l
      else if l.valid && !victim.valid && l.lru < !victim.lru then victim := l
    done;
    let v = !victim in
    if v.valid && v.owner >= 0 && v.owner <> domain then begin
      bump t v.owner (fun s -> { s with evicted_by_others = s.evicted_by_others + 1 });
      (* Cross-domain evictions are the cache side channel — worth a
         point event each, not just a count. *)
      Obs.count t.sink Obs.Cache_evict;
      Obs.instant t.sink ~ts:t.clock ~track:t.track Obs.Cache "cache_evict" ~arg:v.owner
    end;
    v.tag <- tag;
    v.valid <- true;
    v.owner <- domain;
    v.lru <- t.clock;
    Miss

let flush t = Array.iter (fun l -> l.valid <- false) t.lines

let flush_domain t d =
  Array.iter
    (fun l ->
      if l.valid && l.owner = d then begin
        l.valid <- false;
        l.owner <- -1
      end)
    t.lines

let stats t ~domain = t.per_domain.(domain)
let mode t = t.mode

let occupancy t ~domain =
  Array.fold_left (fun acc l -> if l.valid && l.owner = domain then acc + 1 else acc) 0 t.lines

let flush_way t w =
  for set = 0 to t.sets - 1 do
    let l = t.lines.((set * t.ways) + w) in
    l.valid <- false;
    l.owner <- -1
  done

(* Move one way at boundary [from_domain -> to_domain] by adjusting the
   allocation vector; flush every way past the smallest affected range
   boundary, because way indices shift meaning. Conservative but simple,
   and certainly leak-free. *)
let rebalance t =
  if t.mode <> Secdcp then invalid_arg "Cache.rebalance: only meaningful in Secdcp mode";
  let os = t.per_domain.(0) in
  let hits = os.hits - t.os_hits_mark and misses = os.misses - t.os_misses_mark in
  t.os_hits_mark <- os.hits;
  t.os_misses_mark <- os.misses;
  let total = hits + misses in
  if total = 0 then 0
  else begin
    let miss_rate = float_of_int misses /. float_of_int total in
    let moved = ref 0 in
    let donor () =
      (* Deterministic choice: the non-OS domain holding the most ways.
         Crucially this does not consult any function's cache behaviour. *)
      let best = ref 1 in
      for d = 2 to t.domains - 1 do
        if t.alloc.(d) > t.alloc.(!best) then best := d
      done;
      !best
    in
    let needy () =
      let best = ref 1 in
      for d = 2 to t.domains - 1 do
        if t.alloc.(d) < t.alloc.(!best) then best := d
      done;
      !best
    in
    if miss_rate > 0.5 then begin
      let d = donor () in
      if t.alloc.(d) > 1 then begin
        t.alloc.(d) <- t.alloc.(d) - 1;
        t.alloc.(0) <- t.alloc.(0) + 1;
        moved := 1
      end
    end
    else if miss_rate < 0.1 && t.alloc.(0) > 1 then begin
      let d = needy () in
      t.alloc.(0) <- t.alloc.(0) - 1;
      t.alloc.(d) <- t.alloc.(d) + 1;
      moved := 1
    end;
    if !moved > 0 then
      for w = 0 to t.ways - 1 do
        flush_way t w
      done;
    !moved
  end
