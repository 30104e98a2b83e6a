module type S = sig
  type config
  type report

  val seed : config -> int
  val with_seed : config -> int -> config
  val validate : config -> (unit, string) result
  val run : ?sink:Obs.sink -> ?domains:int -> config -> report
  val summary : report -> string
  val gates : report -> Obs.Gate.t list
end

(* Shard i is the same scenario under its derived seed, on its own rack
   and (optionally) its own recording sink.  Inner runs stay
   single-domain: the parallelism budget is spent on whole shards, which
   keeps every shard's execution identical to a solo run. *)
let many (type c r) (module M : S with type config = c and type report = r) ?(domains = 1) ?(record = false)
    ~shards config =
  Par.Engine.map_seeded ~domains ~seed:(M.seed config) ~shards (fun ~shard:_ ~seed ->
      let sink = if record then Obs.create () else Obs.null in
      (seed, M.run ~sink (M.with_seed config seed), sink))

let check rules =
  match List.find_opt (fun (ok, _) -> not ok) rules with Some (_, msg) -> Error msg | None -> Ok ()

let valid = function Ok () -> () | Error msg -> invalid_arg msg
