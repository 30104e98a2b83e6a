(* The paper registry (lib/repro): its shape, the claims of every entry
   --fast does not shrink, and EXPERIMENTS.md's embedded copies of those
   entries' CSV.  The entries --fast shrinks (Figure 5, the
   decomposition ablation, the full DPI automaton) take seconds to tens
   of seconds at paper scale; scripts/smoke.sh paper checks them. *)

let outputs = lazy (List.map (fun e -> (e, Repro.run ~fast:true e)) Repro.all)

let test_shape () =
  let ids = List.map Repro.id Repro.all in
  Alcotest.(check int) "ids are unique" (List.length ids) (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (e, (out : Repro.output)) ->
      List.iter
        (fun (t : Repro.table) ->
          List.iter
            (fun row ->
              Alcotest.(check int) (Repro.id e ^ ": row as wide as its header") (List.length t.header) (List.length row))
            t.rows)
        out.tables)
    (Lazy.force outputs)

let unshrunk () = List.filter (fun (e, _) -> not (Repro.shrinks e)) (Lazy.force outputs)

let test_claims_hold () =
  List.iter
    (fun (e, out) ->
      List.iter (fun g -> Alcotest.failf "claim fails: %s" (Obs.Gate.to_string g)) (Obs.Gate.failed (Repro.claims e out)))
    (unshrunk ())

(* The CSV block after each <!-- repro:ID --> line, in file order. *)
let doc_blocks text =
  let rec block acc = function
    | "```" :: rest -> (List.rev acc, rest)
    | line :: rest -> block (line :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let rec go acc = function
    | marker :: "```csv" :: rest when String.starts_with ~prefix:"<!-- repro:" marker ->
      let id = String.sub marker 11 (String.length marker - 15) in
      let lines, rest = block [] rest in
      go ((id, String.concat "" (List.map (fun l -> l ^ "\n") lines)) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (String.split_on_char '\n' text)

let test_experiments_doc () =
  let blocks = doc_blocks (In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all) in
  Alcotest.(check (list string)) "one block per entry, in registry order" (List.map Repro.id Repro.all) (List.map fst blocks);
  List.iter
    (fun (e, out) -> Alcotest.(check string) (Repro.id e ^ " block") (Repro.to_csv e out) (List.assoc (Repro.id e) blocks))
    (unshrunk ())

let suite =
  [
    Alcotest.test_case "registry shape" `Slow test_shape;
    Alcotest.test_case "unshrunk claims hold" `Quick test_claims_hold;
    Alcotest.test_case "EXPERIMENTS.md blocks match" `Quick test_experiments_doc;
  ]
