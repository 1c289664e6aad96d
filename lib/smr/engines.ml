(* The engine registry: a static list (simlint D6 bans module-level
   mutable registration state in lib/), so adding an engine means
   adding a line here — which is the point: the CLI, the chaos
   scenarios and the bench harness all enumerate this list instead of
   hard-coding engine names. *)

let all : Consensus_engine.engine list =
  [ (module Smr_log); (module Velos) ]

let names = List.map (fun (module E : Consensus_engine.S) -> E.name) all

let find name =
  List.find_opt (fun (module E : Consensus_engine.S) -> E.name = name) all

let get name =
  match find name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown engine %S (have: %s)" name
           (String.concat ", " names))
