(* Runs one workload: set-up, equal timed rounds of the same seeded op
   list, output checks, and the raw material for every metric.

   Untraced runs (the end-to-end metrics) install no profiler and
   record no spans.  A traced run alternates untraced and traced
   rounds, so the tracing overhead is measured under the same host
   speed; the per-layer metrics come from its traced rounds only. *)

open Rdma_obs

let workloads = [ Op.W Byz_fast.spec; Op.W Smr_kv.spec; Op.W Chaos_recovery.spec ]

let find name = List.find_opt (fun w -> Op.name w = name) workloads

(* Set-up runs this many times and reports the median. *)
let setups = 5

(* A run times at least this many rounds of each kind, even past its
   time budget. *)
let min_rounds = 3

type result = {
  name : string;
  unit_name : string;
  primary : string;  (** the series behind [op_delays_*] *)
  ops : int;  (** op-list length *)
  units_per_round : int;
  setup_s : float list;
  untraced_s : float list;  (** wall time of each untraced round *)
  traced_s : float list;
  reference : Op.outcome array;  (** the warm-up pass, op by op *)
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failures, for the report *)
  prof : Prof.t;  (** traced rounds only *)
  obs : Obs.t;  (** every traced op's cluster metrics, merged *)
  spans : Spans.t;
}

let max_errors = 5

let run ?blocks ~workload:(Op.W spec) ~seed ~seconds ~trace () =
  let blocks = Option.value blocks ~default:spec.blocks in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let note (o : Op.outcome) =
    attempted := !attempted + o.units;
    failed := !failed + o.failed;
    List.iter
      (fun e ->
        if List.length !errors < max_errors && not (List.mem e !errors) then
          errors := !errors @ [ e ])
      o.errors
  in
  let quiet = Op.ctx (Spans.create ~on:false) in
  let spans = Spans.create ~on:true in
  let prof = Prof.create () in
  let obs = Obs.create () in
  let pass ~traced ops =
    let c = if traced then Op.ctx spans else quiet in
    let t0 = Prof_clock.now () in
    let outcomes =
      Array.mapi
        (fun id op ->
          Spans.set_op c.spans id;
          let o =
            Spans.with_span c.spans "op" (fun () ->
                try spec.run c ~id op
                with e ->
                  {
                    Op.units = 1;
                    failed = 1;
                    errors = [ Printf.sprintf "op %d raised %s" id (Printexc.to_string e) ];
                    samples = [];
                    counts = [];
                  })
          in
          List.iter (fun col -> Obs.merge ~into:obs col) c.collectors;
          c.collectors <- [];
          note o;
          o)
        ops
    in
    let wall = Prof_clock.now () -. t0 in
    (outcomes, wall)
  in
  (* Set-up: generate the op list and warm up on one untimed pass over
     it, whose outcomes every timed round must then repeat. *)
  let setup () =
    let t0 = Prof_clock.now () in
    let ops = spec.gen ~seed ~blocks in
    let outcomes, _ = pass ~traced:false ops in
    (ops, outcomes, Prof_clock.now () -. t0)
  in
  let rec setup_n k acc =
    let ops, outcomes, t = setup () in
    if k <= 1 then (ops, outcomes, List.rev (t :: acc)) else setup_n (k - 1) (t :: acc)
  in
  let ops, reference, setup_s = setup_n setups [] in
  let deadline = Prof_clock.now () +. float_of_int seconds in
  let untraced = ref [] and traced = ref [] in
  let rec rounds k =
    let want_traced = trace && k mod 2 = 1 in
    let enough =
      List.length !untraced >= min_rounds
      && ((not trace) || List.length !traced >= min_rounds)
    in
    if not (enough && Prof_clock.now () >= deadline) then begin
      let outcomes, wall =
        if want_traced then Prof.with_profiler prof (fun () -> pass ~traced:true ops)
        else pass ~traced:false ops
      in
      if want_traced then traced := wall :: !traced else untraced := wall :: !untraced;
      (* Every round replays the same op list: its outcomes must repeat
         the warm-up's exactly, traced or not. *)
      if outcomes <> reference then begin
        let units = Array.fold_left (fun a (o : Op.outcome) -> a + o.units) 0 outcomes in
        failed := !failed + units;
        errors := !errors @ [ Printf.sprintf "round %d differs from the warm-up" k ]
      end;
      rounds (k + 1)
    end
  in
  rounds 0;
  {
    name = spec.name;
    unit_name = spec.unit_name;
    primary = spec.primary;
    ops = Array.length ops;
    units_per_round = Array.fold_left (fun a (o : Op.outcome) -> a + o.units) 0 reference;
    setup_s;
    untraced_s = List.rev !untraced;
    traced_s = List.rev !traced;
    reference;
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
    prof;
    obs;
    spans;
  }

(* A series of the warm-up pass, concatenated over ops. *)
let series r name = Array.to_list r.reference |> List.concat_map (fun o -> Op.sample_of o name)

let series_names r =
  Array.to_list r.reference
  |> List.concat_map (fun (o : Op.outcome) -> List.map fst o.samples)
  |> List.sort_uniq compare

let count r key = Array.fold_left (fun a o -> a + Op.count_of o key) 0 r.reference

let ops_per_s r rounds = float_of_int r.units_per_round /. Pct.median rounds
