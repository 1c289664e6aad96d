(* chaos-recovery: one op is one chaos schedule — [Scenario.generate]
   with adversary triggers, [Scenario.run], and the oracle's verdict.

   Schedules go round-robin over the four recovery scenarios.  The
   ordering mode is drawn from each scenario's budget pool, and every
   schedule stays within its budget, so any oracle violation is a
   failed op.  The seed only picks the case seeds. *)

open Rdma_consensus
open Rdma_chaos

let scenarios =
  List.map
    (fun name ->
      match Scenario.find name with
      | Some sc -> sc
      | None -> invalid_arg ("perfbench: unknown chaos scenario " ^ name))
    [ "swmr-recovery"; "pmp-multi-recovery"; "smr-pmp-recovery"; "smr-velos-recovery" ]
  |> Array.of_list

type op = { scenario : Scenario.t; case_seed : int }

let block = Array.length scenarios

let gen ~seed ~blocks =
  let rng = Random.State.make [| seed; 0x6368 |] in
  Array.init (blocks * block) (fun i ->
      { scenario = scenarios.(i mod block); case_seed = Random.State.bits rng })

(* Scenarios whose decision times are protocol latencies.  The SMR
   scenarios' replicas decide their joined logs at a fixed virtual time,
   so their decision times say nothing about speed. *)
let latency_scenarios = [ "swmr-recovery"; "pmp-multi-recovery" ]

(* Counters the recovery protocols keep in the run report. *)
let repair_counters = [ "smr.repairs"; "velos.repairs"; "pmpm.repairs" ]

let run (c : Op.ctx) ~id op =
  let sp = c.spans in
  let case =
    Spans.with_span sp "scenario.generate" (fun () ->
        Scenario.generate op.scenario ~adversary:true ~seed:op.case_seed ())
  in
  let outcome =
    Op.split_at_prepare c "scenario.run" (fun prepare ->
        Scenario.run ~prepare op.scenario case)
  in
  Spans.with_span sp "check" @@ fun () ->
  let errors =
    if Scenario.passed outcome && outcome.violations = [] then []
    else
      [
        Printf.sprintf "schedule %d (%s, case seed %d): %s" id op.scenario.name
          op.case_seed
          (match outcome.violations with
          | [] -> "did not pass"
          | vs -> String.concat "; " (List.map Oracle.violation_to_string vs));
      ]
  in
  let byz = List.map fst case.byz in
  let decisions, repairs =
    match outcome.report with
    | None -> ([], 0)
    | Some r ->
        ( Array.to_list r.Report.decisions
          |> List.filteri (fun pid _ -> not (List.mem pid byz))
          |> List.filter_map (Option.map (fun (d : Report.decision) -> d.at)),
          List.fold_left (fun acc k -> acc + Report.named r k) 0 repair_counters )
  in
  {
    Op.units = 1;
    failed = Bool.to_int (errors <> []);
    errors;
    samples =
      (op.scenario.name ^ ".decide_delays", decisions)
      :: (if List.mem op.scenario.name latency_scenarios then
            [ ("recovery_decide_delays", decisions) ]
          else []);
    counts = [ ("fired", List.length outcome.fired); ("repairs", repairs) ];
  }

let spec =
  {
    Op.name = "chaos-recovery";
    unit_name = "schedules";
    blocks = 500;
    gen;
    run;
    primary = "recovery_decide_delays";
  }
