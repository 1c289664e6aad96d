(* byz-fast: one op is one Fast & Robust instance (Section 4.3).

   Instances alternate n = 3 and n = 5 with m = 3.  In every block of
   ten, exactly one n = 3 and one n = 5 instance run an equivocating
   Cheap Quorum leader at p0 with Omega pointed at p1 from t = 0, which
   forces the Preferential Paxos slow path; the seed picks which ones,
   and draws every input and the cluster seeds.  Fixing the mix per
   block keeps the cost of a round the same for every seed. *)

open Rdma_consensus

type op = {
  n : int;
  attacked : bool;
  inputs : string array;
  v1 : string;  (** the equivocator's two values *)
  v2 : string;
  cluster_seed : int;
}

let m = 3

let block = 10

let fast_path_delays = 2.0

let gen ~seed ~blocks =
  let rng = Random.State.make [| seed; 0x62797a |] in
  let word tag = Printf.sprintf "%s%08x" tag (Random.State.bits rng) in
  Array.concat
    (List.init blocks (fun _ ->
         let atk3 = Random.State.int rng (block / 2) in
         let atk5 = Random.State.int rng (block / 2) in
         Array.init block (fun j ->
             let n = if j mod 2 = 0 then 3 else 5 in
             let attacked = j / 2 = if n = 3 then atk3 else atk5 in
             let inputs = Array.init n (fun _ -> word "in-") in
             let v1 = word "eqa-" in
             let v2 = word "eqb-" in
             { n; attacked; inputs; v1; v2; cluster_seed = Random.State.bits rng })))

let run (c : Op.ctx) ~id op =
  let byzantine, faults =
    if op.attacked then
      ( [ (0, Attacks.cq_equivocating_leader ~v1:op.v1 ~v2:op.v2) ],
        [ Fault.Set_leader { pid = 1; at = 0.0 } ] )
    else ([], [])
  in
  let report, byz, _ =
    Op.split_at_prepare c "fast_robust.run" (fun prepare ->
        Fast_robust.run ~seed:op.cluster_seed ~faults ~byzantine ~prepare ~n:op.n ~m
          ~inputs:op.inputs ())
  in
  Spans.with_span c.spans "check" @@ fun () ->
  let correct = List.filter (fun p -> not (List.mem p byz)) (List.init op.n Fun.id) in
  let decided =
    List.filter_map (fun p -> report.Report.decisions.(p)) correct
  in
  let fail what = Printf.sprintf "instance %d (n=%d): %s" id op.n what in
  let errors =
    List.concat
      [
        (if Report.agreement_ok ~ignore_pids:byz report then []
         else [ fail "agreement violated" ]);
        (if Report.validity_ok ~ignore_pids:byz report ~inputs:op.inputs then []
         else [ fail "validity violated" ]);
        (if List.length decided = List.length correct then []
         else [ fail "a correct process did not decide" ]);
        (if
           List.exists
             (fun (d : Report.decision) -> d.value = op.v1 || d.value = op.v2)
             decided
         then [ fail "an equivocated value was decided" ]
         else []);
      ]
  in
  (* Preferential Paxos always runs behind Cheap Quorum; an instance
     took the slow path when it missed the two-delay decision. *)
  let slow =
    match Report.first_decision_time report with
    | Some at -> at > fast_path_delays
    | None -> true
  in
  {
    Op.units = 1;
    failed = Bool.to_int (errors <> []);
    errors;
    samples =
      [
        ( "first_decide_delays",
          Option.to_list (Report.first_decision_time report) );
        ("decide_delays", List.map (fun (d : Report.decision) -> d.at) decided);
      ];
    counts = [ ("slow_path", Bool.to_int slow) ];
  }

let spec =
  {
    Op.name = "byz-fast";
    unit_name = "instances";
    blocks = 4;
    gen;
    run;
    primary = "decide_delays";
  }
