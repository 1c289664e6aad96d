(* Stress sweeps: exhaustive small grids of (who crashes, when, seed)
   checking the safety invariants of the flagship algorithms, plus the
   I/O trace plumbing. *)

open Rdma_consensus

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let test_fast_robust_crash_grid () =
  (* Every (crashed pid, crash time, seed) in a small grid: agreement and
     validity must hold in all of them; the fast-path value, when p0
     decided, must survive. *)
  let n = 3 and m = 3 in
  List.iter
    (fun pid ->
      List.iter
        (fun at ->
          List.iter
            (fun seed ->
              let faults = [ Fault.Crash_process { pid; at } ] in
              let report, _, _ = Fast_robust.run ~seed ~n ~m ~inputs:(inputs n) ~faults () in
              let label = Printf.sprintf "p%d@%.1f seed=%d" pid at seed in
              Alcotest.(check bool) ("agreement " ^ label) true
                (Report.agreement_ok report);
              Alcotest.(check bool) ("validity " ^ label) true
                (Report.validity_ok report ~inputs:(inputs n));
              Alcotest.(check bool) ("survivors decide " ^ label) true
                (Report.decided_count report >= 2))
            [ 1; 2 ])
        [ 0.5; 1.5; 2.5; 40.0 ])
    [ 0; 1; 2 ]

let test_pmp_two_fault_grid () =
  (* One process crash and one memory crash, swept jointly. *)
  let n = 3 and m = 3 in
  List.iter
    (fun (pid, p_at) ->
      List.iter
        (fun (mid, m_at) ->
          let faults =
            [ Fault.Crash_process { pid; at = p_at }; Fault.Crash_memory { mid; at = m_at } ]
          in
          let report = Protected_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
          let label = Printf.sprintf "p%d@%.1f mu%d@%.1f" pid p_at mid m_at in
          Alcotest.(check bool) ("agreement " ^ label) true (Report.agreement_ok report);
          Alcotest.(check bool) ("validity " ^ label) true
            (Report.validity_ok report ~inputs:(inputs n));
          Alcotest.(check bool) ("survivors decide " ^ label) true
            (Report.decided_count report >= 1))
        [ (0, 0.5); (1, 1.5); (2, 3.0) ])
    [ (0, 1.0); (1, 2.0); (2, 10.0) ]

let test_cheap_quorum_crash_grid () =
  (* Cheap Quorum standalone under every (crashed pid, crash time, seed)
     in a small grid.  It is not a complete consensus algorithm, so the
     invariants are the abort lemmas' (4.5/4.6): every survivor reaches
     an outcome (panic mode terminates), and all decided values agree. *)
  let open Rdma_mm in
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let cq_cfg = { Cheap_quorum.default_config with fast_timeout = 60.0 } in
  List.iter
    (fun pid ->
      List.iter
        (fun at ->
          List.iter
            (fun seed ->
              let label = Printf.sprintf "p%d@%.1f seed=%d" pid at seed in
              let cluster : string Cluster.t =
                Cluster.create ~seed
                  ~legal_change:(Cheap_quorum.legal_change ~n) ~n ~m ()
              in
              Cheap_quorum.setup_regions cluster;
              let outcomes = Array.make n None in
              for p = 0 to n - 1 do
                Cluster.spawn cluster ~pid:p (fun ctx ->
                    outcomes.(p) <-
                      Some
                        (Cheap_quorum.participate ctx ~cfg:cq_cfg
                           ~input:inputs.(p) ()))
              done;
              Fault.apply cluster [ Fault.Crash_process { pid; at } ];
              Cluster.run cluster;
              Cluster.check_errors cluster;
              let decided = ref [] in
              Array.iteri
                (fun p o ->
                  if p <> pid then begin
                    (match o with
                    | Some (Cheap_quorum.Decided { value; _ }) ->
                        decided := value :: !decided
                    | Some (Cheap_quorum.Aborted _) -> ()
                    | None ->
                        Alcotest.failf "survivor p%d hung (%s)" p label)
                  end)
                outcomes;
              match List.sort_uniq compare !decided with
              | [] | [ _ ] -> ()
              | vs ->
                  Alcotest.failf "conflicting decisions %s (%s)"
                    (String.concat "," vs) label)
            [ 1; 2 ])
        [ 0.5; 1.5; 30.0 ])
    [ 0; 1; 2 ]

let test_robust_backup_crash_grid () =
  (* Robust Backup (Paxos over T-send/T-receive) under the same style of
     grid: full weak-Byzantine-agreement invariants must hold, and both
     survivors must decide — including when the crash lands mid-run
     while histories are in flight. *)
  let n = 3 and m = 3 in
  List.iter
    (fun pid ->
      List.iter
        (fun at ->
          List.iter
            (fun seed ->
              let faults = [ Fault.Crash_process { pid; at } ] in
              let report, byz =
                Robust_backup.run ~seed ~n ~m ~inputs:(inputs n) ~faults ()
              in
              let label = Printf.sprintf "p%d@%.1f seed=%d" pid at seed in
              Alcotest.(check (list int)) ("no byzantine " ^ label) [] byz;
              Alcotest.(check bool) ("agreement " ^ label) true
                (Report.agreement_ok report);
              Alcotest.(check bool) ("validity " ^ label) true
                (Report.validity_ok report ~inputs:(inputs n));
              Alcotest.(check bool) ("survivors decide " ^ label) true
                (Report.decided_count report >= 2))
            [ 1; 2 ])
        [ 1.0; 20.0; 150.0 ])
    [ 0; 1; 2 ]

let test_fast_robust_panic_at_phase_boundary () =
  (* The panic/slow-path switch, pinned to the exact phase boundary: a
     telemetry trigger crashes the leader the instant the cheap-quorum
     span opens, forcing the abort -> Preferential Paxos switch; the
     survivors must still decide one valid value. *)
  let open Rdma_chaos in
  match Scenario.find "fast-robust" with
  | None -> Alcotest.fail "fast-robust scenario not registered"
  | Some s ->
      List.iter
        (fun occurrence ->
          let case =
            {
              Nemesis.case_seed = 7;
              faults = [];
              byz = [];
              triggers =
                [
                  {
                    Nemesis.phase = "fr.cheap-quorum";
                    occurrence;
                    action = Nemesis.Crash_leader;
                  };
                ];
            }
          in
          let outcome = Scenario.run s case in
          Alcotest.(check bool)
            (Printf.sprintf "trigger fired (occurrence %d)" occurrence)
            true
            (outcome.Scenario.fired <> []);
          Alcotest.(check (list string))
            (Printf.sprintf "survivors decide after panic (occurrence %d)"
               occurrence)
            []
            (List.map Oracle.violation_to_string outcome.Scenario.violations))
        [ 1; 2 ]

let test_io_trace_captures_fast_path () =
  (* The recorded event stream holds the m slot writes of the 2-delay
     fast path. *)
  let open Rdma_mm in
  let open Rdma_obs in
  let n = 2 and m = 3 in
  let captured = ref None in
  let prepare cluster =
    captured := Some cluster;
    Obs.set_recording (Cluster.obs cluster) true
  in
  let report = Protected_paxos.run ~n ~m ~inputs:(inputs n) ~prepare () in
  Alcotest.(check bool) "decided" true (Report.decided_count report > 0);
  match !captured with
  | None -> Alcotest.fail "prepare hook never ran"
  | Some cluster ->
      let writes =
        List.filter
          (fun (at, _, ev) ->
            match (ev : Event.t) with
            | Mem_write { pid = 0; _ } -> at = 1.0
            | _ -> false)
          (Obs.events (Cluster.obs cluster))
      in
      Alcotest.(check int) "m slot writes arrive at t=1" m (List.length writes)

let suite =
  [
    Alcotest.test_case "fast-robust crash grid (24 runs)" `Slow
      test_fast_robust_crash_grid;
    Alcotest.test_case "protected-paxos two-fault grid (9 runs)" `Quick
      test_pmp_two_fault_grid;
    Alcotest.test_case "cheap-quorum crash grid (18 runs)" `Slow
      test_cheap_quorum_crash_grid;
    Alcotest.test_case "robust-backup crash grid (18 runs)" `Slow
      test_robust_backup_crash_grid;
    Alcotest.test_case "fast-robust panic at the phase boundary" `Quick
      test_fast_robust_panic_at_phase_boundary;
    Alcotest.test_case "I/O trace captures the fast path" `Quick
      test_io_trace_captures_fast_path;
  ]
