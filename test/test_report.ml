(* Unit tests for the reporting/observability layer: Report invariant
   checks, Stats, Fault pretty-printing, Memclient quorum
   helpers. *)

open Rdma_sim
open Rdma_mem
open Rdma_consensus

let mk_report decisions =
  Report.of_cluster ~algorithm:"test" ~decisions
    (Rdma_mm.Cluster.create ~n:(Array.length decisions) ~m:0 ())

let d v at = Some { Report.value = v; at }

let test_agreement () =
  Alcotest.(check bool) "uniform" true
    (Report.agreement_ok (mk_report [| d "x" 1.0; d "x" 2.0; None |]));
  Alcotest.(check bool) "split detected" false
    (Report.agreement_ok (mk_report [| d "x" 1.0; d "y" 2.0 |]));
  Alcotest.(check bool) "split excused for ignored pid" true
    (Report.agreement_ok ~ignore_pids:[ 1 ] (mk_report [| d "x" 1.0; d "y" 2.0 |]));
  Alcotest.(check bool) "vacuous when nobody decides" true
    (Report.agreement_ok (mk_report [| None; None |]))

let test_validity () =
  let inputs = [| "a"; "b" |] in
  Alcotest.(check bool) "input decided" true
    (Report.validity_ok (mk_report [| d "b" 1.0; None |]) ~inputs);
  Alcotest.(check bool) "invented value flagged" false
    (Report.validity_ok (mk_report [| d "z" 1.0; None |]) ~inputs);
  Alcotest.(check bool) "invented value excused for ignored pid" true
    (Report.validity_ok ~ignore_pids:[ 0 ] (mk_report [| d "z" 1.0; None |]) ~inputs)

let test_decision_times () =
  let r = mk_report [| d "x" 5.0; d "x" 2.0; None |] in
  Alcotest.(check (option (float 0.0))) "first" (Some 2.0) (Report.first_decision_time r);
  Alcotest.(check (option (float 0.0))) "last" (Some 5.0) (Report.last_decision_time r);
  Alcotest.(check int) "count" 2 (Report.decided_count r);
  Alcotest.(check (option (float 0.0))) "no decisions" None
    (Report.first_decision_time (mk_report [| None |]))

let test_stats () =
  let s = Stats.create () in
  Stats.incr_messages s;
  Stats.incr_reads s;
  Stats.incr_writes s;
  Stats.incr_perm_changes s;
  Alcotest.(check int) "mem ops sum" 3 (Stats.mem_ops s);
  Stats.bump s "foo";
  Stats.bump s "foo";
  Alcotest.(check int) "named counter" 2 (Stats.get s "foo");
  Stats.set s "foo" 7;
  Alcotest.(check int) "set overrides" 7 (Stats.get s "foo");
  Alcotest.(check int) "unknown counter is 0" 0 (Stats.get s "bar")

let test_fault_pp () =
  let s = Fmt.str "%a" Fault.pp (Fault.Crash_process { pid = 2; at = 1.5 }) in
  Alcotest.(check string) "crash pp" "crash p2@1.5" s;
  let s = Fmt.str "%a" Fault.pp (Fault.Async_until { gst = 30.0; extra = 25.0 }) in
  Alcotest.(check string) "async pp" "async(+25.0)until@30.0" s

let test_memclient_quorum () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let memories = Array.init 5 (fun mid -> Memory.create ~engine ~stats ~mid ()) in
  Array.iter
    (fun mem ->
      Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2)
        ~registers:[ "x" ])
    memories;
  Memory.crash memories.(4);
  let c = Memclient.create ~pid:0 ~memories in
  Alcotest.(check int) "majority of 5" 3 (Memclient.majority c);
  let finished_at = ref nan in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let w = Memclient.write_quorum c ~region:"r" ~reg:"x" "v" in
         Alcotest.(check bool) "quorum write acks despite one crash" true
           (w = Memory.Ack);
         let reads = Memclient.read_quorum c ~region:"r" ~reg:"x" in
         Alcotest.(check bool) "read quorum reaches majority" true
           (List.length reads >= 3);
         finished_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "two ops cost four delays" 4.0 !finished_at

let test_report_pp_smoke () =
  let r = mk_report [| d "x" 2.0; None |] in
  let s = Fmt.str "%a" Report.pp r in
  Alcotest.(check bool) "pp mentions algorithm" true
    (String.length s > 0 && String.sub s 0 4 = "test")

let suite =
  [
    Alcotest.test_case "agreement checks" `Quick test_agreement;
    Alcotest.test_case "validity checks" `Quick test_validity;
    Alcotest.test_case "decision time extraction" `Quick test_decision_times;
    Alcotest.test_case "stats counters" `Quick test_stats;
    Alcotest.test_case "fault pretty-printing" `Quick test_fault_pp;
    Alcotest.test_case "memclient quorum helpers" `Quick test_memclient_quorum;
    Alcotest.test_case "report pretty-printing" `Quick test_report_pp_smoke;
  ]
