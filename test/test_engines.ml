(* The engine-agnostic SMR layer: one replication/failover/read suite
   instantiated for EVERY registered consensus engine (pmp and velos must
   pass it unmodified), the engine registry, and the velos lease-safety
   properties — a leased read costs zero memory operations, expiry and
   failover fall back to quorum confirmation, and the deliberately
   stale-lease fixture is caught by the chaos oracle. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_smr

let base_cfg =
  {
    Consensus_engine.default_config with
    replicas = 3;
    max_entries = 32;
    serve_until = 500.0;
    anti_entropy_every = 10.0;
    lease_duration = 25.0;
  }

let build (module E : Consensus_engine.S) ?(cfg = base_cfg) ?(seed = 1)
    ~clients ~m () =
  let n = cfg.Consensus_engine.replicas + clients in
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(E.legal_change cfg) ~n ~m ()
  in
  E.setup_regions cluster cfg;
  cluster

let spawn_replicas engine ?(cfg = base_cfg) cluster =
  Array.init cfg.Consensus_engine.replicas (fun pid ->
      Consensus_engine.spawn engine cluster ~cfg ~pid ())

(* --- the shared suite, parametric in the engine --------------------- *)

let test_replication_and_kv ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  let commands =
    List.map Kv.encode_command
      [ Kv.Set ("a", "1"); Kv.Set ("b", "2"); Kv.Delete "a"; Kv.Set ("c", "3") ]
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          let index = E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0 in
          results := (cmd, index) :: !results)
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (option int)))
    "commands committed in order"
    [ Some 1; Some 2; Some 3; Some 4 ]
    (List.rev_map snd !results);
  let logs = Array.map Consensus_engine.applied replicas in
  Alcotest.(check bool)
    "replicas agree" true
    (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  Alcotest.(check bool) "leader's term established" true
    (Consensus_engine.current_term replicas.(0) > 0);
  let kv = Kv.of_replica replicas.(1) in
  Alcotest.(check (option string)) "a deleted" None (Kv.get kv "a");
  Alcotest.(check (option string)) "b present" (Some "2") (Kv.get kv "b");
  Alcotest.(check (option string)) "c present" (Some "3") (Kv.get kv "c")

let test_commit_stream ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  (* [Kv.attach] consumes the engine's on_commit stream incrementally
     instead of re-reading the whole log. *)
  let live = Kv.attach replicas.(2) in
  let seen = ref [] in
  Consensus_engine.on_commit replicas.(2) (fun ~index ~cmd:_ ->
      seen := index :: !seen);
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        (List.map Kv.encode_command [ Kv.Set ("x", "1"); Kv.Set ("x", "2") ]));
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list int)) "stream delivered in order" [ 1; 2 ]
    (List.rev !seen);
  Alcotest.(check (option string)) "attached KV is live" (Some "2")
    (Kv.get live "x")

let test_failover_preserves_log ((module E : Consensus_engine.S) as engine) ()
    =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  let commands =
    List.init 6 (fun i ->
        Kv.encode_command (Kv.Set (Printf.sprintf "k%d" i, string_of_int i)))
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          if seq < 3 then
            results :=
              (cmd, E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:150.0)
              :: !results)
        commands;
      Cluster.crash_process cluster 0;
      List.iteri
        (fun seq cmd ->
          if seq >= 3 then
            results :=
              (cmd, E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:250.0)
              :: !results)
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all six committed" 6
    (List.length (List.filter (fun (_, i) -> i <> None) !results));
  let l1 = Consensus_engine.applied replicas.(1) in
  let l2 = Consensus_engine.applied replicas.(2) in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check int) "no committed entry lost" 6 (List.length l1);
  let kv = Kv.of_replica replicas.(1) in
  Alcotest.(check (option string)) "early write survived failover" (Some "0")
    (Kv.get kv "k0");
  Alcotest.(check (option string)) "late write present" (Some "5")
    (Kv.get kv "k5")

let test_memory_crash_tolerated ((module E : Consensus_engine.S) as engine) ()
    =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          results := E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0 :: !results)
        [ "c0"; "c1"; "c2" ]);
  Cluster.crash_memory_at cluster ~at:0.0 1;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check bool) "all committed with 2/3 memories" true
    (List.for_all (fun i -> i <> None) !results);
  Alcotest.(check int) "replica applied them" 3
    (Consensus_engine.applied_count replicas.(2))

let test_linearizable_read ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let observed = ref (-1) in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        [ "a"; "b" ];
      match E.linearizable_read ctx ~cfg:base_cfg ~seq:100 ~timeout:200.0 with
      | Some up_to -> observed := up_to
      | None -> ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "read covers every acked append" 2 !observed;
  ignore replicas

let test_lock_service ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let commands =
    [
      Lock_service.encode_command (Lock_service.Acquire { lock = "l"; owner = "p3" });
      Lock_service.encode_command (Lock_service.Acquire { lock = "l"; owner = "p4" });
      Lock_service.encode_command (Lock_service.Release { lock = "l"; owner = "p3" });
    ]
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let locks = Lock_service.of_replica replicas.(0) in
  (* p3 released; p4 was queued and now holds the lock *)
  Alcotest.(check (option string)) "queued waiter promoted" (Some "p4")
    (Option.map fst (Lock_service.holder locks "l"))

(* --- registry ------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string)) "both engines registered" [ "pmp"; "velos" ]
    Engines.names;
  (match Engines.find "velos" with
  | Some (module E : Consensus_engine.S) ->
      Alcotest.(check string) "find resolves" "velos" E.name
  | None -> Alcotest.fail "velos not found");
  Alcotest.check_raises "unknown engine rejected"
    (Invalid_argument "unknown engine \"nope\" (have: pmp, velos)") (fun () ->
      ignore (Engines.get "nope"))

(* --- velos lease safety --------------------------------------------- *)

let velos : Consensus_engine.engine = (module Velos)

let run_profiled cluster =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      Cluster.run cluster;
      Cluster.check_errors cluster);
  prof

(* Sum counter [name] over every profiler scope whose path mentions
   [scope] (reads are served inside replica fibers, so the scope nests
   under the caller's frames). *)
let counter_in prof ~scope ~name =
  List.fold_left
    (fun acc (path, counters) ->
      let contains =
        let lp = String.length path and ls = String.length scope in
        let rec probe i =
          i + ls <= lp && (String.sub path i ls = scope || probe (i + 1))
        in
        probe 0
      in
      if contains then acc + (try List.assoc name counters with Not_found -> 0)
      else acc)
    0 (Prof.by_scope prof)

let leased_scope_seen prof =
  List.exists
    (fun (path, _) ->
      let lp = String.length path in
      let scope = "velos.read.leased" in
      let ls = String.length scope in
      let rec probe i = i + ls <= lp && (String.sub path i ls = scope || probe (i + 1)) in
      probe 0)
    (Prof.by_scope prof)

let test_leased_read_zero_mem_ops () =
  let module E = Velos in
  (* Long enough that the reign-start lease covers every read below
     (the serve loop paces one read per 4-delay request timeout). *)
  let cfg = { base_cfg with Consensus_engine.lease_duration = 60.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let reads = ref [] in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg ~seq ~cmd ~timeout:200.0))
        [ "a"; "b"; "c" ];
      (* The reign-start lease refresh covers these: no quorum rounds. *)
      for seq = 100 to 103 do
        reads := E.linearizable_read ctx ~cfg ~seq ~timeout:200.0 :: !reads
      done);
  let prof = run_profiled cluster in
  Alcotest.(check (list (option int))) "reads all answered and current"
    [ Some 3; Some 3; Some 3; Some 3 ]
    !reads;
  Alcotest.(check bool) "leased-read scope exercised" true
    (leased_scope_seen prof);
  Alcotest.(check int) "a leased read issues ZERO memory operations" 0
    (counter_in prof ~scope:"velos.read.leased" ~name:"mem.ops.issued");
  Alcotest.(check bool) "leased reads were served" true
    (counter_in prof ~scope:"velos.read.leased" ~name:"smr.reads.leased" >= 4);
  Alcotest.(check int) "stat plane agrees: no read paid a quorum round" 0
    (Stats.get (Cluster.stats cluster) "velos.reads.quorum")

let test_expired_lease_pays_quorum () =
  let module E = Velos in
  let cfg = { base_cfg with Consensus_engine.lease_duration = 5.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let read = ref None in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      ignore (E.submit ctx ~cfg ~seq:0 ~cmd:"a" ~timeout:200.0);
      (* outlive the 5-delay lease, then read: the replica must fall
         back to a quorum round before answering *)
      Engine.sleep 40.0;
      read := E.linearizable_read ctx ~cfg ~seq:100 ~timeout:200.0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (option int)) "read still linearizes" (Some 1) !read;
  Alcotest.(check bool) "expired lease paid a quorum round" true
    (Stats.get (Cluster.stats cluster) "velos.reads.quorum" >= 1)

let test_zero_duration_disables_leases () =
  let module E = Velos in
  let cfg = { base_cfg with Consensus_engine.lease_duration = 0.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      ignore (E.submit ctx ~cfg ~seq:0 ~cmd:"a" ~timeout:200.0);
      for seq = 100 to 101 do
        ignore (E.linearizable_read ctx ~cfg ~seq ~timeout:200.0)
      done);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "no leased reads" 0
    (Stats.get (Cluster.stats cluster) "velos.reads.leased");
  Alcotest.(check bool) "every read paid quorum" true
    (Stats.get (Cluster.stats cluster) "velos.reads.quorum" >= 2)

let test_read_after_failover () =
  let module E = Velos in
  (* Long lease so it is still valid when the successor's recovery
     finishes (~27 delays in: detection + permission swap + gather). *)
  let cfg = { base_cfg with Consensus_engine.lease_duration = 60.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let read = ref None in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg ~seq ~cmd ~timeout:150.0))
        [ "a"; "b" ];
      (* Depose the leaseholder: the successor must wait out the lease
         on the shared virtual clock before serving reads. *)
      Cluster.crash_process cluster 0;
      read := E.linearizable_read ctx ~cfg ~seq:100 ~timeout:250.0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (option int)) "post-failover read sees every acked append"
    (Some 2) !read;
  Alcotest.(check bool) "successor waited out the predecessor's lease" true
    (Stats.get (Cluster.stats cluster) "velos.lease.waits" >= 1)

let test_stale_lease_fixture_caught () =
  let scenario =
    match Rdma_chaos.Scenario.find "velos-stale-lease" with
    | Some s -> s
    | None -> Alcotest.fail "velos-stale-lease scenario not registered"
  in
  let options = { Rdma_chaos.Explore.default_options with runs = 2; seed = 11 } in
  let batch = Rdma_chaos.Explore.explore ~options scenario in
  Alcotest.(check int) "every schedule catches the stale lease" 2
    (List.length batch.Rdma_chaos.Explore.failures)

(* --- suite ---------------------------------------------------------- *)

let per_engine =
  List.concat_map
    (fun ((module E : Consensus_engine.S) as engine) ->
      let t name f =
        Alcotest.test_case (Printf.sprintf "%s: %s" E.name name) `Quick
          (f engine)
      in
      [
        t "replication + kv" test_replication_and_kv;
        t "commit stream + live kv" test_commit_stream;
        t "leader failover preserves log" test_failover_preserves_log;
        t "memory crash tolerated" test_memory_crash_tolerated;
        t "linearizable read" test_linearizable_read;
        t "lock service" test_lock_service;
      ])
    Engines.all

let suite =
  per_engine
  @ [
      Alcotest.test_case "engine registry" `Quick test_registry;
      Alcotest.test_case "velos: leased read = 0 mem ops" `Quick
        test_leased_read_zero_mem_ops;
      Alcotest.test_case "velos: expired lease pays quorum" `Quick
        test_expired_lease_pays_quorum;
      Alcotest.test_case "velos: lease_duration=0 disables leases" `Quick
        test_zero_duration_disables_leases;
      Alcotest.test_case "velos: read after failover" `Quick
        test_read_after_failover;
      Alcotest.test_case "velos: stale-lease fixture caught" `Quick
        test_stale_lease_fixture_caught;
    ]
