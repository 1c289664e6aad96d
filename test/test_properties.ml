(* Property-based tests: safety invariants over randomized seeds, inputs
   and fault schedules, for every consensus algorithm and the replicated
   register. *)

open Rdma_consensus

let value_gen = QCheck2.Gen.(map (Printf.sprintf "val-%d") (0 -- 1000))

(* {2 Classic Paxos} *)

let paxos_random_crashes =
  QCheck2.Test.make ~name:"paxos: safety under random minority crashes" ~count:25
    QCheck2.Gen.(
      tup4 (1 -- 1000) (array_size (return 5) value_gen)
        (list_size (0 -- 2) (pair (0 -- 4) (float_range 0.0 12.0)))
        unit)
    (fun (seed, inputs, crashes, ()) ->
      let crashes =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) crashes
      in
      let faults =
        List.map (fun (pid, at) -> Fault.Crash_process { pid; at }) crashes
      in
      let report = Paxos.run ~seed ~n:5 ~inputs ~faults () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

let paxos_always_terminates_without_faults =
  QCheck2.Test.make ~name:"paxos: all decide in failure-free runs" ~count:20
    QCheck2.Gen.(pair (1 -- 1000) (array_size (return 3) value_gen))
    (fun (seed, inputs) ->
      let report = Paxos.run ~seed ~n:3 ~inputs () in
      Report.decided_count report = 3 && Report.agreement_ok report)

(* {2 Protected Memory Paxos} *)

let pmp_random_mixed_faults =
  QCheck2.Test.make
    ~name:"protected-paxos: safety under random process+memory crashes" ~count:25
    QCheck2.Gen.(
      tup4 (1 -- 1000)
        (array_size (return 4) value_gen)
        (list_size (0 -- 3) (pair (0 -- 3) (float_range 0.0 10.0)))
        (list_size (0 -- 2) (pair (0 -- 4) (float_range 0.0 10.0)))
      )
    (fun (seed, inputs, pcrashes, mcrashes) ->
      let pcrashes = List.sort_uniq (fun (a, _) (b, _) -> compare a b) pcrashes in
      let mcrashes = List.sort_uniq (fun (a, _) (b, _) -> compare a b) mcrashes in
      let faults =
        List.map (fun (pid, at) -> Fault.Crash_process { pid; at }) pcrashes
        @ List.map (fun (mid, at) -> Fault.Crash_memory { mid; at }) mcrashes
      in
      let report = Protected_paxos.run ~seed ~n:4 ~m:5 ~inputs ~faults () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

let pmp_leader_changes =
  QCheck2.Test.make ~name:"protected-paxos: safety under random leader flapping"
    ~count:25
    QCheck2.Gen.(
      pair (1 -- 1000) (list_size (1 -- 4) (pair (0 -- 2) (float_range 0.0 20.0))))
    (fun (seed, changes) ->
      let inputs = [| "a"; "b"; "c" |] in
      let faults =
        List.map (fun (pid, at) -> Fault.Set_leader { pid; at }) changes
      in
      let report = Protected_paxos.run ~seed ~n:3 ~m:3 ~inputs ~faults () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

(* {2 Disk Paxos} *)

let disk_paxos_random =
  QCheck2.Test.make ~name:"disk-paxos: safety under random faults" ~count:15
    QCheck2.Gen.(
      tup3 (1 -- 1000)
        (list_size (0 -- 1) (pair (0 -- 2) (float_range 0.0 10.0)))
        (list_size (0 -- 1) (pair (0 -- 2) (float_range 0.0 10.0))))
    (fun (seed, pcrashes, mcrashes) ->
      let inputs = [| "a"; "b"; "c" |] in
      let faults =
        List.map (fun (pid, at) -> Fault.Crash_process { pid; at }) pcrashes
        @ List.map (fun (mid, at) -> Fault.Crash_memory { mid; at }) mcrashes
      in
      let report = Disk_paxos.run ~seed ~n:3 ~m:3 ~inputs ~faults () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

(* {2 Aligned Paxos} *)

let aligned_combined_minority =
  QCheck2.Test.make
    ~name:"aligned-paxos: decides under any random combined minority" ~count:15
    QCheck2.Gen.(
      tup3 (1 -- 1000) (0 -- 4) (0 -- 4)
      (* pick 2 of the 5 agents (n=3, m=2) to kill, by agent index *))
    (fun (seed, a1, a2) ->
      let n = 3 and m = 2 in
      let agents = List.sort_uniq compare [ a1; a2 ] in
      let faults =
        List.map
          (fun a ->
            if a < n then Fault.Crash_process { pid = a; at = 0.0 }
            else Fault.Crash_memory { mid = a - n; at = 0.0 })
          agents
      in
      let inputs = [| "a"; "b"; "c" |] in
      let report = Aligned_paxos.run ~seed ~n ~m ~inputs ~faults () in
      Report.agreement_ok report
      && Report.validity_ok report ~inputs
      && (* liveness: unless every process died, someone decides *)
      (List.for_all (fun a -> a < n) agents && List.length agents = n
      || Report.decided_count report >= 1))

(* {2 Fast Paxos} *)

let fast_paxos_collisions =
  QCheck2.Test.make ~name:"fast-paxos: safety under random proposal staggering"
    ~count:20
    QCheck2.Gen.(pair (1 -- 1000) (float_range 0.0 3.0))
    (fun (seed, stagger) ->
      let cfg = { Fast_paxos.default_config with proposer_stagger = stagger } in
      let inputs = [| "a"; "b"; "c" |] in
      let report = Fast_paxos.run ~cfg ~seed ~n:3 ~inputs () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

(* {2 Fast & Robust} *)

let fast_robust_crash_times =
  QCheck2.Test.make
    ~name:"fast-robust: composition safety under random follower crash" ~count:10
    QCheck2.Gen.(tup3 (1 -- 1000) (1 -- 2) (float_range 0.0 10.0))
    (fun (seed, pid, at) ->
      let inputs = [| "v0"; "v1"; "v2" |] in
      let faults = [ Fault.Crash_process { pid; at } ] in
      let report, _, _ = Fast_robust.run ~seed ~n:3 ~m:3 ~inputs ~faults () in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

(* {2 The replicated SWMR register} *)

let swmr_regular_semantics =
  QCheck2.Test.make
    ~name:"swmr: non-overlapping reads return the last completed write" ~count:40
    QCheck2.Gen.(pair (1 -- 1000) (list_size (1 -- 6) value_gen))
    (fun (seed, writes) ->
      let open Rdma_sim in
      let open Rdma_mem in
      let engine = Engine.create ~seed () in
      let stats = Stats.create () in
      let memories = Array.init 3 (fun mid -> Memory.create ~engine ~stats ~mid ()) in
      Array.iter
        (fun mem ->
          Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2)
            ~registers:[ "x" ])
        memories;
      let w = Rdma_reg.Swmr.attach ~client:(Memclient.create ~pid:0 ~memories) ~region:"r" in
      let r = Rdma_reg.Swmr.attach ~client:(Memclient.create ~pid:1 ~memories) ~region:"r" in
      let ok = ref true in
      ignore
        (Engine.spawn engine "writer-reader" (fun () ->
             List.iter
               (fun v ->
                 ignore (Rdma_reg.Swmr.write w ~reg:"x" v);
                 (* the read starts strictly after the write completed *)
                 let seen = Rdma_reg.Swmr.read r ~reg:"x" in
                 if seen <> Some v then ok := false)
               writes));
      Engine.run engine;
      !ok)

(* {2 Message reordering: the model's links are not FIFO} *)

let reordering_safety algo_name run =
  QCheck2.Test.make
    ~name:(algo_name ^ ": safety under random message latencies (reordering)")
    ~count:15
    QCheck2.Gen.(tup3 (1 -- 1000) (float_range 0.5 1.0) (float_range 1.5 6.0))
    (fun (seed, lo, hi) ->
      let inputs = [| "a"; "b"; "c" |] in
      let faults = [ Fault.Random_latency { min = lo; max = hi } ] in
      let report = run ~seed ~inputs ~faults in
      Report.agreement_ok report && Report.validity_ok report ~inputs)

let paxos_reordering =
  reordering_safety "paxos" (fun ~seed ~inputs ~faults ->
      Paxos.run ~seed ~n:3 ~inputs ~faults ())

let fast_paxos_reordering =
  reordering_safety "fast-paxos" (fun ~seed ~inputs ~faults ->
      Fast_paxos.run ~seed ~n:3 ~inputs ~faults ())

let aligned_reordering =
  reordering_safety "aligned-paxos" (fun ~seed ~inputs ~faults ->
      Aligned_paxos.run ~seed ~n:3 ~m:2 ~inputs ~faults ())

let pmp_reordering =
  reordering_safety "protected-paxos" (fun ~seed ~inputs ~faults ->
      Protected_paxos.run ~seed ~n:3 ~m:3 ~inputs ~faults ())

(* {2 Non-equivocating broadcast: property 2 under a randomized
   overwrite attack} *)

let neb_no_divergence =
  QCheck2.Test.make
    ~name:"neb: no two correct processes deliver different values" ~count:12
    QCheck2.Gen.(pair (1 -- 1000) (float_range 0.5 20.0))
    (fun (seed, overwrite_after) ->
      let open Rdma_mm in
      let open Rdma_sim in
      let cluster : string Cluster.t = Cluster.create ~seed ~n:3 ~m:3 () in
      let cfg = { Neb.default_config with give_up_at = 120.0; poll_interval = 1.0 } in
      Neb.setup_regions cluster ~max_seq:cfg.Neb.max_seq ();
      let delivered = Array.make 3 None in
      Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
          let own =
            Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
          in
          let slot = Neb.slot_reg ~owner:0 ~k:1 ~src:0 in
          let signed m =
            Neb.encode_slot ~k:1 ~msg:m
              ~signature:
                (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 m))
          in
          ignore (Rdma_reg.Swmr.write own ~reg:slot (signed "black"));
          Engine.sleep overwrite_after;
          ignore (Rdma_reg.Swmr.write own ~reg:slot (signed "white")));
      for pid = 1 to 2 do
        Cluster.spawn cluster ~pid (fun ctx ->
            let neb =
              Neb.create ctx ~cfg
                ~deliver:(fun ~k:_ ~msg ~src ->
                  if src = 0 then delivered.(pid) <- Some msg)
                ()
            in
            Neb.spawn_poller ctx neb)
      done;
      Cluster.run cluster;
      match (delivered.(1), delivered.(2)) with
      | Some v1, Some v2 -> String.equal v1 v2
      | _ -> true)

(* {2 The replicated log: acked commands survive a random leader crash} *)

let smr_no_lost_acks =
  QCheck2.Test.make ~name:"smr: acked commands survive random leader crashes"
    ~count:10
    QCheck2.Gen.(tup3 (1 -- 1000) (float_range 1.0 20.0) (2 -- 5))
    (fun (seed, crash_at, n_cmds) ->
      let open Rdma_mm in
      let open Rdma_smr in
      let cfg =
        { Consensus_engine.default_config with replicas = 3; max_entries = 32;
          serve_until = 400.0 }
      in
      let cluster : string Cluster.t =
        Cluster.create ~seed ~legal_change:(Smr_log.legal_change cfg)
          ~n:(cfg.Consensus_engine.replicas + 1) ~m:3 ()
      in
      Smr_log.setup_regions cluster cfg;
      let replicas =
        Array.init cfg.Consensus_engine.replicas (fun pid ->
            Smr_log.spawn_replica cluster ~cfg ~pid ())
      in
      let acked = ref [] in
      Cluster.spawn cluster ~pid:3 (fun ctx ->
          for seq = 0 to n_cmds - 1 do
            let cmd = Printf.sprintf "cmd%d" seq in
            match Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:200.0 with
            | Some index -> acked := (index, cmd) :: !acked
            | None -> ()
          done);
      Cluster.crash_process_at cluster ~at:crash_at 0;
      Cluster.run cluster;
      let l1 = Smr_log.applied_entries replicas.(1) in
      let l2 = Smr_log.applied_entries replicas.(2) in
      let is_prefix a b =
        let rec go a b =
          match (a, b) with
          | [], _ -> true
          | x :: a', y :: b' -> x = y && go a' b'
          | _, [] -> false
        in
        if List.length a <= List.length b then go a b else go b a
      in
      let longest = if List.length l1 >= List.length l2 then l1 else l2 in
      is_prefix l1 l2
      && List.for_all (fun entry -> List.mem entry longest) !acked)

(* {2 Lock service: determinism of the state machine} *)

let lock_service_deterministic =
  QCheck2.Test.make ~name:"lock-service: same commands => same state" ~count:100
    QCheck2.Gen.(
      list_size (0 -- 30)
        (tup3 (oneofl [ "A"; "B" ]) (oneofl [ "x"; "y"; "z" ]) bool))
    (fun script ->
      let open Rdma_smr in
      let commands =
        List.map
          (fun (lock, owner, acquire) ->
            if acquire then Lock_service.Acquire { lock; owner }
            else Lock_service.Release { lock; owner })
          script
      in
      let run () =
        let t = Lock_service.create () in
        List.iter (Lock_service.apply t) commands;
        (Lock_service.grant_history t, Lock_service.holder t "A",
         Lock_service.holder t "B")
      in
      run () = run ())

(* {2 Determinism of whole simulations} *)

let simulation_determinism =
  QCheck2.Test.make ~name:"whole runs replay bit-identically from the seed"
    ~count:10
    QCheck2.Gen.(pair (1 -- 1000) (float_range 0.0 8.0))
    (fun (seed, crash_at) ->
      let run () =
        let faults = [ Fault.Crash_process { pid = 0; at = crash_at } ] in
        let r = Protected_paxos.run ~seed ~n:3 ~m:3 ~inputs:[| "a"; "b"; "c" |] ~faults () in
        ( Array.map (Option.map (fun d -> (d.Report.value, d.Report.at))) r.Report.decisions,
          r.Report.mem_ops, r.Report.messages, r.Report.sim_steps )
      in
      run () = run ())

(* {2 BFT log: per-slot safety under random follower crashes} *)

let bft_log_random_crash =
  QCheck2.Test.make ~name:"bft-log: per-slot safety under random follower crash"
    ~count:6
    QCheck2.Gen.(tup3 (1 -- 1000) (1 -- 2) (float_range 0.0 30.0))
    (fun (seed, pid, at) ->
      let cfg = { Rdma_smr.Bft_log.default_config with slots = 2 } in
      let faults = [ Fault.Crash_process { pid; at } ] in
      let reports, _ =
        Rdma_smr.Bft_log.run ~cfg ~seed ~n:3 ~m:3
          ~input_for:(fun ~pid ~slot -> Printf.sprintf "c%d.%d" pid slot)
          ~faults ()
      in
      Array.for_all Report.agreement_ok reports)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      paxos_random_crashes;
      paxos_always_terminates_without_faults;
      pmp_random_mixed_faults;
      pmp_leader_changes;
      disk_paxos_random;
      aligned_combined_minority;
      fast_paxos_collisions;
      fast_robust_crash_times;
      swmr_regular_semantics;
      paxos_reordering;
      fast_paxos_reordering;
      aligned_reordering;
      pmp_reordering;
      neb_no_divergence;
      smr_no_lost_acks;
      lock_service_deterministic;
      simulation_determinism;
      bft_log_random_crash;
    ]
