(* RDMA memory model tests: regions, permissions, dynamic permission
   changes with legalChange, crash semantics, timing. *)

open Rdma_sim
open Rdma_mem

let make_memory ?legal_change () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let mem = Memory.create ?legal_change ~engine ~stats ~mid:0 () in
  (engine, mem)

let in_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let op_result = Alcotest.testable (Fmt.of_to_string (function Memory.Ack -> "ack" | Memory.Nak -> "nak")) ( = )

let read_result =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Memory.Read None -> "read ⊥"
      | Memory.Read (Some v) -> "read " ^ v
      | Memory.Read_nak -> "nak"))
    ( = )

let test_write_read () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "read sees write" (Memory.Read (Some "v1")) r)

let test_initial_bottom () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "fresh register is ⊥" (Memory.Read None) r)

let test_permission_enforced () =
  let engine, mem = make_memory () in
  (* SWMR region owned by 0: 1 may read but not write. *)
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "evil") in
      Alcotest.check op_result "non-writer gets nak" Memory.Nak w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "register untouched" (Memory.Read None) r;
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "mine") in
      Alcotest.check op_result "owner writes" Memory.Ack w0)

let test_read_permission_enforced () =
  let engine, mem = make_memory () in
  (* Region readable only by 0. *)
  Memory.add_region mem ~name:"r"
    ~perm:(Permission.make ~readwrite:[ 0 ] ())
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "unauthorized read naks" Memory.Read_nak r)

let test_unknown_region_and_register () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"nope" ~reg:"x" "v") in
      Alcotest.check op_result "unknown region naks" Memory.Nak w;
      let w2 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"y" "v") in
      Alcotest.check op_result "register outside region naks" Memory.Nak w2)

let test_static_permissions_refuse_change () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.all_readwrite ~n:2))
      in
      Alcotest.check op_result "static legalChange refuses" Memory.Nak c;
      match Memory.region_perm mem "r" with
      | Some p ->
          Alcotest.(check bool) "permission unchanged" true
            (Permission.equal p (Permission.swmr ~writer:0 ~n:2))
      | None -> Alcotest.fail "region vanished")

let test_dynamic_permission_change () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    (* anyone may take exclusive writership for themselves *)
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:3)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* 1 takes over; 0's subsequent write must nak. *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "legal takeover applied" Memory.Ack c;
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "old") in
      Alcotest.check op_result "deposed writer naks" Memory.Nak w;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "new") in
      Alcotest.check op_result "new owner writes" Memory.Ack w1;
      (* illegal shape (grabbing for someone else) is refused *)
      let c2 =
        Ivar.await
          (Memory.change_permission_async mem ~from:2 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "illegal change refused" Memory.Nak c2)

let test_revocation_race () =
  (* The uncontended-instantaneous guarantee: a write that arrives after a
     revocation naks, even if issued before it. *)
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  let write_result = ref None in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         (* issue at t=0.5; arrives at memory at t=1.5, after the takeover
            below lands at t=1.25 *)
         Engine.sleep 0.5;
         write_result :=
           Some (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"))));
  ignore
    (Engine.spawn engine "grabber" (fun () ->
         Engine.sleep 0.25;
         ignore
           (Ivar.await
              (Memory.change_permission_async mem ~from:1 ~region:"r"
                 ~perm:(Permission.exclusive_writer ~writer:1 ~n:2)))));
  Engine.run engine;
  Alcotest.(check bool) "write overtaken by revocation naks" true
    (!write_result = Some Memory.Nak)

let test_crash_hangs_operations () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         Memory.crash mem;
         got := Ivar.await_timeout (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") 50.0));
  Engine.run engine;
  Alcotest.(check bool) "operation on crashed memory hangs" true (!got = None)

let test_crash_mid_flight () =
  (* Crash after the request leg but before the response leg: the write
     may have applied, but the caller never hears back. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 1.5 (fun () -> Memory.crash mem);
  Engine.run engine;
  Alcotest.(check bool) "no response after crash" true (!got = None);
  Alcotest.(check (option string)) "write applied before crash" (Some "v")
    (Memory.peek_register mem "x")

let test_operation_timing () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let at = ref 0.0 in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"));
         at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "a memory operation costs two delays" 2.0 !at

let test_duplicate_register_rejected () =
  let _, mem = make_memory () in
  Memory.add_region mem ~name:"r1" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  Alcotest.(check bool) "register cannot join two regions" true
    (try
       Memory.add_region mem ~name:"r2" ~perm:(Permission.all_readwrite ~n:1)
         ~registers:[ "x" ];
       false
     with Invalid_argument _ -> true)

let test_restart_wipes_and_stamps () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2)
    ~registers:[ "x"; "y" ];
  in_fiber engine (fun () ->
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1"));
      Memory.crash mem;
      Alcotest.(check bool) "crashed" true (Memory.is_crashed mem);
      Memory.restart mem;
      Alcotest.(check bool) "back up" false (Memory.is_crashed mem);
      Alcotest.(check int) "epoch bumped" 1 (Memory.epoch mem);
      Alcotest.(check (option string)) "value lost" None (Memory.peek_register mem "x");
      Alcotest.(check (list string)) "every register stale" [ "x"; "y" ]
        (Memory.stale_registers mem ~region:"r");
      (* lost state answers "I don't know", never ⊥ — the reader must not
         mistake amnesia for a genuinely unwritten register *)
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "stale read naks" Memory.Read_nak r;
      (* a current-epoch write repairs the register *)
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v2"));
      Alcotest.(check (list string)) "x repaired, y still stale" [ "y" ]
        (Memory.stale_registers mem ~region:"r");
      let r2 = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "repaired register serves" (Memory.Read (Some "v2")) r2)

let test_restart_write_many_repairs () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "a"; "b"; "c" ];
  in_fiber engine (fun () ->
      Memory.crash mem;
      Memory.restart mem;
      (* state transfer: one batched write stamps every named register,
         ⊥ included — a write of zeroes is still a repair *)
      let w =
        Ivar.await
          (Memory.write_many_async mem ~from:0 ~region:"r"
             ~values:[ ("a", Some "1"); ("b", None) ])
      in
      Alcotest.check op_result "snapshot install acks" Memory.Ack w;
      Alcotest.(check (list string)) "only c still stale" [ "c" ]
        (Memory.stale_registers mem ~region:"r");
      let rm = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "b" ]) in
      (match rm with
      | Memory.Read_many vs ->
          Alcotest.(check (array (option string))) "batch serves the snapshot"
            [| Some "1"; None |] vs
      | Memory.Read_many_nak -> Alcotest.fail "repaired batch must serve");
      (* any batch touching a stale register naks whole *)
      let rm2 = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "c" ]) in
      Alcotest.(check bool) "batch with a stale member naks" true
        (rm2 = Memory.Read_many_nak))

let test_restart_genesis_vs_quarantine () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* a legalChange-granted takeover is forgotten by the restart *)
      ignore
        (Ivar.await
           (Memory.change_permission_async mem ~from:1 ~region:"r"
              ~perm:(Permission.exclusive_writer ~writer:1 ~n:2)));
      Memory.crash mem;
      Memory.restart mem ~rejoin:`Quarantine;
      Alcotest.(check bool) "quarantined region is fenced" false
        (Memory.region_serving mem "r");
      let w = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "fenced region naks even the old owner" Memory.Nak w;
      (* re-establishing a permission at the new epoch unfences it *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:2))
      in
      Alcotest.check op_result "rejoin grant acks" Memory.Ack c;
      Alcotest.(check bool) "region serves again" true (Memory.region_serving mem "r");
      (* a second crash with `Genesis restores the creation-time owner *)
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check bool) "genesis rejoin serves immediately" true
        (Memory.region_serving mem "r");
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v0") in
      Alcotest.check op_result "creation-time owner writes" Memory.Ack w0;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "pre-crash takeover forgotten" Memory.Nak w1)

let test_restart_drops_in_flight () =
  (* The epoch fence: an operation issued before the crash never gets a
     response, even if the memory restarts while it would be in flight. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 0.5 (fun () -> Memory.crash mem);
  Engine.schedule engine 1.0 (fun () -> Memory.restart mem);
  Engine.run engine;
  Alcotest.(check bool) "pre-crash op stays dropped across the restart" true
    (!got = None);
  Alcotest.(check (option string)) "and its write never applies" None
    (Memory.peek_register mem "x")

let test_restart_requires_crash () =
  let _, mem = make_memory () in
  Alcotest.(check bool) "restarting a live memory is a harness bug" true
    (try
       Memory.restart mem;
       false
     with Invalid_argument _ -> true)

let test_unwritten_register_stale_after_restart () =
  (* Only written registers are stored: a never-written one is stamped
     with its region's creation epoch, so a restart leaves it stale like
     any other — reads nak (single and batched) until a current-epoch
     write repairs it. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "x"; "y" ];
  in_fiber engine (fun () ->
      Alcotest.(check bool) "unwritten register fresh at creation" true
        (Memory.register_fresh mem "x");
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check bool) "stale after the restart" false
        (Memory.register_fresh mem "x");
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "never-written stale register naks" Memory.Read_nak r;
      let rm = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "x" ]) in
      Alcotest.(check bool) "batched read naks too" true (rm = Memory.Read_many_nak);
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"));
      Alcotest.(check bool) "repaired by a current-epoch write" true
        (Memory.register_fresh mem "x");
      let r2 = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "repaired register serves" (Memory.Read (Some "v")) r2;
      let r3 = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"y") in
      Alcotest.check read_result "its unwritten neighbour still naks" Memory.Read_nak r3)

let test_region_added_after_restart_serves () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"old" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "a" ];
  in_fiber engine (fun () ->
      Memory.crash mem;
      Memory.restart mem;
      Memory.add_region mem ~name:"new" ~perm:(Permission.all_readwrite ~n:1)
        ~registers:[ "b" ];
      Alcotest.(check (list string)) "nothing of it stale" []
        (Memory.stale_registers mem ~region:"new");
      Alcotest.(check bool) "its register is fresh" true (Memory.register_fresh mem "b");
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"new" ~reg:"b") in
      Alcotest.check read_result "serves ⊥ at once" (Memory.Read None) r;
      Alcotest.(check (list string)) "the pre-restart region is stale" [ "a" ]
        (Memory.stale_registers mem ~region:"old"))

let test_stale_registers_sorted () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "d"; "b"; "a"; "c" ];
  in_fiber engine (fun () ->
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"b" "v"));
      Alcotest.(check (list string)) "none stale before a crash" []
        (Memory.stale_registers mem ~region:"r");
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check (list string)) "written and never-written alike, sorted"
        [ "a"; "b"; "c"; "d" ]
        (Memory.stale_registers mem ~region:"r");
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"c" "w"));
      Alcotest.(check (list string)) "repaired one drops out" [ "a"; "b"; "d" ]
        (Memory.stale_registers mem ~region:"r");
      Alcotest.(check (list string)) "unknown region lists nothing" []
        (Memory.stale_registers mem ~region:"nope"))

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_shared_table_conflicts () =
  (* Memories sharing a register table share its layout rules: a region
     name means one register list, and a register one region. *)
  let engine = Engine.create () in
  let stats = Stats.create () in
  let table = Memory.create_table () in
  let mem mid = Memory.create ~table ~engine ~stats ~mid () in
  let m0 = mem 0 and m1 = mem 1 in
  let perm = Permission.all_readwrite ~n:1 in
  Memory.add_region m0 ~name:"r" ~perm ~registers:[ "x"; "y" ];
  Alcotest.(check bool) "same name, other list" true
    (raises (fun () -> Memory.add_region m1 ~name:"r" ~perm ~registers:[ "x" ]));
  Alcotest.(check bool) "register claimed by a second region" true
    (raises (fun () -> Memory.add_region m1 ~name:"s" ~perm ~registers:[ "y" ]));
  Alcotest.(check bool) "duplicate region on one memory" true
    (raises (fun () -> Memory.add_region m0 ~name:"r" ~perm ~registers:[ "x"; "y" ]))

let test_shared_table_attach () =
  (* A cluster's memories declare each region once and attach it by
     name; contents, stamps and permissions stay per memory. *)
  let cluster : string Rdma_mm.Cluster.t = Rdma_mm.Cluster.create ~n:1 ~m:2 () in
  Rdma_mm.Cluster.add_region_everywhere cluster ~name:"r"
    ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x"; "y" ];
  let m0 = Rdma_mm.Cluster.memory cluster 0 and m1 = Rdma_mm.Cluster.memory cluster 1 in
  Alcotest.(check (list string)) "attached on both" [ "r" ] (Memory.region_names m1);
  in_fiber (Rdma_mm.Cluster.engine cluster) (fun () ->
      ignore (Ivar.await (Memory.write_async m0 ~from:0 ~region:"r" ~reg:"x" "v"));
      Alcotest.(check (option string)) "written on m0" (Some "v")
        (Memory.peek_register m0 "x");
      Alcotest.(check (option string)) "not on m1" None (Memory.peek_register m1 "x");
      let r = Ivar.await (Memory.read_async m1 ~from:0 ~region:"r" ~reg:"y") in
      Alcotest.check read_result "m1 serves its own ⊥" (Memory.Read None) r;
      Memory.crash m1;
      Memory.restart m1;
      Alcotest.(check (list string)) "m1 stale after its restart" [ "x"; "y" ]
        (Memory.stale_registers m1 ~region:"r");
      Alcotest.(check (list string)) "m0 unaffected" []
        (Memory.stale_registers m0 ~region:"r"))

let test_repeat_crash_is_noop () =
  (* A second crash of a crashed memory changes nothing and emits no
     second [Mem_crash], as a repeat process crash does. *)
  let engine, mem = make_memory () in
  let crashes = ref 0 in
  Rdma_obs.Obs.subscribe (Memory.obs mem) (fun ~at:_ ~actor:_ -> function
    | Rdma_obs.Event.Mem_crash _ -> incr crashes
    | _ -> ());
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  Memory.crash mem;
  Memory.crash mem;
  Alcotest.(check int) "one Mem_crash for two crashes" 1 !crashes;
  Memory.restart mem;
  Alcotest.(check int) "one restart, epoch 1" 1 (Memory.epoch mem);
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "serves after the restart" Memory.Ack w)

(* slots[0, k, src] of a NEB-shaped family: k in [1, 3], src in [0, 2) *)
let slot_family = { Memory.prefix = "s.0."; rows = 3; cols = 2 }

let test_family_naks_off_pattern () =
  (* A family region owns exactly its canonical in-bound names; every
     other name naks like a register outside a listed region. *)
  let engine, mem = make_memory () in
  let perm = Permission.all_readwrite ~n:1 in
  Memory.add_family mem ~name:"neb.0" ~perm slot_family;
  Memory.add_family mem ~name:"neb.1" ~perm { slot_family with prefix = "s.1." };
  Memory.add_family mem ~name:"x.neb.0" ~perm { slot_family with prefix = "x.s.0." };
  Memory.add_region mem ~name:"listed" ~perm ~registers:[ "y" ];
  in_fiber engine (fun () ->
      let write reg = Ivar.await (Memory.write_async mem ~from:0 ~region:"neb.0" ~reg "v") in
      let read reg = Ivar.await (Memory.read_async mem ~from:0 ~region:"neb.0" ~reg) in
      List.iter
        (fun reg ->
          Alcotest.check op_result (reg ^ " is a member") Memory.Ack (write reg);
          Alcotest.check read_result (reg ^ " reads back") (Memory.Read (Some "v")) (read reg))
        [ "s.0.1.0"; "s.0.3.1"; "s.0.2.0" ];
      (* the listed-region baseline: what an unknown register answers *)
      let unknown_w =
        Ivar.await (Memory.write_async mem ~from:0 ~region:"listed" ~reg:"z" "v")
      in
      let unknown_r = Ivar.await (Memory.read_async mem ~from:0 ~region:"listed" ~reg:"z") in
      List.iter
        (fun reg ->
          Alcotest.check op_result (reg ^ " write naks as unknown") unknown_w (write reg);
          Alcotest.check read_result (reg ^ " read naks as unknown") unknown_r (read reg))
        [
          "s.0.0.0" (* k = 0 *);
          "s.0.4.0" (* k = max_seq + 1 *);
          "s.0.1.2" (* src = n *);
          "s.0.01.0";
          "s.0.+1.0";
          "s.0.1_.0";
          "s.0.1.01";
          "s.0.1";
          "s.0.1.0.0";
          "s.1.1.0" (* another owner's prefix *);
          "x.s.0.1.0" (* another namespace's prefix *);
        ];
      List.iter
        (fun reg ->
          Alcotest.(check bool) (reg ^ " is in no region, never fresh") false
            (Memory.register_fresh mem reg))
        [ "s.0.0.0"; "s.0.4.0"; "s.0.1.2"; "s.0.01.0"; "s.0.+1.0"; "s.0.1_.0" ];
      Alcotest.(check bool) "a member written this epoch is fresh" true
        (Memory.register_fresh mem "s.0.1.0"))

let test_family_layout_conflicts () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let table = Memory.create_table () in
  let mem mid = Memory.create ~table ~engine ~stats ~mid () in
  let m0 = mem 0 and m1 = mem 1 in
  let perm = Permission.all_readwrite ~n:1 in
  Memory.add_region m0 ~name:"early" ~perm ~registers:[ "s.5.1.0" ];
  Memory.add_family m0 ~name:"neb.0" ~perm slot_family;
  Memory.add_family m1 ~name:"neb.0" ~perm slot_family;
  Alcotest.(check (list string)) "the same family attaches" [ "neb.0" ]
    (Memory.region_names m1);
  Alcotest.(check bool) "listed register inside a family" true
    (raises (fun () -> Memory.add_region m0 ~name:"l" ~perm ~registers:[ "q"; "s.0.2.1" ]));
  Memory.add_region m0 ~name:"outside" ~perm ~registers:[ "s.0.4.0"; "s.0.01.0"; "s.0.1.2" ];
  Alcotest.(check bool) "family re-declared with another bound" true
    (raises (fun () ->
         Memory.add_family (mem 2) ~name:"neb.0" ~perm { slot_family with rows = 4 }));
  Alcotest.(check bool) "family re-declared as a list" true
    (raises (fun () -> Memory.add_region (mem 3) ~name:"neb.0" ~perm ~registers:[ "s.0.1.0" ]));
  Alcotest.(check bool) "overlapping family" true
    (raises (fun () -> Memory.add_family m0 ~name:"other" ~perm { slot_family with cols = 1 }));
  Alcotest.(check bool) "family covering a listed register" true
    (raises (fun () -> Memory.add_family m0 ~name:"neb.5" ~perm { slot_family with prefix = "s.5." }));
  Alcotest.(check bool) "family prefix must end in '.'" true
    (raises (fun () -> Memory.add_family m0 ~name:"bad" ~perm { slot_family with prefix = "s.9" }))

let test_neb_stale_registers_after_restart () =
  (* A NEB region is a family; after a restart its stale list is every
     slot name, sorted, exactly what the name-by-name layout listed. *)
  let n = 3 and max_seq = 12 in
  let cluster : string Rdma_mm.Cluster.t = Rdma_mm.Cluster.create ~n ~m:1 () in
  Rdma_consensus.Neb.setup_regions cluster ~max_seq ();
  let mem = Rdma_mm.Cluster.memory cluster 0 in
  let names owner =
    List.concat_map
      (fun k -> List.init n (fun src -> Rdma_consensus.Neb.slot_reg ~owner ~k ~src))
      (List.init max_seq (fun k -> k + 1))
  in
  let region = Rdma_consensus.Neb.region_of 1 in
  let written = Rdma_consensus.Neb.slot_reg ~owner:1 ~k:10 ~src:2 in
  in_fiber (Rdma_mm.Cluster.engine cluster) (fun () ->
      ignore (Ivar.await (Memory.write_async mem ~from:1 ~region ~reg:written "v"));
      Alcotest.(check (list string)) "nothing stale before a crash" []
        (Memory.stale_registers mem ~region);
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check (list string)) "every slot stale, sorted"
        (List.sort compare (names 1))
        (Memory.stale_registers mem ~region);
      ignore (Ivar.await (Memory.write_async mem ~from:1 ~region ~reg:written "w"));
      Alcotest.(check (list string)) "the repaired slot drops out"
        (List.sort compare (List.filter (fun r -> r <> written) (names 1)))
        (Memory.stale_registers mem ~region);
      Alcotest.(check bool) "repaired slot is fresh" true (Memory.register_fresh mem written);
      Alcotest.(check bool) "unwritten slot is stale" false
        (Memory.register_fresh mem (Rdma_consensus.Neb.slot_reg ~owner:1 ~k:1 ~src:0)))

let test_permission_disjointness () =
  Alcotest.(check bool) "overlapping sets rejected" true
    (try
       ignore (Permission.make ~read:[ 0 ] ~readwrite:[ 0 ] ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_read;
    Alcotest.test_case "fresh registers read ⊥" `Quick test_initial_bottom;
    Alcotest.test_case "write permission enforced" `Quick test_permission_enforced;
    Alcotest.test_case "read permission enforced" `Quick test_read_permission_enforced;
    Alcotest.test_case "unknown region/register naks" `Quick
      test_unknown_region_and_register;
    Alcotest.test_case "static permissions refuse changes" `Quick
      test_static_permissions_refuse_change;
    Alcotest.test_case "dynamic permission takeover" `Quick test_dynamic_permission_change;
    Alcotest.test_case "revocation beats in-flight write" `Quick test_revocation_race;
    Alcotest.test_case "crashed memory hangs operations" `Quick test_crash_hangs_operations;
    Alcotest.test_case "crash between apply and response" `Quick test_crash_mid_flight;
    Alcotest.test_case "memory op costs two delays" `Quick test_operation_timing;
    Alcotest.test_case "register in one region only" `Quick test_duplicate_register_rejected;
    Alcotest.test_case "restart wipes values under a fresh epoch" `Quick
      test_restart_wipes_and_stamps;
    Alcotest.test_case "write_many is the state-transfer primitive" `Quick
      test_restart_write_many_repairs;
    Alcotest.test_case "genesis vs quarantine rejoin" `Quick
      test_restart_genesis_vs_quarantine;
    Alcotest.test_case "restart drops in-flight operations" `Quick
      test_restart_drops_in_flight;
    Alcotest.test_case "restart requires a crash" `Quick test_restart_requires_crash;
    Alcotest.test_case "permission sets must be disjoint" `Quick
      test_permission_disjointness;
    Alcotest.test_case "never-written register naks after restart" `Quick
      test_unwritten_register_stale_after_restart;
    Alcotest.test_case "region added after restart serves ⊥" `Quick
      test_region_added_after_restart_serves;
    Alcotest.test_case "stale_registers lists unwritten, sorted" `Quick
      test_stale_registers_sorted;
    Alcotest.test_case "shared table rejects layout conflicts" `Quick
      test_shared_table_conflicts;
    Alcotest.test_case "cluster memories attach one declared region" `Quick
      test_shared_table_attach;
    Alcotest.test_case "a repeat crash is a no-op" `Quick test_repeat_crash_is_noop;
    Alcotest.test_case "family naks off-pattern names" `Quick test_family_naks_off_pattern;
    Alcotest.test_case "family layout conflicts raise" `Quick test_family_layout_conflicts;
    Alcotest.test_case "NEB family stale_registers after a restart" `Quick
      test_neb_stale_registers_after_restart;
  ]
