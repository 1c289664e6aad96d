(* Non-equivocating broadcast (Algorithm 2): the three properties of
   Definition 1, plus equivocation and memory-failure scenarios. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

(* Harness: n processes, m memories; honest processes broadcast the
   given messages and record deliveries as (src, k, msg). *)
type recorded = (int * int * string) list ref

let neb_cfg = { Neb.default_config with give_up_at = 300.0; poll_interval = 1.0 }

let build ?(seed = 1) ~n ~m () =
  let cluster : string Cluster.t = Cluster.create ~seed ~n ~m () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  cluster

(* Honest participant: broadcast [msgs] (spaced out), deliver everything
   until the configured give-up time. *)
let honest ?(cfg = neb_cfg) ~msgs ~(log : recorded) () (ctx : _ Cluster.ctx) =
  let neb =
    Neb.create ctx ~cfg
      ~deliver:(fun ~k ~msg ~src -> log := (src, k, msg) :: !log)
      ()
  in
  Neb.spawn_poller ctx neb;
  List.iter
    (fun m ->
      Neb.broadcast neb m;
      Engine.sleep 1.0)
    msgs

let delivered_by log ~src = List.rev (List.filter_map (fun (s, k, m) -> if s = src then Some (k, m) else None) !log)

let test_broadcast_delivered_by_all () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    let msgs = if pid = 0 then [ "hello"; "world" ] else [] in
    Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d delivers p0's messages in order" pid)
        [ (1, "hello"); (2, "world") ]
        (delivered_by log ~src:0))
    logs

let test_all_broadcast () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid
      (honest ~msgs:[ Printf.sprintf "from%d" pid ] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      for src = 0 to n - 1 do
        Alcotest.(check (list (pair int string)))
          (Printf.sprintf "p%d delivers p%d" pid src)
          [ (1, Printf.sprintf "from%d" src) ]
          (delivered_by log ~src)
      done)
    logs

let test_no_forged_source () =
  (* Property 3: nothing is delivered from a process that broadcast
     nothing — even when another process writes into its own region
     *about* that process. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn cluster ~pid:0 (honest ~msgs:[ "real" ] ~log:logs.(0) ());
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log:logs.(1) ());
  (* p2 is Byzantine: it plants a (forged) value in its *copy* slot for
     p1's first message. *)
  Cluster.spawn_byzantine cluster ~pid:2 (fun ctx ->
      let own = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 2) in
      let fake =
        Neb.encode_slot ~k:1 ~msg:"forged"
          ~signature:(Rdma_crypto.Keychain.forge ~author:1 (Neb.slot_payload ~k:1 "forged"))
      in
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:2 ~k:1 ~src:1) fake));
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "nothing delivered from silent p1" []
    (delivered_by logs.(0) ~src:1)

let test_overwrite_equivocation_contained () =
  (* A Byzantine broadcaster overwrites its slot with a second signed
     value: property 2 — no two correct processes deliver different
     values; our implementation additionally refuses to deliver once the
     conflict is visible. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0
    (Attacks.neb_overwrite_equivocation ~m1:"black" ~m2:"white");
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 in
  let d2 = delivered_by logs.(2) ~src:0 in
  (match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "no two correct processes deliver different values" v1 v2
  | _ -> () (* delivering nothing is also correct *));
  Alcotest.(check bool) "at most one delivery each" true
    (List.length d1 <= 1 && List.length d2 <= 1)

let test_replica_equivocation_blocked () =
  (* Different signed values on different memory replicas.  The SWMR
     majority-read rule means every reader sees one value or ⊥ — two
     correct readers can disagree only transiently as ⊥, and the
     algorithm's copy-and-crosscheck step resolves that.  The property to
     hold (Definition 1, property 2): no two correct processes deliver
     different values. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0
    (Attacks.neb_replica_equivocation ~m1:"black" ~m2:"white");
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
  (match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "correct processes deliver the same value" v1 v2
  | ([] | [ _ ]), ([] | [ _ ]) -> ()
  | _ -> Alcotest.fail "more than one delivery from a single broadcast")

let test_replica_split_with_empty_third () =
  (* The sharpest replica attack: black on µ0, white on µ1, nothing on
     µ2 — different majorities now read different single values, and only
     the cross-check step prevents divergent deliveries. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let slot = Neb.slot_reg ~owner:0 ~k:1 ~src:0 in
      let signed m =
        Neb.encode_slot ~k:1 ~msg:m
          ~signature:
            (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 m))
      in
      let client = ctx.Cluster.client in
      ignore
        (Rdma_mem.Memclient.write client ~mem:0 ~region:(Neb.region_of 0) ~reg:slot
           (signed "black"));
      ignore
        (Rdma_mem.Memclient.write client ~mem:1 ~region:(Neb.region_of 0) ~reg:slot
           (signed "white")));
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
  match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "no divergent deliveries under replica split" v1 v2
  | ([] | [ _ ]), ([] | [ _ ]) -> ()
  | _ -> Alcotest.fail "more than one delivery from a single broadcast"

let test_survives_memory_crashes () =
  let n = 3 and m = 5 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    let msgs = if pid = 1 then [ "survivor" ] else [] in
    Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
  done;
  Cluster.crash_memory_at cluster ~at:0.0 0;
  Cluster.crash_memory_at cluster ~at:0.0 3;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d delivers despite 2/5 memory crashes" pid)
        [ (1, "survivor") ]
        (delivered_by log ~src:1))
    logs

let test_wrong_key_not_delivered () =
  (* A Byzantine broadcaster writes sequence number 5 into its k=1 slot:
     the key check refuses it. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let log = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let own =
        Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
      in
      let v =
        Neb.encode_slot ~k:5 ~msg:"skip"
          ~signature:
            (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:5 "skip"))
      in
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) v));
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "mis-keyed slot not delivered" []
    (delivered_by log ~src:0)

let test_delivery_order_is_sequential () =
  (* Messages from one sender are delivered in sequence-number order,
     with no gaps, even when broadcast in a burst. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let log = ref [] in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      Neb.spawn_poller ctx neb;
      for i = 1 to 5 do
        Neb.broadcast neb (Printf.sprintf "m%d" i)
      done);
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string)))
    "burst delivered in order"
    [ (1, "m1"); (2, "m2"); (3, "m3"); (4, "m4"); (5, "m5") ]
    (delivered_by log ~src:0)

let test_broadcaster_crash_mid_write () =
  (* The broadcaster crashes while its replicated write is in flight: the
     message may or may not deliver, but correct processes never
     diverge.  Sweep the crash instant across the write's window. *)
  List.iter
    (fun at ->
      let n = 3 and m = 3 in
      let cluster = build ~n ~m () in
      let logs = Array.init n (fun _ -> ref []) in
      for pid = 0 to n - 1 do
        let msgs = if pid = 0 then [ "maybe" ] else [] in
        Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
      done;
      Cluster.crash_process_at cluster ~at 0;
      Cluster.run cluster;
      Cluster.check_errors cluster;
      let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
      Alcotest.(check bool)
        (Printf.sprintf "no divergence (crash at %.2f)" at)
        true (d1 = d2))
    [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]

(* {2 The decode board} *)

(* A slot value with key field [kf] and msg [m], signed by [ctx]'s
   process for sequence number [signed_k] *)
let slot_value (ctx : _ Cluster.ctx) ~kf ~signed_k m =
  Codec.join3 kf m
    (Rdma_crypto.Keychain.encode
       (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:signed_k m)))

let write_own_slot (ctx : _ Cluster.ctx) ~k v =
  let me = ctx.Cluster.pid in
  let own = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of me) in
  ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:me ~k ~src:me) v)

let test_overwrite_decoded_afresh () =
  (* p1 reads and delivers p0's first signed value; p0 then overwrites
     its slot with a second one.  p2, reading only after that, must
     decode the new bytes — and, seeing p1's copy of the first, find
     the equivocation and deliver nothing. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      write_own_slot ctx ~k:1 (slot_value ctx ~kf:"1" ~signed_k:1 "black");
      Engine.sleep 30.0;
      write_own_slot ctx ~k:1 (slot_value ctx ~kf:"1" ~signed_k:1 "white"));
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log:logs.(1) ());
  Cluster.spawn cluster ~pid:2 (fun ctx ->
      Engine.sleep 40.0;
      honest ~msgs:[] ~log:logs.(2) () ctx);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "p1 delivers the first value"
    [ (1, "black") ] (delivered_by logs.(1) ~src:0);
  Alcotest.(check (list (pair int string))) "p2 sees the overwrite: nothing delivered" []
    (delivered_by logs.(2) ~src:0)

let test_rekeyed_slot_decoded_afresh () =
  (* p0's k = 1 slot first holds a value keyed and signed for k = 2 (the
     key check refuses it), then the k = 1 value under a non-canonical
     key field.  The reader must decode the new bytes and deliver. *)
  List.iter
    (fun (bad, good) ->
      let n = 2 and m = 3 in
      let cluster = build ~n ~m () in
      let log = ref [] in
      Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
          write_own_slot ctx ~k:1 (slot_value ctx ~kf:bad ~signed_k:2 "early");
          Engine.sleep 20.0;
          write_own_slot ctx ~k:1 (slot_value ctx ~kf:good ~signed_k:1 "early"));
      Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log ());
      Cluster.run cluster;
      Cluster.check_errors cluster;
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "k field %S then %S: delivered once re-keyed" bad good)
        [ (1, "early") ] (delivered_by log ~src:0))
    [ ("+2", "01"); ("02", "+1") ]

let test_boards_per_cluster () =
  (* Two clusters with the same keys and namespace, one after the other,
     at different n: each delivers only its own messages. *)
  List.iter
    (fun (n, msg) ->
      let cluster = build ~n ~m:3 () in
      let logs = Array.init n (fun _ -> ref []) in
      for pid = 0 to n - 1 do
        let msgs = if pid = 0 then [ msg ] else [] in
        Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
      done;
      Cluster.run cluster;
      Cluster.check_errors cluster;
      Array.iteri
        (fun pid log ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "n = %d: p%d delivers its own cluster's message" n pid)
            [ (1, msg) ] (delivered_by log ~src:0))
        logs)
    [ (3, "first"); (5, "second"); (3, "third") ]

let test_boards_per_namespace () =
  (* Two NEB instances in one cluster, in namespaces "x." and "y." (as
     the slots of a BFT log): each delivers its own messages. *)
  let n = 3 and m = 3 in
  let cluster : string Cluster.t = Cluster.create ~n ~m () in
  let namespaces = [ "x."; "y." ] in
  List.iter (fun ns -> Neb.setup_regions cluster ~ns ~max_seq:neb_cfg.Neb.max_seq ()) namespaces;
  let logs = List.map (fun ns -> (ns, Array.init n (fun _ -> ref []))) namespaces in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        List.iter
          (fun (ns, logs) ->
            honest ~cfg:{ neb_cfg with Neb.ns }
              ~msgs:(if pid = 0 then [ "in-" ^ ns; "again-" ^ ns ] else [])
              ~log:logs.(pid) () ctx)
          logs)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  List.iter
    (fun (ns, logs) ->
      Array.iteri
        (fun pid log ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "ns %s: p%d delivers its own messages" ns pid)
            [ (1, "in-" ^ ns); (2, "again-" ^ ns) ]
            (delivered_by log ~src:0))
        logs)
    logs

let suite =
  [
    Alcotest.test_case "broadcaster crash mid-write sweep" `Quick
      test_broadcaster_crash_mid_write;
    Alcotest.test_case "property 1: broadcasts delivered by all" `Quick
      test_broadcast_delivered_by_all;
    Alcotest.test_case "all-to-all broadcast" `Quick test_all_broadcast;
    Alcotest.test_case "property 3: no forged sources" `Quick test_no_forged_source;
    Alcotest.test_case "property 2: overwrite equivocation contained" `Quick
      test_overwrite_equivocation_contained;
    Alcotest.test_case "replica equivocation: no divergence" `Quick
      test_replica_equivocation_blocked;
    Alcotest.test_case "replica split with empty third" `Quick
      test_replica_split_with_empty_third;
    Alcotest.test_case "tolerates minority memory crashes" `Quick
      test_survives_memory_crashes;
    Alcotest.test_case "mis-keyed slots are not delivered" `Quick
      test_wrong_key_not_delivered;
    Alcotest.test_case "per-sender FIFO delivery" `Quick test_delivery_order_is_sequential;
    Alcotest.test_case "board: overwritten slot decoded afresh" `Quick
      test_overwrite_decoded_afresh;
    Alcotest.test_case "board: re-keyed slot decoded afresh" `Quick
      test_rekeyed_slot_decoded_afresh;
    Alcotest.test_case "board: one per cluster" `Quick test_boards_per_cluster;
    Alcotest.test_case "board: one per namespace" `Quick test_boards_per_namespace;
  ]
