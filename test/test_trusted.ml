(* T-send / T-receive (Algorithm 3): history transmission, signature
   citation, prefix checking, and the validator hook. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

let neb_cfg = { Neb.default_config with give_up_at = 300.0; poll_interval = 1.0 }

let cfg = { Trusted.neb = neb_cfg }

let build ?(seed = 1) ~n ~m () =
  let cluster : string Cluster.t = Cluster.create ~seed ~n ~m () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  cluster

let test_basic_roundtrip () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg
            ~on_receive:(fun ~src ~msg -> received.(pid) := (src, msg) :: !(received.(pid)))
            ()
        in
        if pid = 0 then begin
          Trusted.t_send t "one";
          Engine.sleep 30.0;
          Trusted.t_send t "two"
        end)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  for pid = 0 to n - 1 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "p%d receives p0's messages in order" pid)
      [ (0, "one"); (0, "two") ]
      (List.rev !(received.(pid)))
  done

let test_history_accumulates () =
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let history_len = ref 0 in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      let t = Trusted.create ctx ~cfg ~on_receive:(fun ~src:_ ~msg:_ -> ()) () in
      Trusted.t_send t "a";
      Engine.sleep 40.0;
      Trusted.t_send t "b";
      history_len := List.length (Trusted.history t));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let t = Trusted.create ctx ~cfg ~on_receive:(fun ~src:_ ~msg:_ -> ()) () in
      ignore t);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (* p0's history: Sent a, (Received of own a via self-delivery), Sent b —
     at least the two sends. *)
  Alcotest.(check bool) "history grows" true (!history_len >= 2)

let test_validator_rejects () =
  (* A validator that rejects messages containing "evil": the sender is
     convicted at every correct receiver and nothing is delivered. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let validator ~src:_ = function
    | Trusted.Sent { msg; _ } when String.starts_with ~prefix:"evil" msg -> `Reject
    | Trusted.Sent _ | Trusted.Received _ -> `Accept
  in
  let received = Array.init n (fun _ -> ref []) in
  let convicted = Array.make n false in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg ~validator
            ~on_receive:(fun ~src ~msg -> received.(pid) := (src, msg) :: !(received.(pid)))
            ()
        in
        if pid = 0 then begin
          Trusted.t_send t "evil plan";
          Engine.sleep 30.0;
          Trusted.t_send t "benign"
        end;
        if pid = 1 then begin
          Engine.sleep 100.0;
          convicted.(1) <- Trusted.is_convicted t 0
        end)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "nothing from the rejected sender" []
    (List.rev !(received.(1)));
  Alcotest.(check bool) "sender convicted" true convicted.(1)

let test_prefix_violation_convicts () =
  (* A Byzantine sender presents message 2 with a history that does not
     extend the history shown with message 1: receivers convict it.  We
     simulate by broadcasting two raw NEB payloads with inconsistent
     histories. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      let bare k msg =
        Rdma_crypto.Keychain.encode
          (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Trusted.bare_payload ~k msg))
      in
      (* message 1 with empty history *)
      Neb.broadcast neb (Codec.join3 "hello" (bare 1 "hello") (Trusted.encode_history []));
      Engine.sleep 20.0;
      (* message 2 whose history *omits* the Sent entry for message 1 *)
      Neb.broadcast neb (Codec.join3 "again" (bare 2 "again") (Trusted.encode_history [])));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let t =
        Trusted.create ctx ~cfg
          ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
          ()
      in
      ignore t);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string)))
    "only the first message delivered; the prefix cheat is convicted"
    [ (0, "hello") ]
    (List.rev !received)

let test_fabricated_citation_convicts () =
  (* A Byzantine sender cites a Received entry with a forged signature of
     p1: the citation check must convict. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      let bare k msg =
        Rdma_crypto.Keychain.encode
          (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Trusted.bare_payload ~k msg))
      in
      let forged_entry =
        Trusted.Received
          {
            src = 1;
            k = 1;
            msg = "i never said this";
            sig_enc =
              Rdma_crypto.Keychain.encode
                (Rdma_crypto.Keychain.forge ~author:1
                   (Trusted.bare_payload ~k:1 "i never said this"));
          }
      in
      Neb.broadcast neb
        (Codec.join3 "msg" (bare 1 "msg") (Trusted.encode_history [ forged_entry ])));
  for pid = 1 to 2 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg
            ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
            ()
        in
        ignore t)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "forged citation rejected" [] !received

let test_noncanonical_history () =
  (* Byzantine senders re-encode the history they presented before with
     a non-canonical k field.  Receivers judge histories by value: "01"
     is the same Sent entry as "1" (delivered — the byte-level prefix
     check falls back to decoding), while "02" is a different one, so
     that history does not extend the last and its sender is convicted. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  let sent_entry kf msg = Codec.join3 "s" kf msg in
  let liar ~second_k (ctx : _ Cluster.ctx) =
    let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
    let bare k msg =
      Rdma_crypto.Keychain.encode
        (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Trusted.bare_payload ~k msg))
    in
    Neb.broadcast neb (Codec.join3 "hello" (bare 1 "hello") (Trusted.encode_history []));
    Engine.sleep 20.0;
    Neb.broadcast neb
      (Codec.join3 "again" (bare 2 "again") (Codec.join [ sent_entry second_k "hello" ]));
    Engine.sleep 20.0;
    (* canonical again: differs in bytes from the re-encoded prefix *)
    Neb.broadcast neb
      (Codec.join3 "third" (bare 3 "third")
         (Trusted.encode_history
            [ Trusted.Sent { k = 1; msg = "hello" }; Trusted.Sent { k = 2; msg = "again" } ]))
  in
  Cluster.spawn_byzantine cluster ~pid:0 (liar ~second_k:"01");
  Cluster.spawn_byzantine cluster ~pid:1 (liar ~second_k:"02");
  let convicted = ref [] in
  Cluster.spawn cluster ~pid:2 (fun ctx ->
      let t =
        Trusted.create ctx ~cfg
          ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
          ()
      in
      Engine.sleep 200.0;
      convicted := List.filter (Trusted.is_convicted t) [ 0; 1 ]);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list string)) "\"01\" re-encoding delivers every message"
    [ "hello"; "again"; "third" ]
    (List.filter_map (fun (src, msg) -> if src = 0 then Some msg else None)
       (List.rev !received));
  Alcotest.(check (list string)) "\"02\" history convicts after the first"
    [ "hello" ]
    (List.filter_map (fun (src, msg) -> if src = 1 then Some msg else None)
       (List.rev !received));
  Alcotest.(check (list int)) "only the diverging sender convicted" [ 1 ] !convicted

(* The validator as it once ran: a fresh replay of the whole history for
   every delivery.  The reference for the incremental replay. *)
let from_scratch ~n ~src entries =
  let replay = Robust_backup.paxos_validator ~n ~src in
  let verdict = ref `Accept in
  List.iter (fun e -> if !verdict = `Accept then verdict := replay e) entries;
  !verdict

(* Feed [history] once into one replay and compare each verdict with the
   from-scratch replay of that prefix; returns the verdicts on Sent
   entries, the messages the history's owner sent. *)
let check_prefixes ~n ~src history =
  let replay = Robust_backup.paxos_validator ~n ~src in
  let rec go prefix verdict acc = function
    | [] -> List.rev acc
    | entry :: rest ->
        let verdict = if verdict = `Accept then replay entry else verdict in
        let prefix = prefix @ [ entry ] in
        Alcotest.(check bool)
          (Printf.sprintf "p%d prefix of %d: incremental = from scratch" src
             (List.length prefix))
          true
          (verdict = from_scratch ~n ~src prefix);
        let acc =
          match entry with Trusted.Sent _ -> verdict :: acc | Trusted.Received _ -> acc
        in
        go prefix verdict acc rest
  in
  go [] `Accept [] history

let accepted verdicts = List.for_all (fun v -> v = `Accept) verdicts

let test_incremental_replay_matches () =
  let n = 3 and m = 3 in
  let cluster : string Cluster.t = Cluster.create ~n ~m () in
  Robust_backup.setup_regions cluster ();
  let trusted = Array.make n None in
  let keep pid t = trusted.(pid) <- Some t in
  Cluster.spawn_byzantine cluster ~pid:2 (fun ctx ->
      let transport, t = Robust_backup.make_channel ctx () in
      keep 2 t;
      Robust_backup.T_transport.broadcast transport
        (Paxos.encode (Paxos.Decide { value = "evil" })));
  for pid = 0 to 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let h = Robust_backup.attach ctx ~input:(Printf.sprintf "v%d" pid) () in
        keep pid h.Robust_backup.trusted)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let history pid =
    match trusted.(pid) with
    | Some t -> Trusted.history t
    | None -> Alcotest.failf "p%d has no trusted channel" pid
  in
  for pid = 0 to 1 do
    let sends = check_prefixes ~n ~src:pid (history pid) in
    Alcotest.(check bool) (Printf.sprintf "p%d sent something" pid) true (sends <> []);
    Alcotest.(check bool)
      (Printf.sprintf "correct p%d: every send accepted" pid)
      true (accepted sends)
  done;
  match check_prefixes ~n ~src:2 (history 2) with
  | first :: _ ->
      Alcotest.(check bool) "the spurious Decide is rejected" true (first = `Reject)
  | [] -> Alcotest.fail "the attacker sent nothing"

let test_entry_codec_roundtrip () =
  let entries =
    [
      Trusted.Sent { k = 1; msg = "hello|world" };
      Trusted.Received { src = 2; k = 7; msg = ""; sig_enc = "1:abc" };
      Trusted.Sent { k = 2; msg = "" };
    ]
  in
  match Trusted.decode_history (Trusted.encode_history entries) with
  | Some entries' ->
      Alcotest.(check int) "length preserved" (List.length entries) (List.length entries');
      Alcotest.(check bool) "entries preserved" true (entries = entries')
  | None -> Alcotest.fail "history did not roundtrip"

(* {2 The split board} *)

let test_restart_overwrite_split_afresh () =
  (* Byzantine p0 T-sends "alpha", then overwrites that NEB slot with a
     validly signed "beta".  p1 receives "alpha", crashes, and restarts
     with nothing: its new instance reads the new bytes, finds no
     conflicting copy (p2 never runs) and must receive "beta" — split
     from those bytes, not from the first delivery's. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let own = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0) in
      let sign payload = Rdma_crypto.Keychain.sign ctx.Cluster.signer payload in
      let t_sent msg =
        let payload =
          Codec.join3 msg
            (Rdma_crypto.Keychain.encode (sign (Trusted.bare_payload ~k:1 msg)))
            (Trusted.encode_history [])
        in
        Neb.encode_slot ~k:1 ~msg:payload ~signature:(sign (Neb.slot_payload ~k:1 payload))
      in
      let write v = ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) v) in
      write (t_sent "alpha");
      Engine.sleep 30.0;
      write (t_sent "beta"));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      ignore
        (Trusted.create ctx ~cfg
           ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
           ()));
  Cluster.crash_process_at cluster ~at:20.0 1;
  Cluster.restart_process_at cluster ~at:40.0 1;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "each incarnation receives what it read"
    [ (0, "alpha"); (0, "beta") ] (List.rev !received)

let test_boards_per_namespace_and_cluster () =
  (* T-send in namespaces "x." and "y." of one cluster, then in "x." of
     a second cluster with the same keys: every receiver gets exactly
     the messages of its own cluster and namespace. *)
  let run ~namespaces ~tag =
    let n = 3 and m = 3 in
    let cluster : string Cluster.t = Cluster.create ~n ~m () in
    List.iter
      (fun ns -> Neb.setup_regions cluster ~ns ~max_seq:neb_cfg.Neb.max_seq ())
      namespaces;
    let received = Array.init n (fun _ -> ref []) in
    for pid = 0 to n - 1 do
      Cluster.spawn cluster ~pid (fun ctx ->
          List.iter
            (fun ns ->
              let t =
                Trusted.create ctx
                  ~cfg:{ Trusted.neb = { neb_cfg with Neb.ns } }
                  ~on_receive:(fun ~src ~msg ->
                    received.(pid) := (ns, src, msg) :: !(received.(pid)))
                  ()
              in
              if pid = 0 then Trusted.t_send t (tag ^ ns))
            namespaces)
    done;
    Cluster.run cluster;
    Cluster.check_errors cluster;
    Array.iteri
      (fun pid received ->
        Alcotest.(check (list (triple string int string)))
          (Printf.sprintf "%s: p%d receives its own namespaces' messages" tag pid)
          (List.map (fun ns -> (ns, 0, tag ^ ns)) namespaces)
          (List.sort compare !received))
      received
  in
  run ~namespaces:[ "x."; "y." ] ~tag:"first-";
  run ~namespaces:[ "x." ] ~tag:"second-"

let suite =
  [
    Alcotest.test_case "t-send/t-receive roundtrip" `Quick test_basic_roundtrip;
    Alcotest.test_case "history accumulates" `Quick test_history_accumulates;
    Alcotest.test_case "validator rejection convicts" `Quick test_validator_rejects;
    Alcotest.test_case "history prefix violation convicts" `Quick
      test_prefix_violation_convicts;
    Alcotest.test_case "fabricated citation convicts" `Quick
      test_fabricated_citation_convicts;
    Alcotest.test_case "history codec roundtrip" `Quick test_entry_codec_roundtrip;
    Alcotest.test_case "non-canonical history judged by value" `Quick
      test_noncanonical_history;
    Alcotest.test_case "incremental replay = from-scratch replay" `Quick
      test_incremental_replay_matches;
    Alcotest.test_case "board: restarted receiver splits afresh" `Quick
      test_restart_overwrite_split_afresh;
    Alcotest.test_case "board: one per cluster and namespace" `Quick
      test_boards_per_namespace_and_cluster;
  ]
