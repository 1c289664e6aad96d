(* Cross-cutting adversarial cases: signature domain separation and
   replay attacks across protocol layers. *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto
open Rdma_consensus

let test_signature_domain_separation () =
  (* The three protocols sign the same application value under different
     payloads, so a signature captured in one protocol cannot be replayed
     in another. *)
  let chain = Keychain.create ~n:3 () in
  let signer = Keychain.signer chain 1 in
  let v = "transfer $100" in
  let cq_payload = Cheap_quorum.value_payload v in
  let neb_payload = Neb.slot_payload ~k:1 v in
  let bare_payload = Trusted.bare_payload ~k:1 v in
  Alcotest.(check bool) "payload domains are distinct" true
    (cq_payload <> neb_payload && neb_payload <> bare_payload
    && cq_payload <> bare_payload);
  let cq_sig = Keychain.sign signer cq_payload in
  Alcotest.(check bool) "CQ signature valid in its own domain" true
    (Keychain.valid chain ~author:1 cq_payload cq_sig);
  Alcotest.(check bool) "CQ signature rejected as NEB slot" false
    (Keychain.valid chain ~author:1 neb_payload cq_sig);
  Alcotest.(check bool) "CQ signature rejected as trusted citation" false
    (Keychain.valid chain ~author:1 bare_payload cq_sig)

(* A Byzantine process replays p1's genuinely-signed broadcast value as
   its *own* first message: the author check must refuse delivery. *)
let test_neb_identity_replay () =
  let neb_cfg = { Neb.default_config with give_up_at = 120.0; poll_interval = 1.0 } in
  let cluster : string Cluster.t = Cluster.create ~n:3 ~m:3 () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  let delivered = ref [] in
  (* p1 broadcasts honestly *)
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      Neb.spawn_poller ctx neb;
      Neb.broadcast neb "original");
  (* p0 (Byzantine) copies p1's signed slot value into its own broadcast
     slot *)
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      Engine.sleep 5.0;
      let reader =
        Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 1)
      in
      match Rdma_reg.Swmr.read reader ~reg:(Neb.slot_reg ~owner:1 ~k:1 ~src:1) with
      | Some stolen ->
          let own =
            Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
          in
          ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) stolen)
      | None -> ());
  (* p2 observes *)
  Cluster.spawn cluster ~pid:2 (fun ctx ->
      let neb =
        Neb.create ctx ~cfg:neb_cfg
          ~deliver:(fun ~k ~msg ~src -> delivered := (src, k, msg) :: !delivered)
          ()
      in
      Neb.spawn_poller ctx neb);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let from_p0 = List.filter (fun (src, _, _) -> src = 0) !delivered in
  let from_p1 = List.filter (fun (src, _, _) -> src = 1) !delivered in
  Alcotest.(check (list (pair int (pair int string))))
    "nothing delivered from the replayer"
    []
    (List.map (fun (s, k, m) -> (s, (k, m))) from_p0);
  Alcotest.(check bool) "the original still delivers" true
    (List.exists (fun (_, k, m) -> k = 1 && m = "original") from_p1)

(* Replaying a genuine signed (k=1) value into the k=2 slot of the same
   author: the embedded key mismatches the slot and delivery skips it. *)
let test_neb_sequence_replay () =
  let neb_cfg = { Neb.default_config with give_up_at = 120.0; poll_interval = 1.0 } in
  let cluster : string Cluster.t = Cluster.create ~n:2 ~m:3 () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  let delivered = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let own =
        Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
      in
      let signed =
        Neb.encode_slot ~k:1 ~msg:"once"
          ~signature:(Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 "once"))
      in
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) signed);
      (* replay the same signed value at sequence number 2 *)
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:2 ~src:0) signed));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let neb =
        Neb.create ctx ~cfg:neb_cfg
          ~deliver:(fun ~k ~msg ~src:_ -> delivered := (k, msg) :: !delivered)
          ()
      in
      Neb.spawn_poller ctx neb);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string)))
    "only the first instance delivers; the replay at k=2 is refused"
    [ (1, "once") ]
    (List.rev !delivered)

(* A Byzantine p0 copies correct p1's signed slot into its own copy slot
   for p1, re-encoding the same (k, msg, sig) with a non-canonical k.
   The copy holds the same value, so it is no evidence of equivocation:
   p1's message must still reach p2 (NEB property 1). *)
let test_neb_reencoded_copy_not_conflict () =
  let neb_cfg = { Neb.default_config with give_up_at = 120.0; poll_interval = 1.0 } in
  List.iter
    (fun k_field ->
      let cluster : string Cluster.t = Cluster.create ~n:3 ~m:3 () in
      Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
      let delivered = ref [] in
      Cluster.spawn cluster ~pid:1 (fun ctx ->
          let neb =
            Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) ()
          in
          Neb.broadcast neb "original");
      Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
          let reader =
            Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 1)
          in
          let rec steal () =
            match Rdma_reg.Swmr.read reader ~reg:(Neb.slot_reg ~owner:1 ~k:1 ~src:1) with
            | Some raw -> raw
            | None -> Engine.sleep 1.0; steal ()
          in
          match Codec.split3 (steal ()) with
          | Some (_, msg, sig_enc) ->
              let own =
                Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
              in
              ignore
                (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:1)
                   (Codec.join3 k_field msg sig_enc))
          | None -> ());
      (* p2 starts reading once p0's copy is in place *)
      Cluster.spawn cluster ~pid:2 (fun ctx ->
          Engine.sleep 20.0;
          let neb =
            Neb.create ctx ~cfg:neb_cfg
              ~deliver:(fun ~k ~msg ~src -> delivered := (src, k, msg) :: !delivered)
              ()
          in
          Neb.spawn_poller ctx neb);
      Cluster.run cluster;
      Cluster.check_errors cluster;
      Alcotest.(check (list (pair int (pair int string))))
        (Printf.sprintf "p1's message delivered despite a copy keyed %S" k_field)
        [ (1, (1, "original")) ]
        (List.map (fun (s, k, m) -> (s, (k, m))) !delivered))
    [ "01"; "+1"; "0x1"; "0b1"; "1_" ]

let test_permission_thief_cannot_take_neb_region () =
  (* Under the Fast & Robust legalChange policy, nobody can obtain write
     access to another process's NEB region. *)
  let n = 3 in
  let cluster : string Cluster.t =
    Cluster.create ~legal_change:(Fast_robust.legal_change ~n) ~n ~m:3 ()
  in
  Fast_robust.setup_regions cluster ();
  let stolen = ref false in
  Cluster.spawn_byzantine cluster ~pid:2 (fun ctx ->
      let results =
        Rdma_mem.Memclient.change_permission_quorum ~k:3 ctx.Cluster.client
          ~region:(Neb.region_of 1)
          ~perm:(Rdma_mem.Permission.exclusive_writer ~writer:2 ~n)
      in
      if List.exists (fun (_, r) -> r = Rdma_mem.Memory.Ack) results then stolen := true);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check bool) "NEB regions cannot be stolen" false !stolen

let suite =
  [
    Alcotest.test_case "signature domain separation" `Quick
      test_signature_domain_separation;
    Alcotest.test_case "NEB identity replay refused" `Quick test_neb_identity_replay;
    Alcotest.test_case "NEB sequence replay refused" `Quick test_neb_sequence_replay;
    Alcotest.test_case "NEB re-encoded copy is not equivocation" `Quick
      test_neb_reencoded_copy_not_conflict;
    Alcotest.test_case "legalChange guards NEB regions" `Quick
      test_permission_thief_cannot_take_neb_region;
  ]
