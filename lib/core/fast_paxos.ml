(* Fast Paxos (Lamport) — the message-passing 2-deciding baseline.

   The paper's comparison point (Section 1): message passing alone can
   decide in two delays in common executions, but needs n ≥ 2fP + 1
   processes, while Protected Memory Paxos achieves the same two delays
   with n ≥ fP + 1 (plus memories).

   We instantiate Fast Paxos with e = 0 (fast quorum = all n acceptors),
   which is the configuration matching the paper's n ≥ 2fP + 1 row: the
   fast path needs every acceptor, so it only fires in failure-free
   executions — exactly the "common case" — while the classic path
   (majority quorums, coordinated by Ω) provides f-crash tolerance.

   Fast path: a proposer broadcasts its value in round 0 (pre-authorized
   "any value"); each acceptor accepts the first round-0 value it sees
   and broadcasts Accepted(0, v); any process that sees all n acceptors
   accept the same v decides — two delays end to end.

   Recovery: if a process suspects the fast round (timeout), the Ω leader
   runs a classic round b ≥ 1.  Value selection from a majority of
   promises: a value accepted at a classic ballot wins by highest ballot;
   otherwise, if any promise reports a round-0 acceptance, the most
   frequent round-0 value is chosen (with a full-n fast quorum, a
   fast-chosen value is reported unanimously, so this is safe); otherwise
   the leader's input. *)

open Rdma_sim
open Rdma_mm
open Rdma_net
open Rdma_obs

type msg =
  | Propose of { value : string } (* round-0 fast proposal *)
  | FastAccepted of { acceptor : int; value : string }
  | Prepare of { ballot : int }
  | Promise of {
      ballot : int;
      accepted_ballot : int; (* 0 = round-0 acceptance or nothing *)
      accepted_value : string;
      has_fast : bool; (* did this acceptor accept in round 0? *)
    }
  | Reject of { ballot : int; higher : int }
  | Accept of { ballot : int; value : string }
  | Accepted of { ballot : int }
  | Decide of { value : string }

let encode = function
  | Propose { value } -> Codec.join [ "fp"; value ]
  | FastAccepted { acceptor; value } ->
      Codec.join [ "fa"; Codec.int_field acceptor; value ]
  | Prepare { ballot } -> Codec.join [ "p1"; Codec.int_field ballot ]
  | Promise { ballot; accepted_ballot; accepted_value; has_fast } ->
      Codec.join
        [ "pr"; Codec.int_field ballot; Codec.int_field accepted_ballot;
          accepted_value; (if has_fast then "1" else "0") ]
  | Reject { ballot; higher } ->
      Codec.join [ "rj"; Codec.int_field ballot; Codec.int_field higher ]
  | Accept { ballot; value } -> Codec.join [ "p2"; Codec.int_field ballot; value ]
  | Accepted { ballot } -> Codec.join [ "ak"; Codec.int_field ballot ]
  | Decide { value } -> Codec.join [ "dc"; value ]

let decode s =
  match Codec.split s with
  | [ "fp"; v ] -> Some (Propose { value = v })
  | [ "fa"; a; v ] ->
      Option.map (fun acceptor -> FastAccepted { acceptor; value = v })
        (Codec.int_of_field a)
  | [ "p1"; b ] -> Option.map (fun ballot -> Prepare { ballot }) (Codec.int_of_field b)
  | [ "pr"; b; ab; av; hf ] -> (
      match (Codec.int_of_field b, Codec.int_of_field ab, hf) with
      | Some ballot, Some accepted_ballot, ("0" | "1") ->
          Some
            (Promise
               { ballot; accepted_ballot; accepted_value = av; has_fast = hf = "1" })
      | _ -> None)
  | [ "rj"; b; h ] -> (
      match (Codec.int_of_field b, Codec.int_of_field h) with
      | Some ballot, Some higher -> Some (Reject { ballot; higher })
      | _ -> None)
  | [ "p2"; b; v ] ->
      Option.map (fun ballot -> Accept { ballot; value = v }) (Codec.int_of_field b)
  | [ "ak"; b ] -> Option.map (fun ballot -> Accepted { ballot }) (Codec.int_of_field b)
  | [ "dc"; v ] -> Some (Decide { value = v })
  | _ -> None

type config = {
  recovery_timeout : float; (* when the leader abandons the fast round *)
  round_timeout : float;
  max_rounds : int;
  proposer_stagger : float;
      (* followers hold their fast proposal back this long per pid, so
         the common case has a single fast proposer *)
}

let default_config =
  { recovery_timeout = 10.0; round_timeout = 8.0; max_rounds = 64;
    proposer_stagger = 4.0 }

type handle = { decision : Report.decision Ivar.t }

let decision h = h.decision

type state = {
  ctx : string Cluster.ctx;
  cfg : config;
  input : string;
  decision : Report.decision Ivar.t;
  acceptor_box : (int * msg) Mailbox.t;
  learner_box : (int * msg) Mailbox.t;
  recovery_box : (int * msg) Mailbox.t;
}

let decide_now st value =
  if
    Ivar.try_fill st.decision
      { Report.value; at = Engine.now st.ctx.Cluster.ctx_engine }
  then
    Obs.event
      (Engine.obs st.ctx.Cluster.ctx_engine)
      ~actor:(Printf.sprintf "p%d" st.ctx.Cluster.pid)
      (Event.Decide { pid = st.ctx.Cluster.pid; value })

let pump st =
  let continue = ref true in
  while !continue do
    let from, payload = Network.recv st.ctx.Cluster.ep in
    match decode payload with
    | None -> ()
    | Some (Decide { value } as m) ->
        decide_now st value;
        Mailbox.send st.acceptor_box (from, m);
        Mailbox.send st.learner_box (from, m);
        Mailbox.send st.recovery_box (from, m);
        continue := false
    | Some (Propose _ as m) | Some (Prepare _ as m) | Some (Accept _ as m) ->
        Mailbox.send st.acceptor_box (from, m)
    | Some (FastAccepted _ as m) -> Mailbox.send st.learner_box (from, m)
    | Some (Promise _ as m) | Some (Reject _ as m) | Some (Accepted _ as m) ->
        Mailbox.send st.recovery_box (from, m)
  done

let acceptor st =
  let ep = st.ctx.Cluster.ep in
  let min_proposal = ref 0 in
  let accepted_ballot = ref 0 in
  let accepted_value = ref None in
  let continue = ref true in
  while !continue do
    let from, m = Mailbox.recv st.acceptor_box in
    match m with
    | Propose { value } ->
        (* Round 0: accept the first value, only if we have not promised
           any classic ballot and not accepted yet. *)
        if !min_proposal = 0 && !accepted_value = None then begin
          accepted_value := Some value;
          Network.broadcast ep
            (encode (FastAccepted { acceptor = st.ctx.Cluster.pid; value }))
        end
    | Prepare { ballot } ->
        if ballot > !min_proposal then begin
          min_proposal := ballot;
          let has_fast = !accepted_ballot = 0 && !accepted_value <> None in
          Network.send ep ~dst:from
            (encode
               (Promise
                  { ballot; accepted_ballot = !accepted_ballot;
                    accepted_value = Option.value !accepted_value ~default:"";
                    has_fast }))
        end
        else
          Network.send ep ~dst:from (encode (Reject { ballot; higher = !min_proposal }))
    | Accept { ballot; value } ->
        if ballot >= !min_proposal && ballot > 0 then begin
          min_proposal := ballot;
          accepted_ballot := ballot;
          accepted_value := Some value;
          Network.send ep ~dst:from (encode (Accepted { ballot }))
        end
        else
          Network.send ep ~dst:from (encode (Reject { ballot; higher = !min_proposal }))
    | Decide _ -> continue := false
    | FastAccepted _ | Promise _ | Reject _ | Accepted _ -> ()
  done

(* Learner: watch for a full fast quorum (all n acceptors) on one value. *)
let learner st =
  let n = st.ctx.Cluster.cluster_n in
  let votes = Hashtbl.create 8 in
  let voted = Array.make n false in
  let continue = ref true in
  while !continue do
    let _, m = Mailbox.recv st.learner_box in
    match m with
    | FastAccepted { acceptor; value } ->
        if acceptor >= 0 && acceptor < n && not voted.(acceptor) then begin
          voted.(acceptor) <- true;
          let count =
            match Hashtbl.find_opt votes value with Some c -> c + 1 | None -> 1
          in
          Hashtbl.replace votes value count;
          if count = n then begin
            decide_now st value;
            Network.broadcast st.ctx.Cluster.ep (encode (Decide { value }));
            continue := false
          end
        end
    | Decide _ -> continue := false
    | Propose _ | Prepare _ | Promise _ | Reject _ | Accept _ | Accepted _ -> ()
  done

(* The fast proposer: p0 fires immediately; others hold back so the
   common case has a single round-0 value. *)
let fast_proposer st =
  let me = st.ctx.Cluster.pid in
  if me > 0 then Engine.sleep (float_of_int me *. st.cfg.proposer_stagger);
  if not (Ivar.is_full st.decision) then
    Network.broadcast st.ctx.Cluster.ep (encode (Propose { value = st.input }))

type collect = Quorum of (int * int * string * bool) list | Rejected | Timeout

let collect_promises st ~ballot ~quorum =
  let deadline = Engine.now st.ctx.Cluster.ctx_engine +. st.cfg.round_timeout in
  let rec loop acc =
    if List.length acc >= quorum then Quorum acc
    else
      let remaining = deadline -. Engine.now st.ctx.Cluster.ctx_engine in
      if remaining <= 0. then Timeout
      else
        match Mailbox.recv_timeout st.recovery_box remaining with
        | None -> Timeout
        | Some (from, m) -> (
            match m with
            | Promise { ballot = b; accepted_ballot; accepted_value; has_fast }
              when b = ballot ->
                loop ((from, accepted_ballot, accepted_value, has_fast) :: acc)
            | Reject { ballot = b; _ } when b = ballot -> Rejected
            | Decide _ -> Rejected
            | Promise _ | Reject _ (* stale ballot *)
            | Propose _ | FastAccepted _ | Prepare _ | Accept _ | Accepted _ ->
                loop acc)
  in
  loop []

let collect_accepts st ~ballot ~quorum =
  let deadline = Engine.now st.ctx.Cluster.ctx_engine +. st.cfg.round_timeout in
  let rec loop count =
    if count >= quorum then Quorum []
    else
      let remaining = deadline -. Engine.now st.ctx.Cluster.ctx_engine in
      if remaining <= 0. then Timeout
      else
        match Mailbox.recv_timeout st.recovery_box remaining with
        | None -> Timeout
        | Some (_, m) -> (
            match m with
            | Accepted { ballot = b } when b = ballot -> loop (count + 1)
            | Reject { ballot = b; _ } when b = ballot -> Rejected
            | Decide _ -> Rejected
            | Accepted _ | Reject _ (* stale ballot *)
            | Propose _ | FastAccepted _ | Prepare _ | Promise _ | Accept _ ->
                loop count)
  in
  loop 0

(* Classic recovery, run by the Ω leader if the fast round stalls. *)
let recovery st =
  let n = st.ctx.Cluster.cluster_n in
  let me = st.ctx.Cluster.pid in
  let ep = st.ctx.Cluster.ep in
  let majority = (n / 2) + 1 in
  Engine.sleep st.cfg.recovery_timeout;
  let round = ref 0 in
  let continue = ref true in
  while !continue do
    if Ivar.is_full st.decision then continue := false
    else begin
      Omega.wait_until_leader st.ctx.Cluster.ctx_omega ~me;
      if Ivar.is_full st.decision then continue := false
      else begin
        incr round;
        if !round > st.cfg.max_rounds then continue := false
        else begin
          let ballot = (!round * n) + me + 1 in
          Network.broadcast ep (encode (Prepare { ballot }));
          match collect_promises st ~ballot ~quorum:majority with
          | Rejected | Timeout -> Engine.sleep 3.0
          | Quorum promises -> (
              (* Value selection (observe that with a full-n fast quorum a
                 fast-chosen value appears in every promise). *)
              let classic_best =
                List.fold_left
                  (fun acc (_, ab, av, _) ->
                    if ab > 0 then
                      match acc with
                      | Some (b, _) when b >= ab -> acc
                      | _ -> Some (ab, av)
                    else acc)
                  None promises
              in
              let value =
                match classic_best with
                | Some (_, v) -> v
                | None -> (
                    let counts = Hashtbl.create 8 in
                    List.iter
                      (fun (_, ab, av, has_fast) ->
                        if ab = 0 && has_fast then
                          let c =
                            match Hashtbl.find_opt counts av with
                            | Some c -> c + 1
                            | None -> 1
                          in
                          Hashtbl.replace counts av c)
                      promises;
                    (* Order-independent max-reduction: highest count,
                       ties broken toward the smaller value — a total
                       order, so the hash-bucket fold order cannot
                       change the result. *)
                    let best =
                      (Hashtbl.fold
                         (fun v c acc ->
                           match acc with
                           | Some (c0, v0) when c0 > c || (c0 = c && v0 <= v) -> acc
                           | _ -> Some (c, v))
                         counts None)
                      [@simlint.allow "D2"]
                    in
                    match best with Some (_, v) -> v | None -> st.input)
              in
              Network.broadcast ep (encode (Accept { ballot; value }));
              match collect_accepts st ~ballot ~quorum:majority with
              | Rejected | Timeout -> Engine.sleep 3.0
              | Quorum _ ->
                  decide_now st value;
                  Network.broadcast ep (encode (Decide { value }));
                  continue := false)
        end
      end
    end
  done

let spawn cluster ?(cfg = default_config) ~pid ~input () =
  let decision = Ivar.create () in
  Cluster.spawn cluster ~pid (fun ctx ->
      let st =
        {
          ctx;
          cfg;
          input;
          decision;
          acceptor_box = Mailbox.create ();
          learner_box = Mailbox.create ();
          recovery_box = Mailbox.create ();
        }
      in
      ctx.Cluster.spawn_sub "fp.pump" (fun () -> pump st);
      ctx.Cluster.spawn_sub "fp.acceptor" (fun () -> acceptor st);
      ctx.Cluster.spawn_sub "fp.learner" (fun () -> learner st);
      ctx.Cluster.spawn_sub "fp.recovery" (fun () -> recovery st);
      fast_proposer st);
  ({ decision } : handle)

let run ?(cfg = default_config) ?(seed = 1) ?(faults = []) ?(prepare = fun _ -> ()) ~n ~inputs () =
  if Array.length inputs <> n then invalid_arg "Fast_paxos.run: |inputs| <> n";
  let cluster = Cluster.create ~seed ~n ~m:0 () in
  let handles = Array.init n (fun pid -> spawn cluster ~cfg ~pid ~input:inputs.(pid) ()) in
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let decisions = Array.map (fun (h : handle) -> Ivar.peek h.decision) handles in
  Report.of_cluster ~algorithm:"fast-paxos" ~decisions cluster
