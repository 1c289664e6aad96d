(* The replicated-log kernel under both SMR engines: everything the
   Mu-style log on Protected Memory Paxos ([Smr_log], "pmp") and the
   one-sided Velos engine ([Velos], "velos") share.  Both keep the log in
   one region per memory, exclusively writable by the current leader
   (the permission discipline of Algorithm 7); they differ only in the
   commit point, in how followers learn, and in the read path — which
   stay in the engines.

   Owned here: the log layout and codecs, the client protocol, the
   replica core state (applied stream, term, mailboxes, subscribers),
   the reign loop with its recovery adoption and rewrite, checkpoints
   with truncation, the state-transfer scaffolding for restarted
   memories, and the client loops. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_mm
open Rdma_obs
open Rdma_consensus

let entry_reg i = Printf.sprintf "e.%d" i

(* {2 Codecs} *)

let encode_entry ~term ~cmd = Codec.join2 (Codec.int_field term) cmd

let decode_entry s =
  match Codec.split2 s with
  | None -> None
  | Some (tf, cmd) -> Option.map (fun term -> (term, cmd)) (Codec.int_of_field tf)

(* Commands are stored with their (client, seq) origin so that a new
   leader can rebuild the duplicate-suppression table from the log and a
   retried request is acknowledged rather than re-appended. *)
let encode_cmd_meta ~client ~seq ~cmd =
  Codec.join3 (Codec.int_field client) (Codec.int_field seq) cmd

let decode_cmd_meta s =
  match Codec.split3 s with
  | None -> None
  | Some (cf, qf, cmd) -> (
      match (Codec.int_of_field cf, Codec.int_of_field qf) with
      | Some client, Some seq -> Some (client, seq, cmd)
      | _ -> None)

(* Client/replica messages.  Velos never sends the replica-to-replica
   ones (Commit, Catch_up, Snapshot): its followers learn from memory. *)
type msg =
  | Request of { client : int; seq : int; cmd : string }
  | Ack of { client : int; seq : int; index : int }
  | Commit of { index : int; cmd : string }
  | Read_request of { client : int; seq : int }
  | Read_reply of { client : int; seq : int; up_to : int }
  | Catch_up of { pid : int }
  | Snapshot of { up_to : int; entries : string list }

let encode_msg = function
  | Request { client; seq; cmd } ->
      Codec.join [ "req"; Codec.int_field client; Codec.int_field seq; cmd ]
  | Ack { client; seq; index } ->
      Codec.join [ "ack"; Codec.int_field client; Codec.int_field seq;
        Codec.int_field index ]
  | Commit { index; cmd } -> Codec.join [ "com"; Codec.int_field index; cmd ]
  | Read_request { client; seq } ->
      Codec.join [ "rdq"; Codec.int_field client; Codec.int_field seq ]
  | Read_reply { client; seq; up_to } ->
      Codec.join [ "rdr"; Codec.int_field client; Codec.int_field seq;
        Codec.int_field up_to ]
  | Catch_up { pid } -> Codec.join [ "cup"; Codec.int_field pid ]
  | Snapshot { up_to; entries } ->
      Codec.join ("snp" :: Codec.int_field up_to :: entries)

let decode_msg s =
  match Codec.split s with
  | [ "req"; c; q; cmd ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (Request { client; seq; cmd })
      | _ -> None)
  | [ "ack"; c; q; i ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field i) with
      | Some client, Some seq, Some index -> Some (Ack { client; seq; index })
      | _ -> None)
  | [ "com"; i; cmd ] ->
      Option.map (fun index -> Commit { index; cmd }) (Codec.int_of_field i)
  | [ "rdq"; c; q ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (Read_request { client; seq })
      | _ -> None)
  | [ "rdr"; c; q; u ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field u) with
      | Some client, Some seq, Some up_to -> Some (Read_reply { client; seq; up_to })
      | _ -> None)
  | [ "cup"; p ] -> Option.map (fun pid -> Catch_up { pid }) (Codec.int_of_field p)
  | "snp" :: u :: entries ->
      Option.map (fun up_to -> Snapshot { up_to; entries }) (Codec.int_of_field u)
  | _ -> None

(* {2 Region} *)

(* Only replicas may take the log's exclusive write permission. *)
let legal_change ~region (cfg : Consensus_engine.config) : Permission.legal_change =
 fun ~pid ~region:r ~current:_ ~requested ->
  r = region
  && pid < cfg.replicas
  && Permission.sole_writer requested = Some pid

let setup_regions ~region ~header cluster (cfg : Consensus_engine.config) =
  let n = Cluster.n cluster in
  Cluster.add_region_everywhere cluster ~name:region
    ~perm:(Permission.exclusive_writer ~writer:0 ~n)
    ~registers:(header @ List.init cfg.max_entries (fun i -> entry_reg (i + 1)))

(* The Ω leader as clients and followers address it, clamped to the
   replica range. *)
let leader (ctx : _ Cluster.ctx) (cfg : Consensus_engine.config) =
  min (Omega.leader ctx.Cluster.ctx_omega) (cfg.replicas - 1)

(* {2 Replica core} *)

type 'x replica = {
  tag : string; (* fiber, stat and event prefix: "smr" or "velos" *)
  region : string;
  pid : int;
  cfg : Consensus_engine.config;
  applied : (int * string) Queue.t; (* (index, cmd) in application order *)
  mutable applied_up_to : int;
  mutable current_term : int;
  mutable stopped : bool;
  mutable subscribed : bool; (* telemetry subscription installed once *)
  requests : (int * int * string) Mailbox.t; (* client, seq, cmd *)
  reads : (int * int) Mailbox.t; (* client, seq *)
  rejoin : int Mailbox.t; (* restarted memories awaiting state transfer *)
  mutable commit_subs : (index:int -> cmd:string -> unit) list;
  mutable recover_subs : (term:int -> unit) list;
  ext : 'x; (* the engine's own state *)
}

let create ~tag ~region ~pid cfg ext =
  {
    tag;
    region;
    pid;
    cfg;
    applied = Queue.create ();
    applied_up_to = 0;
    current_term = 0;
    stopped = false;
    subscribed = false;
    requests = Mailbox.create ();
    reads = Mailbox.create ();
    rejoin = Mailbox.create ();
    commit_subs = [];
    recover_subs = [];
    ext;
  }

module Accessors = struct
  let applied_entries r =
    Queue.fold (fun acc e -> e :: acc) [] r.applied |> List.rev

  let applied_count r = r.applied_up_to

  let current_term r = r.current_term

  let on_commit r f = r.commit_subs <- f :: r.commit_subs

  let on_recover r f = r.recover_subs <- f :: r.recover_subs

  (* Stop a replica's loops (so a test's run can quiesce). *)
  let stop r = r.stopped <- true
end

include Accessors

let apply_entry r ~index ~cmd =
  if index = r.applied_up_to + 1 then begin
    Queue.push (index, cmd) r.applied;
    r.applied_up_to <- index;
    List.iter (fun f -> f ~index ~cmd) r.commit_subs
  end

(* Apply a stored entry string (committed, so its metadata is trusted). *)
let apply_stored r ~index stored =
  let cmd =
    match decode_cmd_meta stored with Some (_, _, cmd) -> cmd | None -> stored
  in
  apply_entry r ~index ~cmd

(* Install a committed prefix (a snapshot or a checkpoint) wholesale:
   apply the entries we are missing — no log replay. *)
let install r entries =
  List.iteri
    (fun i stored ->
      let index = i + 1 in
      if index > r.applied_up_to then apply_stored r ~index stored)
    entries

(* A (re)started replica begins from nothing: Cluster.restart_process
   re-runs the replica program from the top.  Restarted-memory
   announcements (the Mem_restart telemetry event) reach every replica;
   the current leader acts on them (see [serve_rejoins]). *)
let restart (ctx : _ Cluster.ctx) r =
  Queue.clear r.applied;
  r.applied_up_to <- 0;
  r.current_term <- 0;
  r.stopped <- false;
  ignore (Mailbox.drain r.requests);
  ignore (Mailbox.drain r.reads);
  if not r.subscribed then begin
    r.subscribed <- true;
    Obs.subscribe ctx.Cluster.ctx_obs (fun ~at:_ ~actor:_ ev ->
        match (ev : Event.t) with
        | Event.Mem_restart { mid; _ } -> Mailbox.send r.rejoin mid
        | _ -> ())
  end

(* Route client messages to the request and read mailboxes; everything
   else goes to [other]. *)
let pump (ctx : _ Cluster.ctx) r ~other =
  while not r.stopped do
    let _from, payload = Network.recv ctx.Cluster.ep in
    match decode_msg payload with
    | Some (Request { client; seq; cmd }) -> Mailbox.send r.requests (client, seq, cmd)
    | Some (Read_request { client; seq }) -> Mailbox.send r.reads (client, seq)
    | Some msg -> other msg
    | None -> ()
  done

(* {2 Recovery} *)

type adoption = {
  views : (int * string option array) list;
  failed : int list;
  base : int;
  base_entries : string list;
  tail : (int * string) list;
}

(* Leader recovery, read side: take the permission on every memory, read
   [header] plus the whole log from a quorum of successful chains, adopt
   the highest checkpoint, then for every slot above it the value with
   the highest term (any committed slot is preserved: the read quorum
   intersects the commit quorum, and by induction every replica holding
   a term ≥ the committing term holds the committed command).  [header]
   starts with the checkpoint register. *)
let takeover (ctx : _ Cluster.ctx) r ~header =
  let cfg = r.cfg in
  let regs = header @ List.init cfg.max_entries (fun i -> entry_reg (i + 1)) in
  match
    Protected_region.takeover_read ctx ~fiber:(r.tag ^ ".recover") ~region:r.region
      ~regs ~quorum:(Protected_region.quorum ctx cfg.f_m)
  with
  | None -> None
  | Some (views, failed) ->
      (* Adopt the highest checkpoint seen: it covers only committed
         entries (written quorum-acked before any truncation), and the
         read quorum intersects the checkpoint's write quorum. *)
      let base_entries = Protected_region.max_ckpt views in
      let base = List.length base_entries in
      (* Per-slot max-term adoption above the checkpoint (values below it
         may be truncated away and are covered by the checkpoint). *)
      let offset = List.length header in
      let adopted = Array.make cfg.max_entries None in
      List.iter
        (fun (_, values) ->
          Array.iteri
            (fun j v ->
              if j >= offset then begin
                let idx = j - offset in
                if idx >= base then
                  match Option.bind v decode_entry with
                  | None -> ()
                  | Some (t, stored) -> (
                      match adopted.(idx) with
                      | Some (t0, _) when t0 >= t -> ()
                      | _ -> adopted.(idx) <- Some (t, stored))
              end)
            values)
        views;
      (* Dense adopted tail above the checkpoint. *)
      let tail = ref [] in
      (try
         for idx = base to cfg.max_entries - 1 do
           match adopted.(idx) with
           | Some (_, stored) -> tail := (idx + 1, stored) :: !tail
           | None -> raise Exit
         done
       with Exit -> ());
      Some { views; failed; base; base_entries; tail = List.rev !tail }

(* Leader recovery, write side: re-replicate the adopted checkpoint,
   then rewrite the tail under our own term, in order, each all-acked by
   a quorum; stop at the first nak ([false] = deposed meanwhile).  An
   all-ack under our permission is a commit: the only reader that could
   contradict it is a successor's takeover, which swaps permissions on
   every memory first and so drains these writes (DESIGN.md §12). *)
let rewrite (ctx : _ Cluster.ctx) r ~term a =
  let acked reg value =
    let writes =
      Memclient.write_all_async ctx.Cluster.client ~region:r.region ~reg value
    in
    Protected_region.all_acked writes (Protected_region.quorum ctx r.cfg.f_m)
  in
  (a.base = 0
  || acked Protected_region.ckpt_reg (Protected_region.encode_ckpt a.base_entries))
  && List.for_all
       (fun (index, stored) -> acked (entry_reg index) (encode_entry ~term ~cmd:stored))
       a.tail

(* The adopted log: checkpointed entries, then the dense tail. *)
let prefix a = List.mapi (fun i stored -> (i + 1, stored)) a.base_entries @ a.tail

(* State transfer of this leader's view to one restarted memory
   (Protected_region.spawn_repair): checkpoint, the engine's [header]
   registers, and the log above the checkpoint under our term. *)
let spawn_repair (ctx : _ Cluster.ctx) r ~term ~up_to ~entries ~tail ~header mid =
  Protected_region.spawn_repair ctx ~name:(r.tag ^ ".repair") ~region:r.region ~mid
    (fun () ->
      let slot i =
        ( entry_reg i,
          if i <= up_to then None
          else Option.map (fun cmd -> encode_entry ~term ~cmd) (List.assoc_opt i tail) )
      in
      let ckpt =
        if up_to = 0 then None else Some (Protected_region.encode_ckpt entries)
      in
      ((Protected_region.ckpt_reg, ckpt) :: header)
      @ List.init r.cfg.max_entries (fun i -> slot (i + 1)))

(* {2 Reigns} *)

type reign = {
  term : int;
  dedup : (int * int, int) Hashtbl.t; (* (client, seq) -> committed index *)
  stored : (int, string) Hashtbl.t; (* index -> stored entry, whole log *)
  mutable next : int; (* next free log index *)
  mutable ckpt_up_to : int;
  mutable deposed : bool;
}

(* The leader loop: wait for Ω, open a reign under a fresh term, recover
   (except on the initial leader's very first reign), rebuild duplicate
   suppression and the stored log from the recovered prefix, hand every
   recovered entry to [deliver], then [serve] the reign. *)
let lead (ctx : _ Cluster.ctx) r ~recover ~deliver ~serve =
  let terms = ref 0 in
  let continue = ref true in
  while !continue && not r.stopped do
    Omega.wait_until_leader ctx.Cluster.ctx_omega ~me:r.pid;
    if r.stopped || Engine.now ctx.Cluster.ctx_engine >= r.cfg.serve_until then
      continue := false
    else begin
      incr terms;
      if !terms > r.cfg.max_terms then continue := false
      else begin
        let term = (!terms * r.cfg.replicas) + r.pid + 1 in
        r.current_term <- term;
        (* The very first reign of the initial leader: permissions are
           still at their creation values and the log is empty — skip
           recovery (the 2-delay fast path from the very first append).
           A RESTARTED initial leader (now > 0) recovers like anyone
           else. *)
        let recovered =
          if r.pid = 0 && !terms = 1 && Engine.now ctx.Cluster.ctx_engine = 0.0
          then Some ([], 0)
          else recover ~term
        in
        match recovered with
        | None -> () (* deposed during recovery; wait for Ω again *)
        | Some (prefix, ckpt_base) ->
            List.iter (fun f -> f ~term) r.recover_subs;
            let dedup = Hashtbl.create 32 in
            let stored = Hashtbl.create 64 in
            List.iter
              (fun (index, stored_v) ->
                Hashtbl.replace stored index stored_v;
                let cmd =
                  match decode_cmd_meta stored_v with
                  | Some (client, seq, cmd) ->
                      Hashtbl.replace dedup (client, seq) index;
                      cmd
                  | None -> stored_v
                in
                deliver ~index ~cmd)
              prefix;
            let next = List.length prefix + 1 in
            serve { term; dedup; stored; next; ckpt_up_to = ckpt_base; deposed = false }
      end
    end
  done

let serving (ctx : _ Cluster.ctx) r reign =
  (not reign.deposed) && (not r.stopped)
  && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
  && Omega.leader ctx.Cluster.ctx_omega = r.pid

let ack (ctx : _ Cluster.ctx) ~client ~seq ~index =
  Network.send ctx.Cluster.ep ~dst:client (encode_msg (Ack { client; seq; index }))

let checkpoint_due r reign =
  r.cfg.checkpoint_every > 0
  && reign.next - 1 >= reign.ckpt_up_to + r.cfg.checkpoint_every

(* Checkpoint the committed log and truncate the covered entries
   (Protected_region.checkpoint); a nak deposes the reign. *)
let checkpoint (ctx : _ Cluster.ctx) r reign =
  let up_to = reign.next - 1 in
  if
    Protected_region.checkpoint ctx ~name:(r.tag ^ ".checkpoint") ~region:r.region
      ~quorum:(Protected_region.quorum ctx r.cfg.f_m)
      ~covered:(List.init up_to (fun i -> entry_reg (i + 1)))
      (List.init up_to (fun i -> Hashtbl.find reign.stored (i + 1)))
  then reign.ckpt_up_to <- up_to
  else reign.deposed <- true

(* Restarted memories announced themselves: transfer each the full
   committed log.  [prove] first rewrites a permission-protected
   register quorum-acked (deposing the reign on a nak): all-ack means we
   still hold write permission on a quorum, so every committed entry is
   ours or was adopted by our recovery — the transfer cannot mask an
   entry a newer-term leader committed.  On a nak the drained mids go
   BACK on the mailbox, because the nak may be the restarted memory
   itself (fresh epoch), not a rival: whoever leads next (possibly this
   replica, re-recovered under a higher term) must still serve the
   transfer.  A rival that heard the same Mem_restart events repairs
   twice; the transfer is stale-filtered, so that is safe. *)
let serve_rejoins r reign ~prove ~repair =
  match Mailbox.drain r.rejoin with
  | [] -> ()
  | mids ->
      if not (prove ()) then List.iter (Mailbox.send r.rejoin) mids
      else begin
        let up_to = reign.ckpt_up_to in
        let entries = List.init up_to (fun i -> Hashtbl.find reign.stored (i + 1)) in
        let tail =
          List.init (reign.next - 1 - up_to) (fun i ->
              let index = up_to + i + 1 in
              (index, Hashtbl.find reign.stored index))
        in
        List.iter (repair ~up_to ~entries ~tail) (List.sort_uniq compare mids)
      end

(* {2 Clients}

   A client is an extra process (pid ≥ replicas): it sends [request] to
   [dst ()], awaits the reply [reply] accepts, and resends (possibly to
   a new leader) on timeout. *)
let call (ctx : _ Cluster.ctx) ~dst ~timeout request reply =
  let me = ctx.Cluster.pid in
  let deadline = Engine.now ctx.Cluster.ctx_engine +. timeout in
  let rec attempt () =
    if Engine.now ctx.Cluster.ctx_engine >= deadline then None
    else begin
      Network.send ctx.Cluster.ep ~dst:(dst ()) (encode_msg (request me));
      let rec await () =
        let remaining = deadline -. Engine.now ctx.Cluster.ctx_engine in
        let wait = min 20.0 remaining in
        if wait <= 0. then None
        else
          match Network.recv_timeout ctx.Cluster.ep wait with
          | None -> attempt ()
          | Some (_, payload) -> (
              match Option.bind (decode_msg payload) (reply me) with
              | Some v -> Some v
              | None -> await ())
      in
      await ()
    end
  in
  attempt ()

let submit (ctx : _ Cluster.ctx) ~cfg ~seq ~cmd ~timeout =
  call ctx ~timeout
    ~dst:(fun () -> leader ctx cfg)
    (fun me -> Request { client = me; seq; cmd })
    (fun me -> function
      | Ack { client; seq = s; index } when client = me && s = seq -> Some index
      | Ack _ (* another client's ack *)
      | Request _ | Commit _ | Read_request _ | Read_reply _ | Catch_up _
      | Snapshot _ ->
          None)

let linearizable_read (ctx : _ Cluster.ctx) ~seq ~timeout ~dst =
  call ctx ~timeout ~dst
    (fun me -> Read_request { client = me; seq })
    (fun me -> function
      | Read_reply { client; seq = s; up_to } when client = me && s = seq -> Some up_to
      | Read_reply _ (* another client's reply *)
      | Request _ | Ack _ | Commit _ | Read_request _ | Catch_up _ | Snapshot _ ->
          None)
