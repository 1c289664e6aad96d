(* A replicated log on protected memory — state machine replication in
   the style the paper's technique spawned (cf. Mu, µs-scale SMR).

   The log lives in one region per memory, exclusively writable by the
   current leader (the Protected Memory Paxos permission discipline,
   Algorithm 7).  In steady state the leader appends an entry with ONE
   replicated write — two delays — because write success certifies the
   absence of rivals; no acknowledgement round is needed.

   Leader change: the new leader takes the exclusive write permission on
   every memory, reads a majority of log replicas, adopts for every slot
   the value with the highest term, rewrites the adopted prefix under
   its own term, and resumes serving (Log_kernel.takeover/rewrite).

   Commands reach the leader as network messages from clients (who are
   extra processes on the same simulated network); committed entries are
   announced to the other replicas, which apply them in order.  What
   this engine shares with Velos lives in Log_kernel; kept here are the
   single-write commit with its Commit broadcast, the follower applier,
   snapshot catch-up and anti-entropy, and the lease-confirm read. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_mm
open Rdma_obs
open Rdma_consensus

let name = "pmp"

let descr =
  "Mu-style log on Protected Memory Paxos: permission-switched leader, \
   1 replicated write per append, quorum lease write per read"

let region = "smr"

(* The reign-proof register: a permission-protected write here naks iff
   a rival grabbed the permission. *)
let lease_reg = "lease"

let legal_change = Log_kernel.legal_change ~region

let setup_regions cluster cfg =
  Log_kernel.setup_regions ~region ~header:[ Protected_region.ckpt_reg; lease_reg ]
    cluster cfg

type ext = {
  mutable caught_up : bool; (* a restarted replica has received a snapshot *)
  pending : (int * string) Mailbox.t; (* decoded Commit messages *)
  catchups : int Mailbox.t; (* restarted replicas awaiting a snapshot *)
}

type replica = ext Log_kernel.replica

include Log_kernel.Accessors

(* Route replica-to-replica messages (client ones go through the
   kernel's pump). *)
let other (r : replica) (msg : Log_kernel.msg) =
  match msg with
  | Commit { index; cmd } -> Mailbox.send r.ext.pending (index, cmd)
  | Catch_up { pid } -> Mailbox.send r.ext.catchups pid
  | Snapshot { up_to = _; entries } ->
      (* Install the leader's snapshot. *)
      r.ext.caught_up <- true;
      Log_kernel.install r entries
  | Request _ | Ack _ | Read_request _ | Read_reply _ -> ()

(* Followers apply committed entries in order (buffering gaps). *)
let applier (r : replica) =
  let buffer = Hashtbl.create 32 in
  while not r.stopped do
    let index, cmd = Mailbox.recv r.ext.pending in
    Hashtbl.replace buffer index cmd;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt buffer (r.applied_up_to + 1) with
      | Some cmd ->
          Hashtbl.remove buffer (r.applied_up_to + 1);
          Log_kernel.apply_entry r ~index:(r.applied_up_to + 1) ~cmd
      | None -> continue := false
    done
  done

(* State transfer to a restarted memory: checkpoint, the lease register
   and the log, masked to what is still stale there. *)
let spawn_repair ctx (r : replica) ~term ~up_to ~entries ~tail mid =
  Log_kernel.spawn_repair ctx r ~term ~up_to ~entries ~tail
    ~header:[ (lease_reg, Some (Codec.int_field term)) ]
    mid

(* Leader recovery: adopt and rewrite (Log_kernel), then repair the
   memories whose chains nak'd (they restarted and lost the log).
   Returns the adopted log and checkpoint index, or None if deposed. *)
let recover ctx (r : replica) ~term =
  match Log_kernel.takeover ctx r ~header:[ Protected_region.ckpt_reg ] with
  | None -> None
  | Some a ->
      if not (Log_kernel.rewrite ctx r ~term a) then None
      else begin
        List.iter
          (fun mid ->
            spawn_repair ctx r ~term ~up_to:a.base ~entries:a.base_entries
              ~tail:a.tail mid)
          a.failed;
        Some (Log_kernel.prefix a, a.base)
      end

(* Announce a committed entry: apply it locally (via the applier) and
   broadcast it to the followers. *)
let deliver (ctx : _ Cluster.ctx) (r : replica) ~index ~cmd =
  Mailbox.send r.ext.pending (index, cmd);
  Network.broadcast ctx.Cluster.ep
    (Log_kernel.encode_msg (Commit { index; cmd }))

let serve (ctx : _ Cluster.ctx) (r : replica) (reign : Log_kernel.reign) =
  r.ext.caught_up <- true;
  let ep = ctx.Cluster.ep in
  let client = ctx.Cluster.client in
  let term = reign.term in
  let quorum = Protected_region.quorum ctx r.cfg.f_m in
  (* Reign proof: rewrite the term lease quorum-acked; a nak deposes. *)
  let confirm () =
    let writes =
      Memclient.write_all_async client ~region ~reg:lease_reg (Codec.int_field term)
    in
    let ok = Protected_region.all_acked writes quorum in
    if not ok then reign.deposed <- true;
    ok
  in
  (* A restarted replica asked to catch up: send it the whole committed
     log as one snapshot message — it installs the state instead of
     replaying (entries below the checkpoint may no longer exist in the
     log anyway). *)
  let serve_catchups () =
    match Mailbox.drain r.ext.catchups with
    | [] -> ()
    | pids ->
        let up_to = reign.next - 1 in
        let entries = List.init up_to (fun i -> Hashtbl.find reign.stored (i + 1)) in
        List.iter
          (fun dst ->
            Network.send ep ~dst
              (Log_kernel.encode_msg (Snapshot { up_to; entries })))
          (List.sort_uniq compare pids)
  in
  (* Append one entry in steady state: a single replicated write; all-ack
     majority = committed (two delays). *)
  let append (client_pid, seq, cmd) =
    match Hashtbl.find_opt reign.dedup (client_pid, seq) with
    | Some index ->
        (* a retry of a committed request: just re-ack *)
        Log_kernel.ack ctx ~client:client_pid ~seq ~index
    | None ->
        if reign.next > r.cfg.max_entries then reign.deposed <- true
        else begin
          let meta = Log_kernel.encode_cmd_meta ~client:client_pid ~seq ~cmd in
          let writes =
            Memclient.write_all_async client ~region
              ~reg:(Log_kernel.entry_reg reign.next)
              (Log_kernel.encode_entry ~term ~cmd:meta)
          in
          if
            (Protected_region.all_acked writes quorum)
            [@simlint.allow
              "F1 append commit point: the quorum all-ack decides the \
               entry; a rival that could read it stale first swaps \
               permissions, which drains this QP (DESIGN.md §12)"]
          then begin
            let index = reign.next in
            reign.next <- index + 1;
            Hashtbl.replace reign.dedup (client_pid, seq) index;
            Hashtbl.replace reign.stored index meta;
            deliver ctx r ~index ~cmd;
            Log_kernel.ack ctx ~client:client_pid ~seq ~index;
            if Log_kernel.checkpoint_due r reign then
              Log_kernel.checkpoint ctx r reign
          end
          else reign.deposed <- true
        end
  in
  while Log_kernel.serving ctx r reign do
    Log_kernel.serve_rejoins r reign ~prove:confirm
      ~repair:(spawn_repair ctx r ~term);
    serve_catchups ();
    (* Linearizable reads (Mu-style): confirm the reign is intact with
       one permission-protected write to a scratch lease register — it
       naks iff a rival grabbed the permission — then answer from local
       applied state. *)
    (match Mailbox.drain r.reads with
    | [] -> ()
    | readers ->
        Prof.scope "pmp.read.lease" (fun () ->
            Prof.bump "smr.reads.confirmed" (List.length readers);
            Stats.bump ctx.Cluster.ctx_stats "smr.reads.confirm";
            if
              (confirm ())
              [@simlint.allow
                "F1 read confirm: the lease write's all-ack only proves \
                 we still held the permission on a quorum; the reply \
                 reports local applied state, never the lease bytes"]
            then
              List.iter
                (fun (client, seq) ->
                  Network.send ep ~dst:client
                    (Log_kernel.encode_msg
                       (Read_reply { client; seq; up_to = r.applied_up_to })))
                readers));
    match Mailbox.recv_timeout r.requests 4.0 with
    | None -> ()
    | Some req -> append req
  done

let spawn_replica cluster ?(cfg = Consensus_engine.default_config) ~pid () =
  let r =
    Log_kernel.create ~tag:"smr" ~region ~pid cfg
      { caught_up = false; pending = Mailbox.create (); catchups = Mailbox.create () }
  in
  Cluster.spawn cluster ~pid (fun ctx ->
      (* A (re)started replica begins from nothing: drop any pre-crash
         state and catch up from the current leader (snapshot install). *)
      Log_kernel.restart ctx r;
      let ask_snapshot leader =
        Network.send ctx.Cluster.ep ~dst:leader
          (Log_kernel.encode_msg (Catch_up { pid = r.pid }))
      in
      r.ext.caught_up <- false;
      ignore (Mailbox.drain r.ext.pending);
      ignore (Mailbox.drain r.ext.catchups);
      (* Only a restarted replica (now > 0) needs to catch up: ask the
         current leader for a snapshot until one arrives. *)
      if Engine.now ctx.Cluster.ctx_engine > 0.0 then
        ctx.Cluster.spawn_sub "smr.catchup" (fun () ->
            while
              (not r.stopped) && (not r.ext.caught_up)
              && Engine.now ctx.Cluster.ctx_engine < cfg.serve_until
            do
              let leader = Log_kernel.leader ctx cfg in
              if leader <> r.pid then ask_snapshot leader;
              Engine.sleep 25.0
            done);
      (* Anti-entropy (off by default): a follower whose apply stream
         stalls — e.g. Commit broadcasts lost to a partition — asks the
         leader for a snapshot, reusing the restart catch-up path.  The
         guard keeps every steady-state run free of extra traffic: the
         fiber only speaks up when no entry has applied for a whole
         interval and it is not itself the leader. *)
      if cfg.anti_entropy_every > 0.0 then
        ctx.Cluster.spawn_sub "smr.anti-entropy" (fun () ->
            let last = ref (-1) in
            while
              (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < cfg.serve_until
            do
              Engine.sleep cfg.anti_entropy_every;
              let leader = Log_kernel.leader ctx cfg in
              if (not r.stopped) && leader <> r.pid && r.applied_up_to = !last
              then ask_snapshot leader;
              last := r.applied_up_to
            done);
      ctx.Cluster.spawn_sub "smr.pump" (fun () ->
          Log_kernel.pump ctx r ~other:(other r));
      ctx.Cluster.spawn_sub "smr.applier" (fun () -> applier r);
      Log_kernel.lead ctx r ~recover:(recover ctx r) ~deliver:(deliver ctx r)
        ~serve:(serve ctx r));
  r

let submit = Log_kernel.submit

(* Linearizable read from a client: ask the leader; it lease-checks its
   reign and answers with its applied index. *)
let linearizable_read ctx ~cfg ~seq ~timeout =
  Log_kernel.linearizable_read ctx ~seq ~timeout ~dst:(fun () ->
      Log_kernel.leader ctx cfg)
