(* Velos-style one-sided Paxos (cf. "Velos: One-sided Paxos for RDMA
   applications", arXiv:2106.08676) — the opposite corner of the design
   space from the Protected Memory Paxos log (Smr_log):

   - Replicas are PASSIVE: followers never receive a Commit message.
     The leader replicates by one-sided writes into a region on every
     memory; followers learn committed entries by polling a QUORUM of
     memories and trusting the commit watermark (below).

   - An append is ONE batched write per memory carrying the new entry
     AND the watermark covering the previous one, so in steady state
     commitment costs the same two delays as PMP but followers need no
     network traffic at all to stay current.

   - Failover swaps the exclusive write permission (the paper's
     permission discipline, reused as Velos's "ownership change") and
     reconstructs the leader state entirely from replica memory.

   - Leader LEASES on virtual time: a leader holding a quorum-acked
     lease serves linearizable reads from local state with ZERO memory
     operations (asserted via the [mem.ops.issued] perf counter).  A
     new leader waits out the maximum lease expiry it read before
     serving anything, so a deposed-but-leased leader can never answer
     a read that misses a newer committed write.

   Commit watermark safety.  The leader only publishes [commit = w]
   after entry w was all-acked by a write quorum, and a fence is issued
   to every memory between consecutive batches.  Hence per memory: if
   [commit = w] (written by leader L) is APPLIED there, every one of
   L's entry writes 1..w is applied there too — under Strict trivially
   (QP FIFO), under Completion_lag/Reorder_qp because the fence is an
   ordering barrier in the QP stream whether or not anyone awaits it.
   A follower therefore adopts the reply with the HIGHEST watermark and
   applies that same reply's entries up to it; committed slots carry
   the same command in every term (recovery adopts the committed
   prefix), so the stored values are safe regardless of which leader's
   rewrite is visible.

   Lease safety on virtual time.  There is one global virtual clock, so
   "holder's expiry" and "successor's wait" are the same timeline — the
   skew term of the real-world argument vanishes.  A lease counts only
   once its write is all-acked by a quorum; its stored expiry equals
   the holder's local [leased_until]; a successor's recovery starts by
   swapping permissions, which drains in-flight writes at each memory
   before its reads, so the successor's quorum read intersects every
   lease quorum and the max expiry it sees bounds every valid lease.

   The log layout, client protocol, recovery adoption and rewrite,
   checkpoints and repairs are the shared Log_kernel's. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_mm
open Rdma_obs
open Rdma_consensus

let name = "velos"

let descr =
  "One-sided Paxos on passive memory replicas: batched entry+watermark \
   writes, follower polling, leader leases (a leased read = 0 memory ops)"

let region = "velos"

(* The commit watermark: highest index the current leader has seen
   all-acked by a write quorum.  Monotone per reign; across reigns a
   new leader republishes [max] of what it read (see recovery). *)
let commit_reg = "commit"

(* The lease register: [term] and the virtual-time expiry the holder
   promised itself.  Doubles as the permission-protected reign proof
   for quorum reads and state transfers (a nak = deposed). *)
let lease_reg = "lease"

(* Registers ahead of the log, in read and repair order. *)
let header = [ Protected_region.ckpt_reg; commit_reg; lease_reg ]

let legal_change = Log_kernel.legal_change ~region

let setup_regions cluster cfg = Log_kernel.setup_regions ~region ~header cluster cfg

(* [anti_entropy_every] is the shared "how eagerly do followers chase
   missed commits" knob: for velos it IS the poll interval (0. = the
   default rate — polling cannot be turned off, it is the only way
   followers learn). *)
let poll_every (cfg : Consensus_engine.config) =
  if cfg.anti_entropy_every > 0.0 then cfg.anti_entropy_every else 5.0

(* Virtual times are floats; "%h" is exact and round-trips. *)
let encode_lease ~term ~until =
  Codec.join2 (Codec.int_field term) (Printf.sprintf "%h" until)

let decode_lease s =
  match Codec.split2 s with
  | None -> None
  | Some (tf, uf) -> (
      match (Codec.int_of_field tf, float_of_string_opt uf) with
      | Some term, Some until -> Some (term, until)
      | _ -> None)

type ext = { mutable zombie : bool (* lease_violation: stale server spawned *) }

type replica = ext Log_kernel.replica

include Log_kernel.Accessors

(* {2 The passive learner}

   Every replica polls a quorum of memories for the checkpoint, the
   commit watermark and a window of entries above its applied index.
   It adopts the reply carrying the HIGHEST watermark: by the fence
   discipline (header comment) that same memory has applied every
   committed entry the watermark covers, so no cross-reply merge is
   needed — one-sided learning from a single coherent snapshot. *)
let poll_window = 8

let poll_once (ctx : _ Cluster.ctx) (r : replica) =
  let cfg = r.cfg in
  let quorum = Protected_region.quorum ctx cfg.f_m in
  let base = r.applied_up_to in
  let width = min poll_window (cfg.max_entries - base) in
  let regs =
    Protected_region.ckpt_reg :: commit_reg
    :: List.init width (fun i -> Log_kernel.entry_reg (base + i + 1))
  in
  let client = ctx.Cluster.client in
  let reads =
    Array.init ctx.Cluster.cluster_m (fun i ->
        Memory.read_many_async (Memclient.mem client i) ~from:r.pid ~region ~regs)
  in
  let completed = Par.await_k_timeout reads quorum (2.0 *. poll_every cfg) in
  let ok =
    List.filter_map
      (fun (i, v) ->
        match v with
        | Memory.Read_many values -> Some (i, values)
        | Memory.Read_many_nak -> None)
      completed
  in
  (* A nak'd chain (restarted memory) does not count towards the read
     quorum: the watermark argument needs a true quorum so it is
     guaranteed to intersect every write quorum. *)
  if List.length ok >= quorum then begin
    let watermark values =
      match Array.length values with
      | 0 | 1 -> 0
      | _ -> (
          match Option.bind values.(1) Codec.int_of_field with
          | Some w -> w
          | None -> 0)
    in
    (* Deterministic best pick: highest watermark, lowest memory id. *)
    let best =
      List.fold_left
        (fun acc (i, values) ->
          let w = watermark values in
          match acc with
          | Some (_, bw, bi) when bw > w || (bw = w && bi < i) -> acc
          | _ -> Some (values, w, i))
        None ok
    in
    match best with
    | None -> ()
    | Some (values, w, _) ->
        (* Checkpoint first: it may cover truncated entries below the
           window. *)
        (match Option.bind values.(0) Protected_region.decode_ckpt with
        | Some entries when List.length entries > r.applied_up_to ->
            Log_kernel.install r entries
        | _ -> ());
        (* Then the window from the same reply, up to its watermark. *)
        for j = 2 to Array.length values - 1 do
          let index = base + j - 1 in
          if index <= w && index = r.applied_up_to + 1 then
            match Option.bind values.(j) Log_kernel.decode_entry with
            | Some (_, stored) -> Log_kernel.apply_stored r ~index stored
            | None -> ()
        done
  end

let poll_loop (ctx : _ Cluster.ctx) (r : replica) =
  while
    (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
  do
    Engine.sleep (poll_every r.cfg);
    (* The leader is the writer: it learns at append time and must not
       race its own in-flight rewrites with reads. *)
    if
      (not r.stopped)
      && Omega.leader ctx.Cluster.ctx_omega <> r.pid
      && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
    then poll_once ctx r
  done

(* {2 Leader side} *)

(* State transfer to a restarted memory: checkpoint, watermark, lease
   and the log, masked to what is still stale there. *)
let spawn_repair ctx (r : replica) ~term ~until ~committed ~up_to ~entries ~tail
    mid =
  Log_kernel.spawn_repair ctx r ~term ~up_to ~entries ~tail
    ~header:
      [
        (commit_reg, Some (Codec.int_field committed));
        (lease_reg, Some (encode_lease ~term ~until));
      ]
    mid

(* Leader recovery: adopt and rewrite (Log_kernel) — provided the
   adopted dense prefix covers the max watermark read — then republish
   the watermark, and wait out the maximum lease expiry seen before
   serving ANYTHING (reads or appends).  Returns the adopted prefix
   (stored strings) and checkpoint base, or None if deposed. *)
let recover (ctx : _ Cluster.ctx) (r : replica) ~term =
  let client = ctx.Cluster.client in
  let quorum = Protected_region.quorum ctx r.cfg.f_m in
  match Log_kernel.takeover ctx r ~header with
  | None -> None
  | Some a ->
      (* Adopt max watermark, max lease expiry. *)
      let floor = ref 0 in
      let lease_until = ref 0.0 in
      List.iter
        (fun (_, values) ->
          if Array.length values >= 3 then begin
            (match Option.bind values.(1) Codec.int_of_field with
            | Some w when w > !floor -> floor := w
            | _ -> ());
            match Option.bind values.(2) decode_lease with
            | Some (_, until) when until > !lease_until -> lease_until := until
            | _ -> ()
          end)
        a.views;
      let prefix_len = a.base + List.length a.tail in
      (* The adopted dense prefix must cover the adopted watermark: the
         read quorum intersects the write quorum of every committed
         entry, so this only fails if the region was corrupted. *)
      if prefix_len < !floor || not (Log_kernel.rewrite ctx r ~term a) then None
      else begin
        (* Everything rewritten all-ack under our term is decided:
           republish the watermark over the whole dense prefix.  The
           fence orders the watermark after the rewrites in every QP
           stream (a no-op under Strict). *)
        ignore (Memclient.fence_all_async client : Memory.op_result Ivar.t array);
        let writes =
          Memclient.write_all_async client ~region ~reg:commit_reg
            (Codec.int_field prefix_len)
        in
        if
          (not (Protected_region.all_acked writes quorum))
          [@simlint.allow
            "F1 watermark republish commit point: an acked write may lag \
             its application, but every reader that could contradict it \
             (follower poll, successor recovery) reads either behind the \
             fenced watermark or after a permission swap that drains this \
             QP"]
        then None
        else begin
          (* Wait out every lease that could still be valid BEFORE
             serving reads or acking appends: on the shared virtual
             clock this closes the stale-read window exactly. *)
          let now = Engine.now ctx.Cluster.ctx_engine in
          if !lease_until > now then begin
            Stats.bump ctx.Cluster.ctx_stats "velos.lease.waits";
            Engine.sleep (!lease_until -. now)
          end;
          List.iter
            (fun mid ->
              spawn_repair ctx r ~term ~until:!lease_until ~committed:prefix_len
                ~up_to:a.base ~entries:a.base_entries ~tail:a.tail mid)
            a.failed;
          Some (Log_kernel.prefix a, a.base)
        end
      end

let reply_read (ctx : _ Cluster.ctx) (r : replica) (client, seq) =
  Network.send ctx.Cluster.ep ~dst:client
    (Log_kernel.encode_msg (Read_reply { client; seq; up_to = r.applied_up_to }))

let serve (ctx : _ Cluster.ctx) (r : replica) (reign : Log_kernel.reign) =
  let client = ctx.Cluster.client in
  let m = ctx.Cluster.cluster_m in
  let term = reign.term in
  let quorum = Protected_region.quorum ctx r.cfg.f_m in
  (* Watermark already published by recovery (or 0 at t=0). *)
  let published = ref (reign.next - 1) in
  let leased_until = ref 0.0 in
  (* Quorum-acked lease refresh; with lease_duration = 0. it
     degenerates into the reign proof every read pays. *)
  let refresh_lease () =
    let until = Engine.now ctx.Cluster.ctx_engine +. r.cfg.lease_duration in
    let writes =
      Memclient.write_all_async client ~region ~reg:lease_reg
        (encode_lease ~term ~until)
    in
    if Protected_region.all_acked writes quorum then begin
      leased_until := until;
      true
    end
    else begin
      reign.deposed <- true;
      false
    end
  in
  (* Establish the lease before the first read can arrive, so a leased
     reign never pays a per-read round at all. *)
  if r.cfg.lease_duration > 0.0 then ignore (refresh_lease ());
  let publish_watermark w =
    ignore (Memclient.fence_all_async client : Memory.op_result Ivar.t array);
    let writes =
      Memclient.write_all_async client ~region ~reg:commit_reg (Codec.int_field w)
    in
    if Protected_region.all_acked writes quorum then published := w
    else reign.deposed <- true
  in
  let maybe_checkpoint () =
    if Log_kernel.checkpoint_due r reign then begin
      let up_to = reign.next - 1 in
      if !published < up_to then publish_watermark up_to;
      if not reign.deposed then Log_kernel.checkpoint ctx r reign
    end
  in
  let serve_reads () =
    match Mailbox.drain r.reads with
    | [] -> ()
    | readers ->
        if r.cfg.lease_violation then begin
          (* TEST FIXTURE: skip every validity check. *)
          Stats.bump ctx.Cluster.ctx_stats "velos.reads.stale";
          List.iter (reply_read ctx r) readers
        end
        else if
          r.cfg.lease_duration > 0.0
          && Engine.now ctx.Cluster.ctx_engine < !leased_until
        then
          (* The headline path: a leased read is served from local state
             with ZERO memory operations.  The explicit 0-bump pins the
             counter row in the deterministic perf plane so the baseline
             gate would catch any op leaking into this scope. *)
          Prof.scope "velos.read.leased" (fun () ->
              Prof.bump "mem.ops.issued" 0;
              Prof.bump "smr.reads.leased" (List.length readers);
              Stats.bump ctx.Cluster.ctx_stats "velos.reads.leased";
              List.iter (reply_read ctx r) readers)
        else
          Prof.scope "velos.read.quorum" (fun () ->
              Stats.bump ctx.Cluster.ctx_stats "velos.reads.quorum";
              if refresh_lease () then List.iter (reply_read ctx r) readers)
  in
  let append (client_pid, seq, cmd) =
    match Hashtbl.find_opt reign.dedup (client_pid, seq) with
    | Some index -> Log_kernel.ack ctx ~client:client_pid ~seq ~index
    | None ->
        if reign.next > r.cfg.max_entries then reign.deposed <- true
        else begin
          let index = reign.next in
          let meta = Log_kernel.encode_cmd_meta ~client:client_pid ~seq ~cmd in
          (* ONE batched write per memory: the new entry plus the
             watermark covering the previous one (free commit
             notification for the pollers).  The fence keeps the batch
             behind its predecessor in every QP stream, so a reordered
             watermark can never overtake the entry it covers. *)
          ignore (Memclient.fence_all_async client : Memory.op_result Ivar.t array);
          let values =
            [
              ( Log_kernel.entry_reg index,
                Some (Log_kernel.encode_entry ~term ~cmd:meta) );
              (commit_reg, Some (Codec.int_field (index - 1)));
            ]
          in
          let writes =
            Array.init m (fun i ->
                Memory.write_many_async (Memclient.mem client i) ~from:r.pid ~region
                  ~values)
          in
          if
            (Protected_region.all_acked writes quorum)
            [@simlint.allow
              "F1 append commit point: the quorum all-ack decides the \
               entry; a rival that could read it stale first swaps \
               permissions (draining this QP), and follower polls only \
               trust entries behind the fenced watermark"]
          then begin
            reign.next <- index + 1;
            published := index - 1;
            Hashtbl.replace reign.dedup (client_pid, seq) index;
            Hashtbl.replace reign.stored index meta;
            Log_kernel.apply_entry r ~index ~cmd;
            Stats.bump ctx.Cluster.ctx_stats "velos.appends";
            Log_kernel.ack ctx ~client:client_pid ~seq ~index;
            maybe_checkpoint ()
          end
          else reign.deposed <- true
        end
  in
  while Log_kernel.serving ctx r reign do
    Log_kernel.serve_rejoins r reign ~prove:refresh_lease
      ~repair:(fun ~up_to ~entries ~tail mid ->
        spawn_repair ctx r ~term ~until:!leased_until ~committed:(reign.next - 1)
          ~up_to ~entries ~tail mid);
    serve_reads ();
    match Mailbox.recv_timeout r.requests 4.0 with
    | Some req -> append req
    | None ->
        (* Idle: flush the watermark so pollers converge on the final
           entry without waiting for a next append. *)
        if (not reign.deposed) && !published < reign.next - 1 then
          publish_watermark (reign.next - 1)
  done;
  (* TEST FIXTURE: a lease-violating leader ignores its own deposition
     and keeps serving local reads — exactly the stale-lease bug the
     chaos oracle must flag as an Agreement violation via the clients'
     watermark check. *)
  if r.cfg.lease_violation && (not r.stopped) && not r.ext.zombie then begin
    r.ext.zombie <- true;
    ctx.Cluster.spawn_sub "velos.zombie" (fun () ->
        while
          (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
        do
          (match Mailbox.drain r.reads with
          | [] -> ()
          | readers ->
              Stats.bump ctx.Cluster.ctx_stats "velos.reads.stale";
              List.iter (reply_read ctx r) readers);
          Engine.sleep 2.0
        done)
  end

let spawn_replica cluster ?(cfg = Consensus_engine.default_config) ~pid () =
  let r = Log_kernel.create ~tag:"velos" ~region ~pid cfg { zombie = false } in
  Cluster.spawn cluster ~pid (fun ctx ->
      (* A (re)started replica begins from nothing — there is no
         snapshot protocol to rejoin through: the poll loop rebuilds the
         applied prefix from replica memory, one-sidedly. *)
      Log_kernel.restart ctx r;
      r.ext.zombie <- false;
      ctx.Cluster.spawn_sub "velos.pump" (fun () ->
          Log_kernel.pump ctx r ~other:ignore);
      ctx.Cluster.spawn_sub "velos.poll" (fun () -> poll_loop ctx r);
      Log_kernel.lead ctx r ~recover:(recover ctx r)
        ~deliver:(Log_kernel.apply_entry r) ~serve:(serve ctx r));
  r

let submit = Log_kernel.submit

(* TEST FIXTURE: with the stale-lease bug armed, clients keep asking the
   initial leader, so the zombie's stale answers actually reach them. *)
let read_destination (ctx : _ Cluster.ctx) (cfg : Consensus_engine.config) =
  if cfg.lease_violation then 0 else Log_kernel.leader ctx cfg

let linearizable_read ctx ~cfg ~seq ~timeout =
  Log_kernel.linearizable_read ctx ~seq ~timeout ~dst:(fun () ->
      read_destination ctx cfg)
