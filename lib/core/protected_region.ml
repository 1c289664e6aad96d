(* The Protected Memory Paxos permission discipline (Algorithm 7) as
   region operations, shared by every protocol that keeps its state in
   one exclusively-writable region per memory: the SMR engines'
   recovery (lib/smr: Smr_log, Velos) and the repeated-instance takeover
   of Protected_paxos_multi.  Take the exclusive write permission, read
   a quorum, adopt, rewrite; repair restarted memories by state
   transfer; checkpoint the decided prefix. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_obs

(* The checkpoint register: a quorum-acked snapshot of the committed
   (decided) prefix — its length plus the stored values 1..length.  It
   is only ever written AFTER the values it covers committed, so a
   checkpoint read from ANY single replica covers only committed values
   and adopting the longest one seen is safe; the log below it may be
   truncated. *)
let ckpt_reg = "ckpt"

let encode_ckpt entries =
  Codec.join (Codec.int_field (List.length entries) :: entries)

let decode_ckpt s =
  match Codec.split s with
  | up :: entries -> (
      match Codec.int_of_field up with
      | Some up_to when up_to = List.length entries -> Some entries
      | _ -> None)
  | [] -> None

(* All-ack of a quorum of completions — the commit predicate for
   one-sided writes.  Branching on completion (rather than application)
   is safe for a structural reason: a successor's takeover begins with a
   permission swap on every memory, which drains acked-but-unapplied
   writes before its reads.  The F1 suppressions live at the call sites
   that branch on this result. *)
let all_acked writes quorum =
  let completed = Par.await_k writes quorum in
  List.for_all (fun (_, w) -> w = Memory.Ack) completed

(* [m - f_m]; [f_m] defaults to the largest minority of memories. *)
let quorum (ctx : _ Cluster.ctx) f_m =
  let m = ctx.Cluster.cluster_m in
  m - Option.value f_m ~default:((m - 1) / 2)

(* The longest checkpoint among takeover [views] whose register 0 is
   the checkpoint; [] if none. *)
let max_ckpt views =
  List.fold_left
    (fun best (_, values) ->
      if Array.length values = 0 then best
      else
        match Option.bind values.(0) decode_ckpt with
        | Some entries when List.length entries > List.length best -> entries
        | _ -> best)
    [] views

(* Checkpoint the committed prefix [entries]: write the snapshot
   register (quorum-acked — only then is the checkpoint allowed to
   exist), then truncate the [covered] registers with one batched
   ⊥-write per memory.  [false] = a nak: the caller is deposed. *)
let checkpoint (ctx : _ Cluster.ctx) ~name ~region ~quorum ~covered entries =
  let client = ctx.Cluster.client in
  let writes =
    Memclient.write_all_async client ~region ~reg:ckpt_reg (encode_ckpt entries)
  in
  if
    (all_acked writes quorum)
    [@simlint.allow
      "F1 checkpoint commit point: the truncation that relies on it is \
       issued after it on the same QPs, which apply in issue order, and a \
       successor's takeover reads only after a permission swap that \
       drains both"]
  then begin
    let nones = List.map (fun reg -> (reg, None)) covered in
    let truncs =
      Array.init ctx.Cluster.cluster_m (fun i ->
          Memory.write_many_async (Memclient.mem client i) ~from:ctx.Cluster.pid
            ~region ~values:nones)
    in
    ignore (Par.await_k truncs quorum);
    Stats.bump ctx.Cluster.ctx_stats (name ^ "s");
    true
  end
  else false

let exclusive (ctx : _ Cluster.ctx) =
  Permission.exclusive_writer ~writer:ctx.Cluster.pid ~n:ctx.Cluster.cluster_n

(* Takeover read: per memory, one chain that grabs the exclusive write
   permission and then reads [regs] in one batched read.

   A read nak does not doom the takeover: a restarted memory answers "I
   don't know" for its stale registers (rather than serving lost state
   as ⊥), so we wait for a quorum of SUCCESSFUL chains and leave the
   nak'd memories to a state transfer afterwards.  Each gather round
   waits for [quorum + failures-so-far] completions; crashed memories
   never complete, so give up (and retry in a later reign) once that
   exceeds m. *)
let takeover_read (ctx : _ Cluster.ctx) ~fiber ~region ~regs ~quorum =
  let m = ctx.Cluster.cluster_m in
  let client = ctx.Cluster.client in
  let chains = Array.init m (fun _ -> Ivar.create ()) in
  for i = 0 to m - 1 do
    ctx.Cluster.spawn_sub
      (Printf.sprintf "%s%d" fiber i)
      (fun () ->
        let (_ : Memory.op_result) =
          Memclient.change_permission client ~mem:i ~region ~perm:(exclusive ctx)
        in
        match
          Ivar.await
            (Memory.read_many_async (Memclient.mem client i) ~from:ctx.Cluster.pid
               ~region ~regs)
        with
        | Memory.Read_many values -> Ivar.fill chains.(i) (Some values)
        | Memory.Read_many_nak -> Ivar.fill chains.(i) None)
  done;
  let rec gather k =
    if k > m then None
    else begin
      let completed = Par.await_k chains k in
      let failed =
        List.filter_map (fun (i, v) -> if v = None then Some i else None) completed
      in
      let ok =
        List.filter_map (fun (i, v) -> Option.map (fun vs -> (i, vs)) v) completed
      in
      if List.length ok >= quorum then Some (ok, failed)
      else gather (quorum + List.length failed)
    end
  in
  gather quorum

(* State transfer to one (typically restarted) memory: take the write
   permission there, then install [values ()] — built only after the
   grab, from whatever the caller knows by then — in ONE batched write,
   which stamps every register fresh in the memory's current epoch.

   Only registers still STALE since the restart are written: a fresh
   register was written after the rejoin — possibly by a newer leader —
   and clobbering it with this caller's (possibly outdated) view could
   erase a committed value.  The staleness mask models reading the
   memory's per-epoch valid bitmap; the batched write stays
   permission-guarded, so if a rival takes the permission between the
   mask read and the write, the write naks and the rival repairs
   instead.  Spawned as a sub-fiber so a memory that re-crashes
   mid-transfer cannot wedge the caller. *)
let spawn_repair (ctx : _ Cluster.ctx) ~name ~region ~mid values =
  ctx.Cluster.spawn_sub
    (Printf.sprintf "%s%d" name mid)
    (fun () ->
      let client = ctx.Cluster.client in
      let (_ : Memory.op_result) =
        Memclient.change_permission client ~mem:mid ~region ~perm:(exclusive ctx)
      in
      let values = values () in
      let stale = Memory.stale_registers (Memclient.mem client mid) ~region in
      let values = List.filter (fun (reg, _) -> List.mem reg stale) values in
      if values <> [] then
        match Memclient.write_many client ~mem:mid ~region ~values with
        | Memory.Ack ->
            Stats.bump ctx.Cluster.ctx_stats (name ^ "s");
            Obs.event ctx.Cluster.ctx_obs
              ~actor:(Printf.sprintf "p%d" ctx.Cluster.pid)
              (Event.Custom { name; detail = Printf.sprintf "mu%d" mid })
        | Memory.Nak -> ())
[@@simlint.allow
  "F1 repair bookkeeping: the Ack branch only counts the repair in \
   telemetry; the transferred state is validated by the next leader's \
   takeover reads, which run under a fresh permission grab that drains \
   this write (EXPERIMENTS.md W2)"]
