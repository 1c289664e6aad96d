(* Repeated Protected Memory Paxos — the paper's multi-instance remark:

     "the code shows one instance of consensus, with p1 as initial
      leader.  With many consensus instances, the leader terminates one
      instance and becomes the default leader in the next."

   All instances share one region per memory (registers slot[i, q] for
   instance i and process q), so one exclusive write permission covers
   the whole sequence.  Leadership is organized in *reigns*:

   - Taking over, a leader grabs the permission on every memory and
     reads the entire region from a majority in a single batched RDMA
     read per memory.  It adopts, per instance, the value with the
     highest accepted proposal number, and picks its reign's proposal
     number strictly above everything it saw (Algorithm 7 line 10).
   - While the reign lasts (every write acked), each instance costs one
     replicated write — two delays — whether it carries an adopted value
     or the leader's own input: the permission has been held
     continuously since the takeover read, so no rival value can exist
     in any instance the read found empty.
   - Any nak ends the reign; the process must take over again before
     deciding anything else.

   Safety is the single-shot argument applied per instance: a committed
   (P, v) lies in a majority of memories; a later reign's takeover read
   (behind the same permission fence) intersects it, adopts v, and
   chooses a higher proposal number, so maxima never go backwards. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_net
open Rdma_obs

let region = "pmp-multi"

let slot_reg ~instance q = Printf.sprintf "slot.%d.%d" instance q

(* The checkpoint register (Protected_region): the decided values of
   the first instances, written quorum-acked by a leader AFTER those
   instances decided, then the covered slots are truncated (batched
   ⊥-writes).  Adopting the longest checkpoint seen lets a takeover (or
   a restarted learner) install decisions without replaying the slots. *)
let ckpt_reg = Protected_region.ckpt_reg

(* Slot contents reuse the single-shot codec. *)
let encode_slot = Protected_paxos.encode_slot

let decode_slot = Protected_paxos.decode_slot

let legal_change ~pid ~region:r ~current:_ ~requested =
  r = region
  &&
  match Permission.sole_writer requested with Some w -> w = pid | None -> false

type config = {
  slots : int;
  f_m : int option;
  max_takeovers : int;
  checkpoint_every : int;
      (* checkpoint (and truncate the slots below) every this many decided
         instances; 0 disables checkpointing *)
  serve_until : float;
      (* keep a custodian fiber alive until this virtual time to repair
         memories that rejoin after the decisions are done; 0 disables *)
}

let default_config =
  { slots = 4; f_m = None; max_takeovers = 32; checkpoint_every = 0;
    serve_until = 0.0 }

let all_registers cfg n =
  List.concat_map
    (fun i -> List.init n (fun q -> slot_reg ~instance:i q))
    (List.init cfg.slots Fun.id)

let setup_regions cluster cfg =
  let n = Cluster.n cluster in
  Cluster.add_region_everywhere cluster ~name:region
    ~perm:(Permission.exclusive_writer ~writer:0 ~n)
    ~registers:(ckpt_reg :: all_registers cfg n)

let encode_decide ~instance ~value = Codec.join3 "decide" (Codec.int_field instance) value

let decode_decide s =
  match Codec.split3 s with
  | Some ("decide", inst, value) ->
      Option.map (fun instance -> (instance, value)) (Codec.int_of_field inst)
  | _ -> None

type handle = { decisions : Report.decision Ivar.t array (* per instance *) }

let decisions h = h.decisions

let listener (ctx : _ Cluster.ctx) cfg (decisions : Report.decision Ivar.t array) =
  let remaining = ref cfg.slots in
  while !remaining > 0 do
    let _, payload = Network.recv ctx.Cluster.ep in
    match decode_decide payload with
    | Some (instance, value) when instance >= 0 && instance < cfg.slots ->
        if
          Ivar.try_fill decisions.(instance)
            { Report.value; at = Engine.now ctx.Cluster.ctx_engine }
        then decr remaining
    | _ -> ()
  done

(* Block until this process leads or the instance is decided. *)
let await_leadership_or_decision (ctx : _ Cluster.ctx) decision =
  let omega = ctx.Cluster.ctx_omega in
  let me = ctx.Cluster.pid in
  if Ivar.is_full decision || Omega.leader omega = me then ()
  else
    Engine.suspend (fun _eng _fiber resume ->
        let settled = ref false in
        let fire () =
          if not !settled then begin
            settled := true;
            resume ()
          end
        in
        Omega.on_change omega ~want:(fun pid -> pid = me) fire;
        Ivar.on_fill decision (fun _ -> fire ()))

(* The per-process reign state. *)
type reign = {
  mutable active : bool; (* permission believed held since the last read *)
  mutable prop_nr : int;
  mutable adopted : (int * string) option array; (* per instance *)
}

(* State transfer to one (typically restarted) memory
   (Protected_region.spawn_repair): install everything this process
   knows — the checkpoint of decided instances, plus its own slot above
   it carrying the decided or takeover-adopted value.  Writing a decided
   value under any proposal number is safe: no other value can ever be
   decided in that instance, and takeover reads adopt the max-proposal
   value, which for a decided instance is always the decided one.
   Carrying the ADOPTED value matters for the same reason: the adopted
   value is the only possibly-decided one our takeover read observed,
   and a later takeover whose read quorum includes only the repaired
   memory must still see it. *)
let spawn_repair (ctx : _ Cluster.ctx) cfg reign handle mid =
  Protected_region.spawn_repair ctx ~name:"pmpm.repair" ~region ~mid (fun () ->
      let n = ctx.Cluster.cluster_n in
      let me = ctx.Cluster.pid in
      (* the consecutively decided prefix, for the checkpoint *)
      let decided = ref [] in
      (try
         for i = 0 to cfg.slots - 1 do
           match Ivar.peek handle.decisions.(i) with
           | Some d -> decided := d.Report.value :: !decided
           | None -> raise Exit
         done
       with Exit -> ());
      let values = List.rev !decided in
      let up_to = List.length values in
      let slots =
        List.concat_map
          (fun i ->
            List.init n (fun q ->
                let reg = slot_reg ~instance:i q in
                if i < up_to || q <> me then (reg, None)
                else
                  let known =
                    match Ivar.peek handle.decisions.(i) with
                    | Some d -> Some d.Report.value
                    | None -> Option.map snd reign.adopted.(i)
                  in
                  ( reg,
                    Option.map
                      (fun value ->
                        encode_slot ~min_prop:reign.prop_nr
                          ~acc_prop:reign.prop_nr ~value)
                      known )))
          (List.init cfg.slots Fun.id)
      in
      (ckpt_reg, if up_to = 0 then None else Some (Protected_region.encode_ckpt values))
      :: slots)

(* Take over: grab the permission on every memory and read the whole
   region from a quorum of successful chains (Protected_region).  On
   success, installs the reign (adopted values + fresh proposal number
   above everything seen) and repairs the memories whose read nak'd.
   The highest checkpoint seen installs its decided instances directly
   (learner catch-up without slot replay). *)
let takeover (ctx : _ Cluster.ctx) cfg reign handle =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let quorum = Protected_region.quorum ctx cfg.f_m in
  let regs = ckpt_reg :: all_registers cfg n in
  match
    Protected_region.takeover_read ctx ~fiber:"pmpm.takeover" ~region ~regs ~quorum
  with
  | None -> false
  | Some (ok, failed) ->
      (* Adopt the highest checkpoint seen: its instances are decided, so
         install them locally and re-announce for the other learners. *)
      List.iteri
        (fun instance value ->
          if instance < cfg.slots then begin
            ignore
              (Ivar.try_fill handle.decisions.(instance)
                 { Report.value; at = Engine.now ctx.Cluster.ctx_engine });
            Network.broadcast ctx.Cluster.ep (encode_decide ~instance ~value)
          end)
        (Protected_region.max_ckpt ok);
      let adopted = Array.make cfg.slots None in
      let max_seen = ref 0 in
      List.iter
        (fun (_, values) ->
          (* registers are laid out ckpt first, then instance-major, n per
             instance *)
          Array.iteri
            (fun idx v ->
              if idx > 0 then
                match Option.bind v decode_slot with
                | None -> ()
                | Some (mp, ap, value) ->
                    let instance = (idx - 1) / n in
                    if mp > !max_seen then max_seen := mp;
                    if ap > !max_seen then max_seen := ap;
                    if ap > 0 then
                      match adopted.(instance) with
                      | Some (b, _) when b >= ap -> ()
                      | _ -> adopted.(instance) <- Some (ap, value))
            values)
        ok;
      (* the smallest proposal number of ours above everything seen *)
      let k = ref 1 in
      while (!k * ctx.Cluster.cluster_n) + me + 1 <= !max_seen do
        incr k
      done;
      reign.prop_nr <- (!k * ctx.Cluster.cluster_n) + me + 1;
      reign.adopted <- adopted;
      reign.active <- true;
      (* State-transfer repair of the memories whose chains nak'd (they
         restarted and lost their slots). *)
      List.iter (fun mid -> spawn_repair ctx cfg reign handle mid) failed;
      true

(* Decide one instance under an active reign: a single replicated write.
   Returns false (and ends the reign) on any nak. *)
let fast_decide (ctx : _ Cluster.ctx) cfg reign ~instance ~input decision =
  let quorum = Protected_region.quorum ctx cfg.f_m in
  let value =
    match reign.adopted.(instance) with Some (_, v) -> v | None -> input
  in
  let writes =
    Memclient.write_all_async ctx.Cluster.client ~region
      ~reg:(slot_reg ~instance ctx.Cluster.pid)
      (encode_slot ~min_prop:reign.prop_nr ~acc_prop:reign.prop_nr ~value)
  in
  let completed = Par.await_k writes quorum in
  if List.for_all (fun (_, w) -> w = Memory.Ack) completed then begin
    ignore
      (Ivar.try_fill decision { Report.value; at = Engine.now ctx.Cluster.ctx_engine });
    Network.broadcast ctx.Cluster.ep (encode_decide ~instance ~value);
    true
  end
  else begin
    reign.active <- false;
    false
  end

(* One process's program: instances strictly in order; the reign persists
   across instances, so in steady state every decision is one write. *)
let program (ctx : _ Cluster.ctx) cfg ~input_for handle =
  ctx.Cluster.spawn_sub "pmpm.listener" (fun () -> listener ctx cfg handle.decisions);
  let reign =
    {
      (* p0 owns the initial permission over an all-⊥ region: an implicit
         first takeover with nothing adopted *)
      active = ctx.Cluster.pid = 0;
      prop_nr = 1;
      adopted = Array.make cfg.slots None;
    }
  in
  let n = ctx.Cluster.cluster_n in
  let quorum = Protected_region.quorum ctx cfg.f_m in
  (* Once [checkpoint_every] instances have decided past the last
     checkpoint (and we still hold the reign): write the checkpoint
     register quorum-acked, then truncate the covered slots with one
     batched ⊥-write per memory. *)
  let last_ckpt = ref 0 in
  let maybe_checkpoint instance =
    let decided = instance + 1 in
    if
      cfg.checkpoint_every > 0 && reign.active
      && decided >= !last_ckpt + cfg.checkpoint_every
    then begin
      let values =
        List.init decided (fun i ->
            match Ivar.peek handle.decisions.(i) with
            | Some d -> d.Report.value
            | None -> "" (* unreachable: instances decide strictly in order *))
      in
      let covered =
        List.concat_map
          (fun i -> List.init n (fun q -> slot_reg ~instance:i q))
          (List.init decided Fun.id)
      in
      if
        Protected_region.checkpoint ctx ~name:"pmpm.checkpoint" ~region ~quorum
          ~covered values
      then last_ckpt := decided
      else reign.active <- false
    end
  in
  (* Custodian: while [serve_until] lasts, the current Ω leader sweeps
     every memory for stale registers and answers with a state transfer,
     so a memory rejoining after the decisions are done still gets
     re-replicated.  The sweep polls [Memory.stale_registers] (one read
     of each memory's per-epoch valid bitmap per period) rather than
     subscribing to [Mem_restart]: an event subscription dies with the
     process, so a leader whose own machine restarted would re-subscribe
     *after* the co-located memory's restart event fired and never learn
     it has a memory to repair. *)
  if cfg.serve_until > 0.0 then
    ctx.Cluster.spawn_sub "pmpm.custodian" (fun () ->
        (* Repair only once every instance has decided locally: the
           checkpoint then covers every decided value, so the transfer
           is safe no matter how stale this process's reign state is.
           Anything earlier is dangerous — even a believed-active reign
           may be deposed, and its adopted array can miss a value a
           newer leader decided before the restart; stamping ⊥ fresh
           over that slot would erase the restart-nak defense.  Mid-run
           restarts are instead repaired by the next takeover, whose
           read observes the nak directly. *)
        let informed () = Array.for_all Ivar.is_full handle.decisions in
        while Engine.now ctx.Cluster.ctx_engine < cfg.serve_until do
          if Omega.leader ctx.Cluster.ctx_omega = ctx.Cluster.pid then begin
            (* Re-announce decided instances: a restarted process missed
               the original broadcasts while it was down, and its
               listener needs them to fill the decisions it skipped.
               Re-announcing a decided value is always safe. *)
            Array.iteri
              (fun instance d ->
                match Ivar.peek d with
                | Some (d : Report.decision) ->
                    Network.broadcast ctx.Cluster.ep
                      (encode_decide ~instance ~value:d.Report.value)
                | None -> ())
              handle.decisions;
            if informed () then
              for mid = 0 to ctx.Cluster.cluster_m - 1 do
                let mem = Memclient.mem ctx.Cluster.client mid in
                if
                  (not (Memory.is_crashed mem))
                  && Memory.stale_registers mem ~region <> []
                then spawn_repair ctx cfg reign handle mid
              done
          end;
          Engine.sleep 5.0
        done);
  let takeovers = ref 0 in
  for instance = 0 to cfg.slots - 1 do
    let decision = handle.decisions.(instance) in
    while not (Ivar.is_full decision) do
      await_leadership_or_decision ctx decision;
      if (not (Ivar.is_full decision))
         && Omega.leader ctx.Cluster.ctx_omega = ctx.Cluster.pid
      then begin
        if not reign.active then begin
          incr takeovers;
          if !takeovers > cfg.max_takeovers then ignore (Ivar.await decision)
          else if not (takeover ctx cfg reign handle) then Engine.sleep 2.0
        end;
        if reign.active && not (Ivar.is_full decision) then
          if
            fast_decide ctx cfg reign ~instance ~input:(input_for ~instance)
              decision
          then maybe_checkpoint instance
      end
    done
  done;
  (* Every instance decided: emit one Decide event carrying the whole
     sequence, so trace consumers (e.g. the chaos oracle) can check
     agreement on the full run. *)
  let value =
    Codec.join
      (List.init cfg.slots (fun i ->
           match Ivar.peek handle.decisions.(i) with
           | Some d -> d.Report.value
           | None -> ""))
  in
  Obs.event ctx.Cluster.ctx_obs ~actor:(Printf.sprintf "p%d" ctx.Cluster.pid)
    (Event.Decide { pid = ctx.Cluster.pid; value })

let spawn cluster ?(cfg = default_config) ~pid ~input_for () =
  let handle = { decisions = Array.init cfg.slots (fun _ -> Ivar.create ()) } in
  Cluster.spawn cluster ~pid (fun ctx -> program ctx cfg ~input_for handle);
  handle

(* Run [cfg.slots] sequential decisions; [input_for ~pid ~instance]
   supplies proposals.  Returns one report per instance. *)
let run ?(cfg = default_config) ?(seed = 1) ?(faults = []) ?(prepare = fun _ -> ())
    ~n ~m ~input_for () =
  let cluster : string Cluster.t = Cluster.create ~seed ~legal_change ~n ~m () in
  setup_regions cluster cfg;
  let handles =
    Array.init n (fun pid ->
        spawn cluster ~cfg ~pid ~input_for:(fun ~instance -> input_for ~pid ~instance) ())
  in
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.init cfg.slots (fun instance ->
      let decisions = Array.map (fun h -> Ivar.peek h.decisions.(instance)) handles in
      Report.of_cluster ~decisions cluster
        ~algorithm:(Printf.sprintf "protected-paxos-multi[%d]" instance))
