(* Protected Memory Paxos (Algorithm 7): crash-tolerant consensus with
   n ≥ fP + 1 processes and m ≥ 2fM + 1 memories, 2-deciding.

   Disk Paxos structure, minus two delays: at any time exactly one
   process holds write permission on each memory, so a leader whose
   phase-2 write succeeds knows no rival took over — the "uncontended
   instantaneous guarantee" of dynamic permissions — and can decide
   without Disk Paxos's final read.

   Region layout: Region[i] is all of memory i, with registers slot[i,p]
   for every p, initially writable exclusively by p1 (Algorithm 7
   lines 1–4).  A process becoming leader acquires the exclusive write
   permission (line 13); the memory-side legalChange policy only admits
   such exclusive-writer takeovers. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_net
open Rdma_obs

let region = "pmp"

let slot_reg q = Printf.sprintf "slot.%d" q

(* (minProp, accProp, value); an unwritten slot reads as ⊥ (None). *)
let encode_slot ~min_prop ~acc_prop ~value =
  Codec.join3 (Codec.int_field min_prop) (Codec.int_field acc_prop) value

let decode_slot s =
  match Codec.split3 s with
  | None -> None
  | Some (mp, ap, v) -> (
      match (Codec.int_of_field mp, Codec.int_of_field ap) with
      | Some min_prop, Some acc_prop -> Some (min_prop, acc_prop, v)
      | _ -> None)

(* legalChange: a process may only take the exclusive-writer shape for
   itself. *)
let legal_change ~pid ~region:r ~current:_ ~requested =
  r = region
  &&
  match Permission.sole_writer requested with Some w -> w = pid | None -> false

type config = {
  f_m : int option; (* tolerated memory crashes; default ⌊(m-1)/2⌋ *)
  max_rounds : int;
}

let default_config = { f_m = None; max_rounds = 64 }

let setup_regions cluster =
  let n = Cluster.n cluster in
  Cluster.add_region_everywhere cluster ~name:region
    ~perm:(Permission.exclusive_writer ~writer:0 ~n)
    ~registers:(List.init n slot_reg)

(* Per-memory phase-1 chain of a new leader: take the write permission,
   write our slot with the new proposal number, then read every slot
   (sequentially — the model allows one outstanding operation per
   memory). *)
type phase1_result =
  | P1_ok of (int * int * string) option array (* per-process slot contents *)
  | P1_write_failed

let phase1_chain (ctx : _ Cluster.ctx) ~mem ~prop_nr result =
  let n = ctx.Cluster.cluster_n in
  let client = ctx.Cluster.client in
  let (_ : Memory.op_result) =
    Memclient.change_permission client ~mem ~region
      ~perm:(Permission.exclusive_writer ~writer:ctx.Cluster.pid ~n)
  in
  let w =
    Memclient.write client ~mem ~region ~reg:(slot_reg ctx.Cluster.pid)
      (encode_slot ~min_prop:prop_nr ~acc_prop:0 ~value:"")
  in
  match w with
  | Memory.Nak -> Ivar.fill result P1_write_failed
  | Memory.Ack ->
      let info = Array.make n None in
      let ok = ref true in
      for q = 0 to n - 1 do
        if !ok then
          match Memclient.read client ~mem ~region ~reg:(slot_reg q) with
          | Memory.Read (Some s) -> info.(q) <- decode_slot s
          | Memory.Read None -> ()
          | Memory.Read_nak ->
              (* Our read permission should never lapse; treat as a failed
                 iteration of the pfor loop. *)
              ok := false
      done;
      Ivar.fill result (if !ok then P1_ok info else P1_write_failed)
[@@simlint.allow
  "F1 rides the control-plane drain: phase 1 grabs exclusive write \
   permission just above, and a rival must itself switch permissions \
   -- which drains this write -- before it can act on the region; the \
   Ack branch only gates the leader's own reads (EXPERIMENTS.md W2)"]

type handle = { decision : Report.decision Ivar.t }

let decision h = h.decision

(* The Decide broadcast that makes every correct process decide once some
   process has (the standard completion, Theorem D.4). *)
let announce (ctx : _ Cluster.ctx) value =
  Network.broadcast ctx.Cluster.ep (Codec.join2 "decide" value)

let listener (ctx : _ Cluster.ctx) decision =
  let continue = ref true in
  while !continue do
    let _, payload = Network.recv ctx.Cluster.ep in
    match Codec.split2 payload with
    | Some ("decide", v) ->
        if
          Ivar.try_fill decision
            { Report.value = v; at = Engine.now ctx.Cluster.ctx_engine }
        then
          Obs.event ctx.Cluster.ctx_obs
            ~actor:(Printf.sprintf "p%d" ctx.Cluster.pid)
            (Event.Decide { pid = ctx.Cluster.pid; value = v });
        continue := false
    | _ -> ()
  done

let proposer (ctx : _ Cluster.ctx) cfg ~input decision =
  let n = ctx.Cluster.cluster_n in
  let m = ctx.Cluster.cluster_m in
  let me = ctx.Cluster.pid in
  let client = ctx.Cluster.client in
  let obs = ctx.Cluster.ctx_obs in
  let actor = Printf.sprintf "p%d" me in
  let f_m = match cfg.f_m with Some f -> f | None -> (m - 1) / 2 in
  let quorum = m - f_m in
  if quorum <= 0 || f_m < 0 then invalid_arg "Protected_paxos: bad f_m";
  let round = ref 0 in
  let first_attempt = ref true in
  let continue = ref true in
  while !continue do
    Omega.wait_until_leader ctx.Cluster.ctx_omega ~me;
    if Ivar.is_full decision then continue := false
    else begin
      incr round;
      if !round > cfg.max_rounds then continue := false
      else begin
        let prop_nr = (!round * n) + me + 1 in
        (* Phase 1 — skipped by p1 on its very first attempt: it already
           holds the write permission everywhere, so a successful phase-2
           write certifies no rival ever took over. *)
        let my_value = ref (Some input) in
        (if (not (me = 0)) || not !first_attempt then
           Obs.with_span obs ~actor ~cat:"phase" "pmp.phase1" @@ fun () ->
           let chains = Array.init m (fun _ -> Ivar.create ()) in
           for i = 0 to m - 1 do
             ctx.Cluster.spawn_sub
               (Printf.sprintf "pmp.chain%d" i)
               (fun () -> phase1_chain ctx ~mem:i ~prop_nr chains.(i))
           done;
           let completed = Par.await_k chains quorum in
           let any_write_failed =
             List.exists (fun (_, r) -> r = P1_write_failed) completed
           in
           if any_write_failed then my_value := None
           else begin
             let best = ref None in
             let higher_seen = ref false in
             List.iter
               (fun (_, r) ->
                 match r with
                 | P1_write_failed -> ()
                 | P1_ok info ->
                     Array.iter
                       (function
                         | None -> ()
                         | Some (min_prop, acc_prop, v) ->
                             if min_prop > prop_nr then higher_seen := true;
                             if acc_prop > 0 then
                               match !best with
                               | Some (b, _) when b >= acc_prop -> ()
                               | _ -> best := Some (acc_prop, v))
                       info)
               completed;
             if !higher_seen then my_value := None
             else
               match !best with
               | Some (_, v) -> my_value := Some v
               | None -> my_value := Some input
           end);
        first_attempt := false;
        match !my_value with
        | None -> () (* retry: deposed or outpaced during phase 1 *)
        | Some value ->
            (* Phase 2: write (propNr, propNr, value) to our slot on every
               memory; if all m - fM collected responses are acks, no
               rival acquired the permission — decide. *)
            Obs.with_span obs ~actor ~cat:"phase" "pmp.phase2" (fun () ->
                let writes =
                  Memclient.write_all_async client ~region ~reg:(slot_reg me)
                    (encode_slot ~min_prop:prop_nr ~acc_prop:prop_nr ~value)
                in
                let completed = Par.await_k writes quorum in
                if List.for_all (fun (_, r) -> r = Memory.Ack) completed
                then begin
                  if
                    Ivar.try_fill decision
                      { Report.value; at = Engine.now ctx.Cluster.ctx_engine }
                  then
                    Obs.event obs ~actor (Event.Decide { pid = me; value });
                  announce ctx value;
                  continue := false
                end
                (* else: a write was nak'd — someone took the permission *))
      end
    end
  done

let spawn cluster ?(cfg = default_config) ~pid ~input () =
  let decision = Ivar.create () in
  Cluster.spawn cluster ~pid (fun ctx ->
      ctx.Cluster.spawn_sub "pmp.listener" (fun () -> listener ctx decision);
      proposer ctx cfg ~input decision);
  { decision }

(* Run a complete instance: build the cluster, apply the fault schedule,
   execute to quiescence, and report. *)
let run ?(cfg = default_config) ?(seed = 1) ?(faults = []) ?(prepare = fun _ -> ()) ~n ~m ~inputs () =
  if Array.length inputs <> n then invalid_arg "Protected_paxos.run: |inputs| <> n";
  let cluster = Cluster.create ~seed ~legal_change ~n ~m () in
  setup_regions cluster;
  let handles = Array.init n (fun pid -> spawn cluster ~cfg ~pid ~input:inputs.(pid) ()) in
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let decisions = Array.map (fun h -> Ivar.peek h.decision) handles in
  Report.of_cluster ~algorithm:"protected-memory-paxos" ~decisions cluster
