(* A Byzantine-tolerant replicated log: one Fast & Robust instance per
   slot (Theorem 4.9 composed sequentially).

   Every slot is a full weak-Byzantine-agreement instance living in its
   own namespace (regions and signature payloads are tagged per slot, so
   unanimity proofs and leader signatures cannot be replayed across
   slots).  In common executions the fixed leader appends to slot i with
   one signature and one replicated write — the Cheap Quorum fast path —
   and moves on: a Byzantine-tolerant log with 2-delay appends.  Under a
   Byzantine leader or asynchrony, each slot falls back to Preferential
   Paxos, and correct replicas still agree slot by slot.

   Tolerates fP < n/2 Byzantine processes and fM < m/2 memory crashes —
   the paper's bounds, applied per slot. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

type config = {
  slots : int;
  base : Fast_robust.config; (* per-slot configuration template *)
}

let default_config = { slots = 3; base = Fast_robust.default_config }

let ns_of_slot i = Printf.sprintf "s%d." i

let slot_config cfg i = Fast_robust.config_with_ns ~base:cfg.base (ns_of_slot i)

(* One suffix-based policy covers every slot's leader region. *)
let legal_change ~n = Cheap_quorum.legal_change ~n

let setup_regions cluster cfg =
  for i = 0 to cfg.slots - 1 do
    Fast_robust.setup_regions cluster ~cfg:(slot_config cfg i) ()
  done

type handle = { decisions : Report.decision Ivar.t array (* per slot *) }

let decisions h = h.decisions

(* A replica appends through the slots strictly in order: slot i+1
   starts only once slot i has decided locally, so the applied log is
   always a dense prefix. *)
let spawn cluster ?(cfg = default_config) ~pid ~input_for () =
  let handle = { decisions = Array.make cfg.slots (Ivar.create ()) } in
  for i = 0 to cfg.slots - 1 do
    handle.decisions.(i) <- Ivar.create ()
  done;
  Cluster.spawn cluster ~pid (fun ctx ->
      for i = 0 to cfg.slots - 1 do
        let d =
          Fast_robust.attach ctx ~cfg:(slot_config cfg i) ~input:(input_for ~slot:i) ()
        in
        Ivar.on_fill d (fun v -> ignore (Ivar.try_fill handle.decisions.(i) v));
        (* strict slot order *)
        ignore (Ivar.await handle.decisions.(i))
      done);
  handle

(* Committed prefix as seen by one replica. *)
let applied h =
  let rec collect i acc =
    if i >= Array.length h.decisions then List.rev acc
    else
      match Ivar.peek h.decisions.(i) with
      | Some d -> collect (i + 1) ((i, d.Report.value) :: acc)
      | None -> List.rev acc
  in
  collect 0 []

let run ?(cfg = default_config) ?(seed = 1) ?(faults = [])
    ?(byzantine : (int * (string Cluster.ctx -> unit)) list = []) ~n ~m ~input_for () =
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(legal_change ~n) ~n ~m ()
  in
  setup_regions cluster cfg;
  let handles = Array.make n None in
  for pid = 0 to n - 1 do
    match List.assoc_opt pid byzantine with
    | Some behaviour -> Cluster.spawn_byzantine cluster ~pid behaviour
    | None ->
        handles.(pid) <-
          Some
            (spawn cluster ~cfg ~pid
               ~input_for:(fun ~slot -> input_for ~pid ~slot)
               ())
  done;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let reports =
    Array.init cfg.slots (fun slot ->
        let decisions =
          Array.map
            (function
              | Some h -> Ivar.peek h.decisions.(slot)
              | None -> None)
            handles
        in
        Report.of_cluster ~decisions cluster
          ~algorithm:(Printf.sprintf "bft-log[%d]" slot))
  in
  (reports, List.map fst byzantine)
