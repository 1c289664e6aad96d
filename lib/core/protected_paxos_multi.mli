(** Repeated Protected Memory Paxos: "the leader terminates one instance
    and becomes the default leader in the next" (Section 5.1).  One
    exclusive write permission covers all instances; leadership reigns
    take over with a single whole-region read, and every steady-state
    decision is one replicated write — two delays. *)

open Rdma_sim
open Rdma_mm
open Rdma_mem

val region : string

val slot_reg : instance:int -> int -> string

(** The checkpoint register: the decided values of a prefix of instances,
    written quorum-acked only after they decided; the covered slots are
    then truncated.  A takeover (or a repair) installs the checkpoint
    instead of replaying the slots.  Encoded with
    {!Protected_region.encode_ckpt}. *)
val ckpt_reg : string

val legal_change : Permission.legal_change

type config = {
  slots : int;
  f_m : int option;
  max_takeovers : int;
  checkpoint_every : int;
      (** checkpoint (and truncate the slots below) every this many
          decided instances; [0] disables checkpointing *)
  serve_until : float;
      (** keep a custodian fiber alive until this virtual time to repair
          memories that rejoin after the decisions are done; [0.] disables *)
}

val default_config : config

val setup_regions : 'm Cluster.t -> config -> unit

type handle

(** Per-instance decision ivars for one process. *)
val decisions : handle -> Report.decision Ivar.t array

val spawn :
  string Cluster.t ->
  ?cfg:config ->
  pid:int ->
  input_for:(instance:int -> string) ->
  unit ->
  handle

(** Run [cfg.slots] sequential decisions; returns one report per
    instance (cost counters in each report are cumulative over the whole
    run). *)
val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  m:int ->
  input_for:(pid:int -> instance:int -> string) ->
  unit ->
  Report.t array
