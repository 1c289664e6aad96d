(** The Protected Memory Paxos permission discipline (Algorithm 7) as
    region operations: the takeover read, the state-transfer repair and
    the checkpoint codec, shared by the SMR engines ([Rdma_smr.Smr_log],
    [Rdma_smr.Velos]) and {!Protected_paxos_multi}. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm

(** The checkpoint register: a quorum-acked snapshot of the committed
    prefix, written only after the covered values committed, so a
    checkpoint read from any single replica is safe to adopt. *)
val ckpt_reg : string

(** [encode_ckpt entries]: the prefix length, then the stored values
    [1..length]. *)
val encode_ckpt : string list -> string

(** [None] on garbage or when the stored length differs from the number
    of values. *)
val decode_ckpt : string -> string list option

(** [m - f_m] memories; [f_m] defaults to the largest minority. *)
val quorum : 'm Cluster.ctx -> int option -> int

(** Await [quorum] completions; [true] iff every one of them acked. *)
val all_acked : Memory.op_result Ivar.t array -> int -> bool [@@sim.yields]

(** The longest checkpoint decoded from register 0 of the given
    takeover reads; [[]] if none. *)
val max_ckpt : (int * string option array) list -> string list

(** [checkpoint ctx ~name ~region ~quorum ~covered entries]: write the
    checkpoint of [entries] quorum-acked, then truncate [covered] (one
    batched ⊥-write per memory, a quorum awaited) and bump the
    [name ^ "s"] stat.  [false] = the checkpoint write nak'd. *)
val checkpoint :
  'm Cluster.ctx ->
  name:string ->
  region:string ->
  quorum:int ->
  covered:string list ->
  string list ->
  bool
[@@sim.yields]

(** [takeover_read ctx ~fiber ~region ~regs ~quorum]: on every memory
    [i], a sub-fiber named [fiber ^ string_of_int i] takes the region's
    exclusive write permission for [ctx.pid], then reads [regs] in one
    batched read.  Returns the successful reads (memory id, values in
    [regs] order) once a quorum of them completed, with the memories
    whose read nak'd; [None] once a quorum can no longer succeed. *)
val takeover_read :
  'm Cluster.ctx ->
  fiber:string ->
  region:string ->
  regs:string list ->
  quorum:int ->
  ((int * string option array) list * int list) option
[@@sim.yields]

(** [spawn_repair ctx ~name ~region ~mid values]: in a sub-fiber named
    [name ^ string_of_int mid], take the region's write permission on
    memory [mid], then write those of [values ()] that are still stale
    there in one batched write.  An acked repair bumps the [name ^ "s"]
    stat and emits a [name] custom event. *)
val spawn_repair :
  'm Cluster.ctx ->
  name:string ->
  region:string ->
  mid:int ->
  (unit -> (string * string option) list) ->
  unit
