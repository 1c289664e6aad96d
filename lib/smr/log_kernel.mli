(** The replicated-log kernel shared by the SMR engines {!Smr_log}
    (["pmp"]) and {!Velos} (["velos"]).

    Both keep the log in one region per memory, exclusively writable by
    the current leader, and differ only in the commit point, in how
    followers learn and in the read path.  Everything else lives here
    once: the log layout and codecs, the client protocol, the replica
    core state, the reign loop with recovery adoption and rewrite,
    checkpoints, state transfer to restarted memories, and the client
    loops.  DESIGN.md §14 lists what each engine keeps. *)

open Rdma_mem
open Rdma_mm
open Rdma_sim

(** {2 Log layout and codecs} *)

(** Log entry [i] (1-based). *)
val entry_reg : int -> string

(** A log entry: the writing leader's term and the stored command. *)
val encode_entry : term:int -> cmd:string -> string

val decode_entry : string -> (int * string) option

(** Commands are logged with their (client, seq) origin, so a new leader
    can rebuild duplicate suppression from the log. *)
val encode_cmd_meta : client:int -> seq:int -> cmd:string -> string

val decode_cmd_meta : string -> (int * int * string) option

(** Client and replica messages.  Velos uses only the client ones. *)
type msg =
  | Request of { client : int; seq : int; cmd : string }
  | Ack of { client : int; seq : int; index : int }
  | Commit of { index : int; cmd : string }
  | Read_request of { client : int; seq : int }
  | Read_reply of { client : int; seq : int; up_to : int }
  | Catch_up of { pid : int }
      (** a restarted replica asking the leader for a snapshot *)
  | Snapshot of { up_to : int; entries : string list }
      (** the committed prefix, installed wholesale (no log replay) *)

val encode_msg : msg -> string

val decode_msg : string -> msg option

(** {2 Region} *)

(** Only replicas may take [region]'s exclusive write permission. *)
val legal_change : region:string -> Consensus_engine.config -> Permission.legal_change

(** One region per memory, initially writable by process 0: the
    [header] registers, then the [max_entries] log entries. *)
val setup_regions :
  region:string -> header:string list -> 'm Cluster.t -> Consensus_engine.config -> unit

(** The Ω leader clamped to the replica range. *)
val leader : 'm Cluster.ctx -> Consensus_engine.config -> int

(** {2 Replica core} *)

(** A replica: the shared core plus the engine's own state [ext]. *)
type 'x replica = {
  tag : string;  (** fiber, stat and event prefix *)
  region : string;
  pid : int;
  cfg : Consensus_engine.config;
  applied : (int * string) Queue.t;  (** (index, cmd) in application order *)
  mutable applied_up_to : int;
  mutable current_term : int;
  mutable stopped : bool;
  mutable subscribed : bool;
  requests : (int * int * string) Mailbox.t;  (** client, seq, cmd *)
  reads : (int * int) Mailbox.t;  (** client, seq *)
  rejoin : int Mailbox.t;  (** restarted memories awaiting state transfer *)
  mutable commit_subs : (index:int -> cmd:string -> unit) list;
  mutable recover_subs : (term:int -> unit) list;
  ext : 'x;
}

val create :
  tag:string -> region:string -> pid:int -> Consensus_engine.config -> 'x -> 'x replica

(** The {!Consensus_engine.S} accessors, for engines to [include]. *)
module Accessors : sig
  val applied_entries : 'x replica -> (int * string) list

  val applied_count : 'x replica -> int

  val current_term : 'x replica -> int

  val on_commit : 'x replica -> (index:int -> cmd:string -> unit) -> unit

  val on_recover : 'x replica -> (term:int -> unit) -> unit

  val stop : 'x replica -> unit
end

include module type of Accessors

(** Apply the next entry (ignored unless [index] is the next one) and
    notify the commit subscribers. *)
val apply_entry : 'x replica -> index:int -> cmd:string -> unit

(** {!apply_entry} of a stored entry, stripped of its metadata. *)
val apply_stored : 'x replica -> index:int -> string -> unit

(** Apply the stored entries [1..] of a committed prefix that are past
    the applied index. *)
val install : 'x replica -> string list -> unit

(** Reset the core at the top of the replica program (a restarted
    replica begins from nothing) and, once, subscribe to [Mem_restart]
    events, which queue the memory on [rejoin]. *)
val restart : 'm Cluster.ctx -> 'x replica -> unit

(** Route client requests and reads to their mailboxes until stopped;
    other messages go to [other]. *)
val pump : string Cluster.ctx -> 'x replica -> other:(msg -> unit) -> unit
[@@sim.yields]

(** {2 Recovery} *)

(** What a takeover read adopted. *)
type adoption = {
  views : (int * string option array) list;
      (** the successful reads: memory id, [header] then the log *)
  failed : int list;  (** memories whose read nak'd: repair them *)
  base : int;  (** the highest checkpoint seen *)
  base_entries : string list;  (** its entries [1..base] *)
  tail : (int * string) list;
      (** the dense max-term tail above it, as (index, stored entry) *)
}

(** Leader recovery, read side: take the permission on every memory
    (sub-fibers [tag ^ ".recover<i>"]), read [header] (which starts with
    [Protected_region.ckpt_reg]) plus the whole log from a quorum of successful chains,
    and adopt the highest checkpoint plus, per slot above it, the
    highest-term entry.  [None] once a quorum cannot succeed. *)
val takeover : 'm Cluster.ctx -> 'x replica -> header:string list -> adoption option
[@@sim.yields]

(** Leader recovery, write side: re-replicate the adopted checkpoint,
    then rewrite the tail under [term], each all-acked by a quorum.
    [false] = deposed. *)
val rewrite : 'm Cluster.ctx -> 'x replica -> term:int -> adoption -> bool
[@@sim.yields]

(** The adopted log, checkpointed entries first, as (index, stored). *)
val prefix : adoption -> (int * string) list

(** State transfer of a leader's view to restarted memory [mid]
    ({!Rdma_consensus.Protected_region.spawn_repair}, named
    [tag ^ ".repair"]): the checkpoint of [entries] (up to [up_to]),
    then the engine's [header] registers, then [tail] under [term]. *)
val spawn_repair :
  'm Cluster.ctx ->
  'x replica ->
  term:int ->
  up_to:int ->
  entries:string list ->
  tail:(int * string) list ->
  header:(string * string option) list ->
  int ->
  unit

(** {2 Reigns} *)

type reign = {
  term : int;
  dedup : (int * int, int) Hashtbl.t;  (** (client, seq) -> committed index *)
  stored : (int, string) Hashtbl.t;  (** index -> stored entry, whole log *)
  mutable next : int;  (** next free log index *)
  mutable ckpt_up_to : int;
  mutable deposed : bool;
}

(** The leader loop, until stopped, past [serve_until] or out of terms:
    await Ω, open a reign under a fresh term, [recover] (skipped on the
    initial leader's first reign at time 0), notify the recover
    subscribers, rebuild duplicate suppression and the stored log from
    the recovered prefix, [deliver] each recovered entry, then [serve]
    the reign. *)
val lead :
  'm Cluster.ctx ->
  'x replica ->
  recover:(term:int -> ((int * string) list * int) option) ->
  deliver:(index:int -> cmd:string -> unit) ->
  serve:(reign -> unit) ->
  unit
[@@sim.yields]

(** The reign goes on: not deposed, not stopped, before [serve_until],
    and still Ω's leader. *)
val serving : 'm Cluster.ctx -> 'x replica -> reign -> bool

(** Send a client its [Ack]. *)
val ack : string Cluster.ctx -> client:int -> seq:int -> index:int -> unit

(** [checkpoint_every] entries committed since the last checkpoint. *)
val checkpoint_due : 'x replica -> reign -> bool

(** Write the checkpoint of the committed log quorum-acked, then
    truncate the covered entries (one batched ⊥-write per memory).  A
    nak deposes the reign. *)
val checkpoint : 'm Cluster.ctx -> 'x replica -> reign -> unit [@@sim.yields]

(** Serve the restarted memories queued on [rejoin]: [prove] the reign
    first (it deposes on a nak, and the memories go back on the queue);
    then [repair] each, once, with the committed log. *)
val serve_rejoins :
  'x replica ->
  reign ->
  prove:(unit -> bool) ->
  repair:
    (up_to:int -> entries:string list -> tail:(int * string) list -> int -> unit) ->
  unit

(** {2 Clients} *)

(** Submit a command from a client process to the Ω leader; await the
    ack, resending on timeout.  The committed index, or [None]. *)
val submit :
  string Cluster.ctx ->
  cfg:Consensus_engine.config ->
  seq:int ->
  cmd:string ->
  timeout:float ->
  int option
[@@sim.yields]

(** Ask [dst ()] (re-evaluated on every resend) for a linearizable read;
    the reported applied index, or [None] on timeout. *)
val linearizable_read :
  string Cluster.ctx -> seq:int -> timeout:float -> dst:(unit -> int) -> int option
[@@sim.yields]
