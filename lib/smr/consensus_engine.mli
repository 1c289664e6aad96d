(** The pluggable consensus-engine interface behind the SMR stack.

    An engine is a replicated-log implementation: it owns a memory
    region layout, a replica program, and a client protocol, and it
    exposes the committed-command stream that the state machines
    ({!Kv}, {!Lock_service}) and the chaos workloads consume.  Two
    engines ship today: ["pmp"] ({!Smr_log}, the Mu-style log on the
    Protected Memory Paxos permission discipline) and ["velos"]
    ({!Velos}, one-sided Paxos with passive memory replicas and leader
    leases on virtual time), both built on {!Log_kernel}. *)

open Rdma_mm
open Rdma_mem

(** One configuration record shared by every engine, so [Kv],
    [Lock_service], the chaos scenarios and the bench harness run
    unmodified against any of them.  Engine-specific knobs carry a
    neutral default that other engines ignore (documented per field). *)
type config = {
  replicas : int;  (** replicas are processes [0 .. replicas-1] *)
  max_entries : int;
  f_m : int option;
  max_terms : int;
  serve_until : float;
      (** virtual time at which replicas stop serving (so runs quiesce) *)
  checkpoint_every : int;
      (** checkpoint (and truncate the log below) every this many
          committed entries; [0] disables checkpointing *)
  anti_entropy_every : float;
      (** followers chase missed commits every this many delays —
          pmp: periodic snapshot catch-up requests to the leader;
          velos: the passive-memory poll interval (velos treats [0.] as
          its default poll rate, pmp as "off", preserving pre-refactor
          behaviour) *)
  lease_duration : float;
      (** velos: how long a quorum-acked leader lease is valid, in
          virtual delays — a read served under a valid lease costs 0
          memory ops.  [0.] disables leases (every read pays a quorum
          round).  pmp ignores it (reads always pay a lease write) *)
  lease_violation : bool;
      (** velos, test fixture only: deliberately keep serving local
          reads after deposition/expiry — the stale-lease bug the chaos
          oracle must catch.  Never set outside tests *)
}

val default_config : config

(** What every engine provides.  Callback hooks ([on_commit],
    [on_recover]) run on the replica's applying fiber and must not
    suspend. *)
module type S = sig
  val name : string

  val descr : string

  (** The engine's memory region (one per memory). *)
  val region : string

  (** Only replicas may take the region's exclusive write permission. *)
  val legal_change : config -> Permission.legal_change

  val setup_regions : 'm Cluster.t -> config -> unit

  type replica

  val spawn_replica :
    string Cluster.t -> ?cfg:config -> pid:int -> unit -> replica

  (** Applied entries, oldest first, as [(index, command)] — the commit
      stream read back wholesale. *)
  val applied_entries : replica -> (int * string) list

  val applied_count : replica -> int

  (** The term of the replica's current (or last) reign; [0] before any. *)
  val current_term : replica -> int

  (** Commit-stream notification: [f ~index ~cmd] on every applied entry. *)
  val on_commit : replica -> (index:int -> cmd:string -> unit) -> unit

  (** Recovery hook: [f ~term] once a reign's recovery (state
      reconstruction + rewrite) completed and the replica leads. *)
  val on_recover : replica -> (term:int -> unit) -> unit

  val stop : replica -> unit

  (** Submit a command from a client process (pid ≥ replicas): routes to
      the Ω leader, awaits the ack, retries on timeout.  Returns the
      committed index, or [None] if [timeout] elapsed. *)
  val submit :
    string Cluster.ctx ->
    cfg:config ->
    seq:int ->
    cmd:string ->
    timeout:float ->
    int option
  [@@sim.yields]

  (** Linearizable read: how many entries are committed, confirmed
      against rivals (permission-protected lease write, or a still-valid
      leader lease).  [None] on timeout. *)
  val linearizable_read :
    string Cluster.ctx -> cfg:config -> seq:int -> timeout:float -> int option
  [@@sim.yields]
end

type engine = (module S)

(** A replica packed with its engine, for engine-agnostic consumers
    ({!Kv.of_replica}, the chaos workloads, the bench harness). *)
type running = Running : (module S with type replica = 'r) * 'r -> running

(** Spawn a replica of [engine] and pack it. *)
val spawn :
  engine -> string Cluster.t -> ?cfg:config -> pid:int -> unit -> running

val applied : running -> (int * string) list

val applied_count : running -> int

val current_term : running -> int

val on_commit : running -> (index:int -> cmd:string -> unit) -> unit

val on_recover : running -> (term:int -> unit) -> unit

val stop : running -> unit

(** {2 Leader identity — shared by every engine}

    Both engines route clients with the same Ω discipline, so leader
    identity and change notification live here rather than per-engine. *)

(** The replica the Ω oracle currently points at (clamped to the replica
    range, as the client protocols do). *)
val leader_hint : 'm Cluster.t -> cfg:config -> int

(** Persistent leadership-change notification: [f leader] on every
    subsequent Ω change (re-armed after each firing; not retroactive). *)
val on_leader_change : 'm Cluster.t -> (int -> unit) -> unit
