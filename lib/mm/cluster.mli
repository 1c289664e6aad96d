(** A complete simulated M&M system: n processes, m memories, network,
    signatures, Ω, and fault injection.  ['m] is the algorithm's message
    type. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_crypto
open Rdma_obs

type 'm t

(** Per-cluster state that one library module shares between the
    programs of a cluster, such as a decode cache.  It is found by a
    typed key the module creates and keeps private, so no other program
    can reach or insert into it. *)
type shared

type 'a shared_key

val shared_key : unit -> 'a shared_key

(** [shared s key ~name make] is the value [key] holds under [name] in
    this cluster, made by [make] on first use. *)
val shared : shared -> 'a shared_key -> name:string -> (unit -> 'a) -> 'a

(** Capability bundle handed to a process program — all a program (honest
    or Byzantine) ever sees of the system. *)
type 'm ctx = {
  pid : int;
  cluster_n : int;
  cluster_m : int;
  ctx_engine : Engine.t;
  client : Memclient.t;
  ep : 'm Network.endpoint;
  signer : Keychain.signer;
  chain : Keychain.t;
  ctx_omega : Omega.t;
  ctx_stats : Stats.t;
  ctx_obs : Obs.t;
  ctx_shared : shared;  (** the cluster's {!shared} state *)
  spawn_sub : string -> (unit -> unit) -> unit;
      (** Spawn an auxiliary fiber belonging to this process; it dies with
          the process when a crash is injected. *)
}

(** [ordering] (default {!Rdma_mem.Ordering.Strict}) installs a memory
    ordering model on every memory; the cluster seed keys the per-op
    lag/reorder streams, so the same seed replays the same weak-mode
    decisions. *)
val create :
  ?seed:int ->
  ?max_steps:int ->
  ?latency:float ->
  ?legal_change:Permission.legal_change ->
  ?initial_leader:int ->
  ?ordering:Rdma_mem.Ordering.mode ->
  n:int ->
  m:int ->
  unit ->
  'm t

val engine : 'm t -> Engine.t

val stats : 'm t -> Stats.t

val n : 'm t -> int

val m : 'm t -> int

val memories : 'm t -> Memory.t array

val memory : 'm t -> int -> Memory.t

(** Install a memory-ordering model on every memory (the chaos harness
    calls this at schedule-install time, t = 0). *)
val set_ordering : 'm t -> Rdma_mem.Ordering.mode -> unit

(** The model in force ({!Rdma_mem.Ordering.Strict} when m = 0). *)
val ordering : 'm t -> Rdma_mem.Ordering.mode

val net : 'm t -> 'm Network.t

val omega : 'm t -> Omega.t

val keychain : 'm t -> Keychain.t

(** The engine's telemetry collector (shared by every layer of this
    cluster). *)
val obs : 'm t -> Obs.t

(** Whether Ω automatically repoints to the lowest-id live process when the
    current leader crashes (default true). *)
val set_auto_leader : 'm t -> bool -> unit

(** Failure-detection delay for the automatic Ω (default 8.0). *)
val set_detection_delay : 'm t -> float -> unit

(** Create the same region on every memory — the replicated layout the
    paper's algorithms use. *)
val add_region_everywhere :
  'm t -> name:string -> perm:Rdma_mem.Permission.t -> registers:string list -> unit

(** {!add_region_everywhere} for a register family
    ({!Rdma_mem.Memory.add_family}). *)
val add_family_everywhere :
  'm t -> name:string -> perm:Rdma_mem.Permission.t -> Memory.family -> unit

(** Build the capability bundle for [pid] without spawning (for tests). *)
val ctx : 'm t -> int -> 'm ctx

val spawn : 'm t -> pid:int -> ('m ctx -> unit) -> unit

(** Spawn an adversarial program with ordinary capabilities: it cannot
    forge signatures, spoof senders, or bypass memory permissions. *)
val spawn_byzantine : 'm t -> pid:int -> ('m ctx -> unit) -> unit

val is_byzantine : 'm t -> int -> bool

val is_crashed : 'm t -> int -> bool

val correct_pids : 'm t -> int list

(** Processes spawned with {!spawn_byzantine}. *)
val byzantine_pids : 'm t -> int list

(** Processes crashed so far (by injected faults or direct calls). *)
val crashed_pids : 'm t -> int list

(** Memories crashed so far. *)
val crashed_mids : 'm t -> int list

(** Crash process [pid] and its auxiliary fibers, emitting [Proc_crash]
    on the telemetry stream.  No-op when it is already crashed. *)
val crash_process : 'm t -> int -> unit

val crash_process_at : 'm t -> at:float -> int -> unit

(** Crash memory [mid] ({!Rdma_mem.Memory.crash} emits [Mem_crash]). *)
val crash_memory : 'm t -> int -> unit

val crash_memory_at : 'm t -> at:float -> int -> unit

(** Bring a crashed memory back empty under a fresh epoch (see
    [Memory.restart]; [rejoin] defaults to [`Genesis]).  A benign no-op
    when the memory is not crashed, so shrunk fault schedules that
    dropped the paired crash stay valid. *)
val restart_memory : ?rejoin:[ `Genesis | `Quarantine ] -> 'm t -> int -> unit

val restart_memory_at :
  ?rejoin:[ `Genesis | `Quarantine ] -> 'm t -> at:float -> int -> unit

(** Restart a crashed process: re-run the program it was spawned with
    from the top, with a fresh capability bundle.  Only state the
    program explicitly recovers survives; emits [Proc_restart].  No-op
    when the process is not crashed or was never spawned. *)
val restart_process : 'm t -> int -> unit

val restart_process_at : 'm t -> at:float -> int -> unit

(** Restart the machine hosting process [pid] and memory [mid]: both come
    back with nothing but what they recover. *)
val restart_machine :
  ?rejoin:[ `Genesis | `Quarantine ] -> 'm t -> pid:int -> mid:int -> unit

val restart_machine_at :
  ?rejoin:[ `Genesis | `Quarantine ] -> 'm t -> at:float -> pid:int -> mid:int -> unit

(** Run the engine to quiescence. *)
val run : 'm t -> unit

(** Re-raise the first exception that escaped a fiber, if any. *)
val check_errors : 'm t -> unit
