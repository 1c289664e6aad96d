(** A simulated shared-memory node (one µ_i of Section 3): registers
    grouped into regions, permissions checked at the memory, crash
    failures that make operations hang forever.

    Beyond the paper's crash-stop memories, a crashed memory can
    {!restart} under a fresh {e epoch}, coming back empty: register
    contents and legalChange-granted permissions are lost.  Permissions
    and registers are epoch-stamped — a stale grant never serves, and a
    stale (lost) register naks reads until a current-epoch write repairs
    it, so an amnesiac replica answers "I don't know" rather than serving
    lost state as ⊥.

    Timing follows the paper's delay metric: an operation issued at time
    [t] applies at the memory at [t + one_way] and its response arrives
    at [t + 2 * one_way] — under the default {!Ordering.Strict} model.
    The weaker models ({!Ordering.Completion_lag},
    {!Ordering.Reorder_qp}) decouple apply from completion per the mode
    semantics in {!Ordering}; {!fence_async} is the explicit flush. *)

open Rdma_sim

type op_result = Ack | Nak

type read_result = Read of string option | Read_nak

type t

(** The register → region layout.  The memories of one cluster share a
    table, so a region is declared once and attached to each memory by
    name; a standalone memory gets a private one. *)
type table

val create_table : unit -> table

(** [ordering] is the memory-ordering model (default {!Ordering.Strict});
    [seed] keys the per-memory stream the weak modes draw their per-op
    lag/reorder decisions from — pass the run's seed so chaos schedules
    replay to identical decisions. *)
val create :
  ?one_way:float ->
  ?legal_change:Permission.legal_change ->
  ?ordering:Ordering.mode ->
  ?seed:int ->
  ?table:table ->
  engine:Engine.t ->
  stats:Stats.t ->
  mid:int ->
  unit ->
  t

val id : t -> int

val ordering : t -> Ordering.mode

(** Install an ordering model; meant for schedule install time (t = 0) —
    the per-op decision stream is shared across modes, so switching
    mid-run is deterministic but changes subsequent draws. *)
val set_ordering : t -> Ordering.mode -> unit

(** The engine's telemetry collector (every operation records a typed
    event on this memory's [mu<mid>] track and a [mem.*] span). *)
val obs : t -> Rdma_obs.Obs.t

(** The substrate-wide counters this memory reports into. *)
val stats : t -> Stats.t

(** Crash the memory: every outstanding and future operation hangs.
    Emits a [Mem_crash] event, as {!restart} emits [Mem_restart].  A
    no-op (no event) when the memory is already crashed. *)
val crash : t -> unit

val is_crashed : t -> bool

(** The current epoch: 0 at creation, incremented by each {!restart}. *)
val epoch : t -> int

(** Restart a crashed memory under a fresh epoch.  All register contents
    are lost (stale until rewritten) and in-flight pre-crash operations
    are dropped for good.  [`Genesis] (default) has the trusted kernel
    restore each region's creation-time permission, as a NIC driver
    re-registers configured regions on reboot; [`Quarantine] leaves every
    region fenced — nak-ing all operations — until a permission is
    re-established at the new epoch via {!change_permission_async} (which
    shows [legal_change] a [Permission.none] current state) or
    {!force_permission}.  Raises [Invalid_argument] if the memory is not
    crashed. *)
val restart : ?rejoin:[ `Genesis | `Quarantine ] -> t -> unit

(** [add_region t ~name ~perm ~registers] creates a region.  Each register
    may belong to only one region (the convention our algorithms use);
    registers are initialized to ⊥ ([None]).  A region name already
    declared in [t]'s table (by another memory sharing it) is attached
    with its declared registers, which [registers] must equal.  Raises
    [Invalid_argument] on a duplicate region in [t], a register claimed
    by two regions, or a declared region given another layout. *)
val add_region :
  t -> name:string -> perm:Permission.t -> registers:string list -> unit

(** A register family: the names [<prefix><k>.<j>] for every [k] in
    [\[1, rows\]] and [j] in [\[0, cols)], both written in canonical
    decimal (no sign, no leading zero).  Any other spelling, such as
    [01], [+1] or [1_], is not a member.  [prefix] is empty or ends in
    ['.']. *)
type family = { prefix : string; rows : int; cols : int }

(** [add_family t ~name ~perm family] creates a region whose registers
    are [family]'s names, declared by their rule and bound rather than
    entered one by one, and otherwise behaves like {!add_region}.  On top
    of {!add_region}'s checks it raises [Invalid_argument] when [family]
    shares its prefix with another declared family (they would overlap)
    or covers a register of a listed region.  A listed region that names
    a register inside a declared family raises too. *)
val add_family : t -> name:string -> perm:Permission.t -> family -> unit

(** Zero-delay inspection, for tests and traces only. *)
val peek_register : t -> string -> string option

(** Whether the register's last write is from the current epoch.  A stale
    register is state lost in a restart and not yet repaired: reads nak
    on it.  Zero-delay; for tests and the chaos oracle. *)
val register_fresh : t -> string -> bool

(** The region's registers still awaiting repair (sorted).  Empty means
    the region is fully re-replicated.  Zero-delay; for tests and the
    chaos oracle. *)
val stale_registers : t -> region:string -> string list

val region_perm : t -> string -> Permission.t option

(** Whether the region's permission was granted in the current epoch —
    false while a restarted region is still fenced. *)
val region_serving : t -> string -> bool

val region_names : t -> string list

(** Kernel-side permission override, bypassing [legal_change] (the Verbs
    facade models the trusted kernel of Section 7).  Untrusted programs
    must use {!change_permission_async}.  The grant is stamped with the
    current epoch. *)
val force_permission : t -> region:string -> perm:Permission.t -> unit

(** Timed write; the ivar fills with the result two one-way delays later
    (never, if the memory crashes).  A successful write stamps the
    register with the current epoch, repairing it if it was stale. *)
val write_async :
  t -> from:int -> region:string -> reg:string -> string -> op_result Ivar.t

val read_async : t -> from:int -> region:string -> reg:string -> read_result Ivar.t

type read_many_result = Read_many of string option array | Read_many_nak

(** Batched read of several registers of one region in a single timed
    operation — an RDMA read of a contiguous slot array (Section 7).
    Naks if any requested register is stale. *)
val read_many_async :
  t -> from:int -> region:string -> regs:string list -> read_many_result Ivar.t

(** Batched write of several registers of one region in one timed
    operation ([None] stores ⊥).  Stamps every named register with the
    current epoch — the snapshot-installation / state-transfer
    primitive. *)
val write_many_async :
  t ->
  from:int ->
  region:string ->
  values:(string * string option) list ->
  op_result Ivar.t

(** [changePermission]: the memory evaluates its [legal_change] policy on
    arrival; [Nak] means the request was refused and nothing changed.
    After a restart the forgotten pre-crash grant is presented to the
    policy as [Permission.none]. *)
val change_permission_async :
  t -> from:int -> region:string -> perm:Permission.t -> op_result Ivar.t

(** Explicit flush (the RDMA FLUSH / read-after-write fence): the
    returned ivar fills with [Ack] only once every operation [from]
    issued to this memory {e before} the fence has been applied, and
    later ops of the QP cannot overtake it.  Under {!Ordering.Strict}
    this is a free no-op (an already-full ivar, no event, no delay), so
    algorithms fence unconditionally at no strict-mode cost. *)
val fence_async : t -> from:int -> op_result Ivar.t
