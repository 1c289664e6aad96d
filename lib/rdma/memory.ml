(* A simulated (shared) memory node — one of the µ_i of Section 3.

   A memory holds registers grouped into named regions; each region has a
   permission checked *at the memory* when an operation arrives, so a
   Byzantine caller cannot bypass it — the trust placement of an RDMA NIC.

   Timing follows the paper's delay metric: an operation issued at time t
   arrives at the memory at t + one_way (permission check + state change
   happen atomically there) and its response reaches the caller at
   t + 2 * one_way.  A crashed memory never responds: the result ivar is
   simply never filled.

   Crash–recovery extends the paper's crash-stop memories: [restart]
   brings a crashed memory back *empty*, under a fresh epoch.  Nothing
   stored before the crash survives — register contents and the
   permission state granted through legalChange are both lost.  Epoch
   stamps enforce the two safety obligations of rejoin:

   - Region permissions carry the epoch at which they were granted.  A
     grant from a previous epoch is dead: every operation naks until the
     region's permission is re-established *at the current epoch* —
     either through [change_permission_async] (which shows legalChange a
     [Permission.none] current state, because the pre-crash grant is
     forgotten) or through the trusted-kernel [force_permission] path.
     A recovering memory can therefore never honour a stale grant.

   - Registers carry the epoch at which they were last written.  A
     register whose stamp predates the current epoch is *unrepaired*:
     reads (single or batched) nak on it, while fresh-epoch writes both
     store the value and repair the register.  An amnesiac replica thus
     answers "I don't know" instead of a silently-empty ⊥, so quorum
     readers can never mistake lost state for genuinely-unwritten state;
     repair is exactly "write the register back" (read-repair, snapshot
     installation), after which reads serve again.

   The register -> region layout lives in a [table] that a cluster's
   memories share: a region is declared once, and every memory then
   attaches it by name.  A region either lists its registers or names a
   [family] — every name of one shape within a bound, the way an RDMA
   NIC registers a memory region as one contiguous range — whose names
   are never entered one by one.  The per-memory store holds only
   registers that have been written; a register never written carries
   its region's creation epoch as its stamp and holds ⊥. *)

open Rdma_sim
open Rdma_obs

type op_result = Ack | Nak

type read_result = Read of string option | Read_nak

type family = { prefix : string; rows : int; cols : int }

type layout = Listed of string list | Family of family

(* The register -> region layout.  Declaring a listed region enters each
   of its registers once; a family region enters only its prefix.
   Attaching an already-declared region (same name, same layout) to
   another memory costs one layout comparison. *)
type table = {
  (* region -> its layout, as first declared *)
  layouts : (string, layout) Hashtbl.t;
  (* listed register -> owning region; with [families], enforces "a
     register belongs to exactly one region" (our algorithms'
     convention, Section 3) *)
  owner : (string, string) Hashtbl.t;
  (* family prefix -> (region, family).  A family name's prefix is all
     of it up to its second-last '.', so one lookup finds the only
     family a name can belong to. *)
  families : (string, string * family) Hashtbl.t;
  (* family-shaped listed registers, by the prefix they would have: what
     a new family must not cover *)
  shaped : (string, string) Hashtbl.t;
}

let create_table () =
  {
    layouts = Hashtbl.create 16;
    owner = Hashtbl.create 256;
    families = Hashtbl.create 16;
    shaped = Hashtbl.create 16;
  }

(* The canonical decimal [s.[i] .. s.[stop - 1]]: digits only, no sign,
   no leading zero but for "0" itself, and short enough not to overflow. *)
let canonical_int s i stop =
  let len = stop - i in
  let rec digits j acc =
    if j = stop then Some acc
    else
      match s.[j] with
      | '0' .. '9' as c -> digits (j + 1) ((acc * 10) + Char.code c - Char.code '0')
      | _ -> None
  in
  if len < 1 || len > 9 || (len > 1 && s.[i] = '0') then None else digits i 0

(* [s.[i] ..] read as "<k>.<j>" with both canonical. *)
let grid_index s i =
  match String.index_from_opt s i '.' with
  | None -> None
  | Some dot -> (
      match (canonical_int s i dot, canonical_int s (dot + 1) (String.length s)) with
      | Some k, Some j -> Some (k, j)
      | _ -> None)

let in_bounds f (k, j) = k >= 1 && k <= f.rows && j >= 0 && j < f.cols

(* Whether [reg] is one of family [f]'s names. *)
let family_mem f reg =
  String.starts_with ~prefix:f.prefix reg
  &&
  match grid_index reg (String.length f.prefix) with
  | Some kj -> in_bounds f kj
  | None -> false

(* [reg] as (prefix, (k, j)) when it has a family name's shape. *)
let family_shape reg =
  match String.rindex_opt reg '.' with
  | None -> None
  | Some last ->
      let start =
        match String.rindex_from_opt reg (last - 1) '.' with
        | Some dot -> dot + 1
        | None -> 0
      in
      Option.map
        (fun kj -> (String.sub reg 0 start, kj))
        (grid_index reg start)

(* The family region a name of shape (prefix, kj) belongs to, if any. *)
let shape_owner table (prefix, kj) =
  match Hashtbl.find_opt table.families prefix with
  | Some (name, f) when in_bounds f kj -> Some name
  | Some _ | None -> None

let family_owner table reg = Option.bind (family_shape reg) (shape_owner table)

let family_names f =
  Seq.concat_map
    (fun k ->
      let row = f.prefix ^ string_of_int k ^ "." in
      Seq.map (fun j -> row ^ string_of_int j) (Seq.init f.cols Fun.id))
    (Seq.init f.rows (fun k -> k + 1))

type region = {
  region_name : string;
  layout : layout; (* as declared: physically the table's *)
  (* the epoch the region was attached in: the stamp of every one of its
     registers that has not been written since *)
  created_epoch : int;
  mutable perm : Permission.t;
  (* the permission the region was created with; the kernel restores it
     on a [`Genesis] rejoin, as a NIC driver re-registers configured
     memory regions on reboot *)
  genesis : Permission.t;
  mutable granted_epoch : int;
}

(* Per-queue-pair ordering state, one QP per issuing process (Section 7
   pairs every process with every memory).  [floor] is the earliest
   instant a later op of this QP may apply — raised by each write under
   completion-lag (same-QP FIFO) and by fences; [horizon] is the latest
   apply instant assigned to any op of this QP, which is what a fence
   waits out. *)
type qp_state = { mutable floor : float; mutable horizon : float }

type t = {
  mid : int;
  engine : Engine.t;
  stats : Stats.t;
  obs : Obs.t;
  actor : string; (* "mu<mid>": this memory's telemetry track *)
  legal_change : Permission.legal_change;
  one_way : float;
  mutable crashed : bool;
  mutable epoch : int;
  table : table;
  regions : (string, region) Hashtbl.t;
  (* written register -> (epoch of last write, value) *)
  store : (string, int * string option) Hashtbl.t;
  (* weak-ordering model state.  Per-op lag/reorder decisions come from
     [ord_rng], a dedicated stream keyed on (seed, mid) so they replay
     identically under -j N and never perturb the engine's rng (which
     Random_latency draws from). *)
  mutable ordering : Ordering.mode;
  ord_rng : Random.State.t;
  qps : (int, qp_state) Hashtbl.t;
  (* latest apply instant assigned to any write on this memory — the
     control plane (permission changes) drains up to here *)
  mutable data_horizon : float;
  (* permission changes arrived but still draining, and the writes that
     arrived meanwhile (newest first): they are decided only once the
     last pending change has applied *)
  mutable controls_draining : int;
  mutable held_writes : (unit -> unit) list;
}

let create ?(one_way = 1.0) ?(legal_change = Permission.static_permissions)
    ?(ordering = Ordering.Strict) ?(seed = 0) ?(table = create_table ()) ~engine
    ~stats ~mid () =
  {
    mid;
    engine;
    stats;
    obs = Engine.obs engine;
    actor = Printf.sprintf "mu%d" mid;
    legal_change;
    one_way;
    crashed = false;
    epoch = 0;
    table;
    regions = Hashtbl.create 64;
    store = Hashtbl.create 256;
    ordering;
    ord_rng = Random.State.make [| 0x6f7264; seed; mid |];
    qps = Hashtbl.create 8;
    data_horizon = 0.0;
    controls_draining = 0;
    held_writes = [];
  }

let ordering t = t.ordering

let set_ordering t mode = t.ordering <- mode

let id t = t.mid

let obs t = t.obs

let stats t = t.stats

(* Typed telemetry event on this memory's track, recorded as the
   operation *arrives* at the memory (one one-way delay after issue) —
   the moment the permission check happens. *)
let emit t ev = Obs.event t.obs ~actor:t.actor ev

(* A crash of a crashed memory is a no-op, as for a process. *)
let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    emit t (Event.Mem_crash { mid = t.mid })
  end

let is_crashed t = t.crashed

let epoch t = t.epoch

let layout_equal a b =
  match (a, b) with
  | Listed a, Listed b -> List.equal String.equal a b
  | Family a, Family b -> String.equal a.prefix b.prefix && a.rows = b.rows && a.cols = b.cols
  | Listed _, Family _ | Family _, Listed _ -> false

let conflict fmt = Printf.ksprintf (fun msg -> invalid_arg ("Memory.add_region: " ^ msg)) fmt

(* The table's layout for region [name]: declared here if new, else the
   declared layout, which [layout] must equal. *)
let declare table ~name layout =
  match Hashtbl.find_opt table.layouts name with
  | Some declared ->
      if not (layout_equal declared layout) then
        conflict "region %s already declared with other registers" name;
      declared
  | None ->
      (match layout with
      | Listed registers ->
          List.iter
            (fun r ->
              (match Hashtbl.find_opt table.owner r with
              | Some other -> conflict "register %s already in region %s" r other
              | None -> Hashtbl.add table.owner r name);
              Option.iter
                (fun ((prefix, _) as shape) ->
                  Option.iter
                    (conflict "register %s already in region %s" r)
                    (shape_owner table shape);
                  Hashtbl.add table.shaped prefix r)
                (family_shape r))
            registers
      | Family f ->
          if f.prefix <> "" && f.prefix.[String.length f.prefix - 1] <> '.' then
            conflict "family prefix %s does not end in '.'" f.prefix;
          (match Hashtbl.find_opt table.families f.prefix with
          | Some (other, _) -> conflict "family %s* overlaps region %s" f.prefix other
          | None -> ());
          List.iter
            (fun r ->
              if family_mem f r then
                conflict "register %s already in region %s"
                  r (Hashtbl.find table.owner r))
            (Hashtbl.find_all table.shaped f.prefix);
          Hashtbl.add table.families f.prefix (name, f));
      Hashtbl.add table.layouts name layout;
      layout

let attach t ~name ~perm layout =
  if Hashtbl.mem t.regions name then
    invalid_arg (Printf.sprintf "Memory.add_region: duplicate region %s" name);
  let layout = declare t.table ~name layout in
  Hashtbl.add t.regions name
    {
      region_name = name;
      layout;
      created_epoch = t.epoch;
      perm;
      genesis = perm;
      granted_epoch = t.epoch;
    }

let add_region t ~name ~perm ~registers = attach t ~name ~perm (Listed registers)

let add_family t ~name ~perm family = attach t ~name ~perm (Family family)

(* Whether [reg] is one of region [r]'s registers. *)
let owns t r reg =
  match r.layout with
  | Family f -> family_mem f reg
  | Listed _ -> (
      match Hashtbl.find_opt t.table.owner reg with
      | Some name -> String.equal name r.region_name
      | None -> false)

(* (epoch of last write, value) of [reg], a register of region [r]: an
   unwritten register holds ⊥ under the region's creation epoch. *)
let slot t r reg =
  match Hashtbl.find_opt t.store reg with
  | Some slot -> slot
  | None -> (r.created_epoch, None)

(* Direct (zero-delay) inspection — for tests and trace printing only;
   simulated processes must go through the timed operations below. *)
let peek_register t reg =
  match Hashtbl.find_opt t.store reg with
  | Some (_, v) -> v
  | None -> None

(* A register is fresh when its last write happened in the current
   epoch; stale registers are lost state awaiting repair. *)
let register_fresh t reg =
  let owner =
    match Hashtbl.find_opt t.table.owner reg with
    | Some name -> Some name
    | None -> family_owner t.table reg
  in
  match Option.bind owner (Hashtbl.find_opt t.regions) with
  | Some r -> fst (slot t r reg) = t.epoch
  | None -> false

let stale_registers t ~region =
  match Hashtbl.find_opt t.regions region with
  | None -> []
  | Some r ->
      let names =
        match r.layout with
        | Listed registers -> List.to_seq registers
        | Family f -> family_names f
      in
      Seq.filter (fun reg -> fst (slot t r reg) <> t.epoch) names
      |> List.of_seq |> List.sort compare

let region_perm t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> Some r.perm
  | None -> None

(* Whether the region's permission was granted in the current epoch —
   i.e. the region serves operations rather than nak-ing as rejoining. *)
let region_serving t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> r.granted_epoch = t.epoch
  | None -> false

let region_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.regions [] |> List.sort compare

(* Kernel-side permission override, bypassing legalChange.  Section 7
   places permission management in the (trusted) OS kernel: the Verbs
   facade is that kernel, so it may install any permission; untrusted
   process programs can still only go through changePermission.  A
   kernel grant is always at the current epoch. *)
let force_permission t ~region ~perm =
  match Hashtbl.find_opt t.regions region with
  | Some r ->
      r.perm <- perm;
      r.granted_epoch <- t.epoch
  | None -> invalid_arg "Memory.force_permission: no such region"

(* Restart a crashed memory under a fresh epoch: register contents and
   legalChange-granted permission state are lost.  [`Genesis] rejoin
   has the kernel restore each region's creation-time permission (the
   NIC driver re-registering configured regions on reboot); under
   [`Quarantine] every region stays fenced until someone re-establishes
   its permission via changePermission or the kernel.  Either way all
   registers come back stale: reads nak until a current-epoch write
   repairs them.  Only written registers are in the store; the rest are
   stamped with their region's creation epoch, now past. *)
let restart ?(rejoin = `Genesis) t =
  if not t.crashed then invalid_arg "Memory.restart: memory is not crashed";
  t.crashed <- false;
  t.epoch <- t.epoch + 1;
  (* Materialize the register list (sorted: simlint D2) before blanking:
     Hashtbl.replace during Hashtbl.iter on the same table is
     unspecified behaviour. *)
  Hashtbl.fold (fun reg (stamp, _) acc -> (reg, stamp) :: acc) t.store []
  |> List.sort compare
  |> List.iter (fun (reg, stamp) -> Hashtbl.replace t.store reg (stamp, None));
  (match rejoin with
  | `Genesis ->
      (* In-place field updates commute across regions, so the
         hash-bucket visit order is unobservable. *)
      (Hashtbl.iter
         (fun _ r ->
           r.perm <- r.genesis;
           r.granted_epoch <- t.epoch)
         t.regions)
      [@simlint.allow "D2"]
  | `Quarantine -> ());
  (* In-flight pre-crash placements are dead (the epoch guard drops
     them), so the fresh epoch owes them no ordering: QP floors and the
     control-plane drain horizon reset with the reboot. *)
  Hashtbl.reset t.qps;
  t.data_horizon <- 0.0;
  t.controls_draining <- 0;
  t.held_writes <- [];
  Stats.bump t.stats "mem.restarts";
  emit t (Event.Mem_restart { mid = t.mid; epoch = t.epoch })

let qp_state t ~from =
  match Hashtbl.find_opt t.qps from with
  | Some q -> q
  | None ->
      let q = { floor = 0.0; horizon = 0.0 } in
      Hashtbl.add t.qps from q;
      q

(* Issue [decide] as a timed memory operation.  The op arrives at the
   memory one one-way after issue; the ordering model then assigns its
   decision and apply instants, and the response is delivered one
   one-way after the decision.  [decide] returns the response plus, for
   writes, the state mutation — split so completion-lag can resolve the
   permission check at arrival while deferring the bytes.  Every leg is
   dropped if the memory is crashed — or has been restarted into a later
   epoch — at that moment, so operations in flight across a crash can
   never resurrect after a restart (a lagged pre-crash placement in
   particular never lands in fresh-epoch memory).  The whole round trip
   is one span on the memory's track; an operation swallowed by a crash
   leaves its span unfinished, which the exporters flag.

   Timing per mode and op class ([now] = arrival instant):

     strict          decide+apply at [now], response one-way later.
     completion-lag  writes: decide at [now], apply at
                     max(now + lag, qp.floor) — same-QP FIFO — with the
                     response still one-way after [now], so the
                     completion can outrun the bytes; reads wait for
                     [qp.floor] (IB read-after-write ordering); control
                     verbs drain [data_horizon] before applying, as a
                     memory-registration change completes outstanding
                     DMA first, and a write arriving during that drain
                     is decided only after the change applies (so a
                     deposed writer naks rather than being acked with
                     bytes that land after the successor's reads).
     reordered-qp    data ops decide+apply at max(now + d, qp.floor);
                     the response follows one-way after the perturbed
                     apply, so a completion still implies delivery;
                     control verbs stay at [now] (a data op reordered
                     past a revocation naks at its apply instant, and
                     the issuer learns).
     fences          apply at max(now, qp.horizon) under either weak
                     mode (and raise [qp.floor], so later ops cannot
                     overtake the fence); never issued under strict. *)
let operation t ~span_name ~from ~cls decide =
  let result = Ivar.create () in
  let issue_epoch = t.epoch in
  let live () = (not t.crashed) && t.epoch = issue_epoch in
  Prof.bump "mem.ops.issued" 1;
  let sp = Obs.span t.obs ~actor:t.actor ~cat:"mem" span_name in
  let complete r =
    Engine.schedule t.engine t.one_way (fun () ->
        if live () then begin
          (* issued - completed = ops swallowed by a crash/restart *)
          Prof.bump "mem.ops.completed" 1;
          Obs.finish t.obs sp;
          Ivar.fill result r
        end)
  in
  let decide_apply () =
    let r, mutation = decide () in
    (match mutation with Some m -> m () | None -> ());
    r
  in
  (* run [f] at absolute instant [at] (>= now), under the live guard *)
  let at_instant at f =
    Engine.schedule t.engine (at -. Engine.now t.engine) (fun () ->
        if live () then f ())
  in
  Engine.schedule t.engine t.one_way (fun () ->
      if live () then begin
        let now = Engine.now t.engine in
        match t.ordering with
        | Ordering.Strict -> complete (decide_apply ())
        | Ordering.Completion_lag { max_lag } -> (
            let q = qp_state t ~from in
            match cls with
            | `Write ->
                let write () =
                  let now = Engine.now t.engine in
                  let r, mutation = decide () in
                  let lag = Random.State.float t.ord_rng max_lag in
                  (match mutation with
                  | Some m ->
                      let apply_at = Float.max (now +. lag) q.floor in
                      q.floor <- apply_at;
                      q.horizon <- Float.max q.horizon apply_at;
                      t.data_horizon <- Float.max t.data_horizon apply_at;
                      if apply_at > now then Prof.bump "mem.ops.lagged" 1;
                      at_instant apply_at m
                  | None -> ());
                  complete r
                in
                if t.controls_draining > 0 then
                  t.held_writes <- write :: t.held_writes
                else write ()
            | `Read -> at_instant (Float.max now q.floor) (fun () ->
                complete (decide_apply ()))
            | `Control ->
                t.controls_draining <- t.controls_draining + 1;
                at_instant (Float.max now t.data_horizon) (fun () ->
                    complete (decide_apply ());
                    t.controls_draining <- t.controls_draining - 1;
                    if t.controls_draining = 0 then begin
                      let held = List.rev t.held_writes in
                      t.held_writes <- [];
                      List.iter (fun write -> write ()) held
                    end)
            | `Fence ->
                Prof.bump "mem.fences" 1;
                at_instant (Float.max now q.horizon) (fun () ->
                    complete (decide_apply ())))
        | Ordering.Reorder_qp { window } -> (
            match cls with
            | `Control -> complete (decide_apply ())
            | `Write | `Read ->
                let q = qp_state t ~from in
                let d = Random.State.float t.ord_rng window in
                let apply_at = Float.max (now +. d) q.floor in
                if apply_at < q.horizon then Prof.bump "mem.ops.reordered" 1;
                q.horizon <- Float.max q.horizon apply_at;
                if cls = `Write then
                  t.data_horizon <- Float.max t.data_horizon apply_at;
                at_instant apply_at (fun () -> complete (decide_apply ()))
            | `Fence ->
                let q = qp_state t ~from in
                Prof.bump "mem.fences" 1;
                let at = Float.max now q.horizon in
                q.floor <- Float.max q.floor at;
                at_instant at (fun () -> complete (decide_apply ())))
      end);
  result

let lookup_region t name =
  match Hashtbl.find_opt t.regions name with
  | Some region -> Some region
  | None -> None

(* A region accepts operations only under a current-epoch grant. *)
let serving r ~epoch = r.granted_epoch = epoch

let write_async t ~from ~region ~reg value =
  Stats.incr_writes t.stats;
  operation t ~span_name:"mem.write" ~from ~cls:`Write (fun () ->
      let ok =
        match lookup_region t region with
        | None -> false
        | Some r ->
            serving r ~epoch:t.epoch
            && owns t r reg
            && Permission.can_write r.perm from
      in
      emit t (Event.Mem_write { pid = from; mid = t.mid; region; reg; value; ok });
      if ok then
        (Ack, Some (fun () -> Hashtbl.replace t.store reg (t.epoch, Some value)))
      else (Nak, None))

let read_async t ~from ~region ~reg =
  Stats.incr_reads t.stats;
  operation t ~span_name:"mem.read" ~from ~cls:`Read (fun () ->
      let ok, value =
        match lookup_region t region with
        | Some r
          when serving r ~epoch:t.epoch
               && owns t r reg
               && Permission.can_read r.perm from ->
            let stamp, v = slot t r reg in
            (stamp = t.epoch, v)
        | Some _ | None -> (false, None)
      in
      emit t (Event.Mem_read { pid = from; mid = t.mid; region; reg; ok });
      ((if ok then Read value else Read_nak), None))

(* Batched read of several registers of one region in a single operation —
   an RDMA read of a contiguous slot array (Section 7).  Results are in
   request order; the whole batch naks if any register is outside the
   region, the caller lacks read permission, or any register is stale
   (lost in a restart and not yet repaired). *)
type read_many_result = Read_many of string option array | Read_many_nak

let read_many_async t ~from ~region ~regs =
  Stats.incr_reads t.stats;
  operation t ~span_name:"mem.read_many" ~from ~cls:`Read (fun () ->
      let count = List.length regs in
      let values = Array.make count None in
      (* fills [values] from [i] on; false at the first register outside
         the region or stale *)
      let rec fill r i = function
        | [] -> true
        | reg :: rest -> (
            owns t r reg
            &&
            match slot t r reg with
            | stamp, v when stamp = t.epoch ->
                values.(i) <- v;
                fill r (i + 1) rest
            | _ -> false)
      in
      let ok =
        match lookup_region t region with
        | None -> false
        | Some r ->
            serving r ~epoch:t.epoch
            && Permission.can_read r.perm from
            && fill r 0 regs
      in
      emit t
        (Event.Mem_read_many { pid = from; mid = t.mid; region; count; ok });
      ((if ok then Read_many values else Read_many_nak), None))

(* Batched write of several registers of one region in a single operation
   — the write-side sibling of [read_many_async], an RDMA write of a
   contiguous array.  [None] stores ⊥ (a write of zeroes).  Every named
   register is stamped with the current epoch, which is what makes this
   the state-transfer primitive: installing a snapshot repairs the whole
   region in one two-delay operation. *)
let write_many_async t ~from ~region ~values =
  Stats.incr_writes t.stats;
  operation t ~span_name:"mem.write_many" ~from ~cls:`Write (fun () ->
      let ok =
        match lookup_region t region with
        | None -> false
        | Some r ->
            serving r ~epoch:t.epoch
            && Permission.can_write r.perm from
            && List.for_all (fun (reg, _) -> owns t r reg) values
      in
      emit t
        (Event.Mem_write_many
           { pid = from; mid = t.mid; region; count = List.length values; ok });
      if ok then
        ( Ack,
          Some
            (fun () ->
              List.iter
                (fun (reg, v) -> Hashtbl.replace t.store reg (t.epoch, v))
                values) )
      else (Nak, None))

(* changePermission (Section 3): the memory evaluates legalChange on
   arrival; an illegal request silently becomes a no-op (the paper's
   semantics), but we report whether it was applied for observability.
   After a restart the pre-crash grant is forgotten, so legalChange is
   shown [Permission.none] as the current state — the rejoin protocol:
   whatever the policy allows from nothing is what a recovering memory
   may grant, and nothing else. *)
let change_permission_async t ~from ~region ~perm =
  Stats.incr_perm_changes t.stats;
  operation t ~span_name:"mem.perm" ~from ~cls:`Control (fun () ->
      let applied =
        match lookup_region t region with
        | None -> false
        | Some r ->
            let current =
              if serving r ~epoch:t.epoch then r.perm else Permission.none
            in
            if t.legal_change ~pid:from ~region ~current ~requested:perm
            then begin
              r.perm <- perm;
              r.granted_epoch <- t.epoch;
              true
            end
            else false
      in
      emit t (Event.Mem_perm { pid = from; mid = t.mid; region; applied });
      ((if applied then Ack else Nak), None))

(* Explicit flush (the RDMA FLUSH / read-after-write fence): the result
   arrives only once every operation this process issued to this memory
   before the fence has been applied.  Free under [Strict] — no engine
   event, no span, no counter — so algorithms may fence unconditionally
   without perturbing strict-mode benchmarks or perf baselines. *)
let fence_async t ~from =
  match t.ordering with
  | Ordering.Strict -> Ivar.full Ack
  | Ordering.Completion_lag _ | Ordering.Reorder_qp _ ->
      operation t ~span_name:"mem.fence" ~from ~cls:`Fence (fun () ->
          emit t (Event.Mem_fence { pid = from; mid = t.mid });
          (Ack, None))
