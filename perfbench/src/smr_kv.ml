(* smr-kv: one op is one acknowledged KV command.

   A session is a fresh 3-replica / 3-memory cluster with [clients]
   closed-loop clients.  Each client issues [cmds_per_client] commands,
   exactly half of them [Kv.Set] writes and half linearizable reads, in
   a seeded order over [keys] keys, and waits for each reply (in
   virtual time) before the next.  Sessions alternate the pmp and velos
   engines; in every block of eight, one pmp and one velos session
   crash the leader p0 at [crash_at], and clients retry past the
   failover with (client, seq) dedupe.  The log never fills: with
   dedupe a session appends about one entry per write
   ([clients * cmds_per_client / 2] = 80), well under [max_entries];
   a full log would depose the leader and fail the session's checks. *)

open Rdma_sim
open Rdma_mm
open Rdma_smr

type cmd = Write of string * string | Read

type op = {
  engine : Consensus_engine.engine;
  crash : bool;
  scripts : cmd array array;  (** one command list per client *)
  cluster_seed : int;
}

let replicas = 3

let memories = 3

let clients = 4

let cmds_per_client = 40

let keys = 8

let block = 8

(* Virtual times, in delays. *)
let crash_at = 60.0

let drain = 40.0 (* replicas keep serving this long after the last client *)

let give_up = 1500.0 (* a client still retrying here reports a failure *)

let cfg =
  {
    Consensus_engine.default_config with
    replicas;
    max_entries = 128;
    serve_until = 2000.0;
    checkpoint_every = 16;
    anti_entropy_every = 10.0;
    lease_duration = 20.0;
  }

let gen ~seed ~blocks =
  let rng = Random.State.make [| seed; 0x6b76 |] in
  let script pid =
    let kinds = Array.init cmds_per_client (fun i -> i mod 2 = 0) in
    for i = cmds_per_client - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = kinds.(i) in
      kinds.(i) <- kinds.(j);
      kinds.(j) <- t
    done;
    Array.mapi
      (fun i is_write ->
        if is_write then
          Write
            ( Printf.sprintf "k%d" (Random.State.int rng keys),
              Printf.sprintf "c%d.%d.%08x" pid i (Random.State.bits rng) )
        else Read)
      kinds
  in
  Array.init (blocks * block) (fun s ->
      {
        engine = Engines.get (if s mod 2 = 0 then "pmp" else "velos");
        crash = s mod block = 2 || s mod block = 7;
        scripts = Array.init clients (fun c -> script (replicas + c));
        cluster_seed = Random.State.bits rng;
      })

let run (c : Op.ctx) ~id op =
  let (module E : Consensus_engine.S) = op.engine in
  let sp = c.spans in
  let setup = Spans.open_span sp "setup" in
  let cluster : string Cluster.t =
    Spans.with_span sp "cluster.create" (fun () ->
        Cluster.create ~seed:op.cluster_seed ~legal_change:(E.legal_change cfg)
          ~n:(replicas + clients) ~m:memories ())
  in
  Spans.with_span sp "setup_regions" (fun () -> E.setup_regions cluster cfg);
  let reps =
    Array.init replicas (fun pid ->
        Spans.with_span sp "spawn_replica" (fun () ->
            E.spawn_replica cluster ~cfg ~pid ()))
  in
  let eng = Cluster.engine cluster in
  let leader_changes = ref 0 in
  Consensus_engine.on_leader_change cluster (fun _ -> incr leader_changes);
  let attempts = ref 0 in
  let errors = ref [] in
  let fail what = errors := Printf.sprintf "session %d (%s): %s" id E.name what :: !errors in
  let failed_cmds = ref 0 in
  let fail_cmd what =
    incr failed_cmds;
    fail what
  in
  (* Highest index acknowledged to any client so far: a read issued
     after an ack must see at least that index. *)
  let watermark = ref 0 in
  let acked = ref [] (* (index, key, value) *) in
  let commits = ref [] and reads = ref [] and ack_times = ref [] in
  let finished = ref 0 in
  let completed = ref 0 in
  Array.iteri
    (fun i script ->
      let pid = replicas + i in
      Cluster.spawn cluster ~pid (fun ctx ->
          let rec call f =
            if Engine.now eng > give_up then None
            else begin
              incr attempts;
              match f () with Some r -> Some r | None -> call f
            end
          in
          Array.iteri
            (fun seq cmd ->
              let t0 = Engine.now eng in
              match cmd with
              | Write (k, v) -> (
                  let cmd = Kv.encode_command (Kv.Set (k, v)) in
                  match call (fun () -> E.submit ctx ~cfg ~seq ~cmd ~timeout:30.0) with
                  | Some index ->
                      let now = Engine.now eng in
                      acked := (index, k, v) :: !acked;
                      watermark := max !watermark index;
                      commits := (now -. t0) :: !commits;
                      ack_times := now :: !ack_times;
                      incr completed
                  | None -> fail_cmd (Printf.sprintf "p%d gave up on write %d" pid seq))
              | Read -> (
                  let floor = !watermark in
                  match
                    call (fun () ->
                        E.linearizable_read ctx ~cfg ~seq:(100_000 + seq) ~timeout:30.0)
                  with
                  | Some up_to ->
                      let now = Engine.now eng in
                      if up_to < floor then
                        fail_cmd
                          (Printf.sprintf "p%d read %d saw index %d after %d was acked"
                             pid seq up_to floor)
                      else incr completed;
                      reads := (now -. t0) :: !reads;
                      ack_times := now :: !ack_times
                  | None -> fail_cmd (Printf.sprintf "p%d gave up on read %d" pid seq)))
            script;
          incr finished;
          if !finished = clients then
            Engine.schedule eng drain (fun () -> Array.iter E.stop reps)))
    op.scripts;
  Spans.close sp setup;
  Op.capture c cluster;
  if op.crash then Cluster.crash_process_at cluster ~at:crash_at 0;
  Spans.with_span sp "cluster.run" (fun () -> Cluster.run cluster);
  Spans.with_span sp "check" @@ fun () ->
  Cluster.check_errors cluster;
  let units = clients * cmds_per_client in
  let survivors =
    List.filter (fun pid -> not (Cluster.is_crashed cluster pid)) (List.init replicas Fun.id)
  in
  let command_errors = List.length !errors in
  let logs = List.map (fun pid -> E.applied_entries reps.(pid)) survivors in
  (match logs with
  | l :: rest when List.for_all (( = ) l) rest ->
      let at = Hashtbl.create 128 in
      List.iter (fun (index, cmd) -> Hashtbl.replace at index cmd) l;
      List.iter
        (fun (index, k, v) ->
          if Hashtbl.find_opt at index <> Some (Kv.encode_command (Kv.Set (k, v))) then
            fail (Printf.sprintf "acked write %s=%s is not at its index %d" k v index))
        !acked
  | _ -> fail "surviving replicas' applied logs differ");
  let acked = List.sort compare !acked in
  let indexes = List.map (fun (index, _, _) -> index) acked in
  if List.length (List.sort_uniq compare indexes) <> List.length indexes then
    fail "two writes were acked at the same index";
  let expected = Kv.create () in
  List.iter (fun (_, k, v) -> Kv.apply expected (Kv.Set (k, v))) acked;
  List.iter
    (fun pid ->
      let got =
        Kv.of_replica (Consensus_engine.Running ((module E), reps.(pid)))
      in
      if Kv.bindings got <> Kv.bindings expected then
        fail (Printf.sprintf "replica %d's store differs from the acked writes" pid))
    survivors;
  (* A session-wide check that fails counts every command as failed. *)
  let session_ok =
    List.length !errors = command_errors && !completed + !failed_cmds = units
  in
  let gap =
    if not op.crash then []
    else
      match
        List.filter (fun t -> t > crash_at +. 1.0) !ack_times |> List.sort compare
      with
      | t :: _ -> [ t -. crash_at ]
      | [] -> []
  in
  {
    Op.units;
    failed = (if session_ok then !failed_cmds else units);
    errors = List.rev !errors;
    samples =
      [
        ("op_delays", List.rev_append !commits !reads);
        (E.name ^ ".commit_delays", !commits);
        (E.name ^ ".read_delays", !reads);
        (E.name ^ ".failover_gap", gap);
      ];
    counts = [ ("attempts", !attempts); ("leader_changes", !leader_changes); ("sessions", 1) ];
  }

let spec =
  {
    Op.name = "smr-kv";
    unit_name = "commands";
    blocks = 20;
    gen;
    run;
    primary = "op_delays";
  }
