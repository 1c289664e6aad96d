(* The benchmark's own span recorder.  Spans are opened and closed from
   the benchmark's files around calls into the program's public
   functions; nothing inside lib/ is instrumented.  A disabled recorder
   (the untraced, end-to-end runs) records nothing and reads no clock. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the op-list index the span belongs to *)
  parent : int;  (** [0] for an op's root span *)
  start : float;
  mutable stop : float;
}

type t = {
  on : bool;
  mutable next_id : int;
  mutable op : int;
  mutable open_ : span list;  (* innermost first *)
  mutable closed : span list;  (* newest first *)
}

let create ~on = { on; next_id = 0; op = 0; open_ = []; closed = [] }

let enabled t = t.on

let set_op t op = t.op <- op

let dummy = { id = 0; name = ""; op = 0; parent = 0; start = 0.; stop = 0. }

let open_span t name =
  if not t.on then dummy
  else begin
    t.next_id <- t.next_id + 1;
    let parent = match t.open_ with [] -> 0 | s :: _ -> s.id in
    let start = Rdma_obs.Prof_clock.now () in
    let s = { id = t.next_id; name; op = t.op; parent; start; stop = nan } in
    t.open_ <- s :: t.open_;
    s
  end

(* Spans normally close innermost first; removing by id keeps the open
   stack right when an exception skipped a close. *)
let close t s =
  if t.on then begin
    s.stop <- Rdma_obs.Prof_clock.now ();
    t.open_ <- List.filter (fun o -> o.id <> s.id) t.open_;
    t.closed <- s :: t.closed
  end

let with_span t name f =
  let s = open_span t name in
  Fun.protect ~finally:(fun () -> close t s) f

let spans t = List.rev t.closed

let duration s = s.stop -. s.start

(* Sum of the durations of every span called [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. t.closed

(* The span tree without its times: what must repeat exactly for a
   seed. *)
let shape t = List.map (fun s -> (s.id, s.name, s.op, s.parent)) (spans t)

let to_jsonl oc t =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.op s.parent s.start s.stop)
    (spans t)
