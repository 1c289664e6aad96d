(* The message-passing half of the M&M model (Section 3).

   Directed links between every pair of processes with integrity (a
   message is received at most once and only if sent) and no-loss (every
   message between correct processes is eventually received).  Liveness
   assumptions are modelled with a global stabilization time (GST):
   before GST an adversary may add arbitrary finite delay to any message;
   from GST on, every message takes exactly the base latency — one delay
   unit in the paper's metric.

   A process sends through its [endpoint] capability, which pins the
   sender id: a Byzantine program can send arbitrary *payloads* but only
   under its own identity (links have integrity; there is no spoofing in
   the model). *)

open Rdma_sim
open Rdma_obs

type 'm envelope = { from : int; payload : 'm }

type 'm t = {
  engine : Engine.t;
  stats : Stats.t;
  obs : Obs.t;
  n : int;
  boxes : 'm envelope Mailbox.t array;
  mutable base_latency : src:int -> dst:int -> float;
  mutable gst : float;
  (* Extra delay added to messages sent before GST. *)
  mutable pre_gst_extra : src:int -> dst:int -> now:float -> float;
  mutable partitioned : (int * int) list;
      (* temporarily severed ordered pairs: messages are buffered, not
         dropped (no-loss), and flushed when the partition heals *)
  mutable buffered : (int * int * 'm envelope) list;
}

let create ?(latency = 1.0) ~engine ~stats ~n () =
  {
    engine;
    stats;
    obs = Engine.obs engine;
    n;
    boxes = Array.init n (fun _ -> Mailbox.create ());
    base_latency = (fun ~src:_ ~dst:_ -> latency);
    gst = 0.;
    pre_gst_extra = (fun ~src:_ ~dst:_ ~now:_ -> 0.);
    partitioned = [];
    buffered = [];
  }

let n t = t.n

let set_latency t f = t.base_latency <- f

(* Random per-message latency in [min, max) — drawn by the chaos nemesis:
   with heterogeneous latencies, messages between the same pair of
   processes can overtake each other, which the model allows (links
   guarantee integrity and no-loss, not FIFO).  Draws come from the
   engine's seeded RNG, so runs stay reproducible. *)
let randomize_latency t ~rng ~min:lo ~max:hi =
  if hi <= lo then invalid_arg "Network.randomize_latency: empty range";
  t.base_latency <-
    (fun ~src:_ ~dst:_ -> lo +. Random.State.float rng (hi -. lo))

let set_gst t ~at ~extra =
  t.gst <- at;
  t.pre_gst_extra <- extra

let partition t pairs =
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
        invalid_arg "Network.partition: pid out of range")
    pairs;
  t.partitioned <- pairs @ t.partitioned;
  Obs.event t.obs ~actor:"net"
    (Event.Custom
       {
         name = "net.partition";
         detail =
           String.concat ","
             (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) pairs);
       })

let severed t = t.partitioned

(* Schedule the final delivery leg: the typed deliver event fires at
   arrival time, on the receiver's track, and the link latency feeds the
   [net.latency] histogram. *)
let schedule_delivery t ~src ~dst ~delay env =
  Obs.observe t.obs ~cat:"net" "net.latency" delay;
  Engine.schedule t.engine delay (fun () ->
      Obs.event t.obs
        ~actor:(Printf.sprintf "p%d" dst)
        (Event.Net_deliver { src; dst });
      Mailbox.send t.boxes.(dst) env)

let heal t =
  t.partitioned <- [];
  let pending = List.rev t.buffered in
  t.buffered <- [];
  Obs.event t.obs ~actor:"net"
    (Event.Custom
       { name = "net.heal"; detail = string_of_int (List.length pending) });
  List.iter
    (fun (src, dst, env) ->
      let d = t.base_latency ~src ~dst in
      schedule_delivery t ~src ~dst ~delay:d env)
    pending

let deliver t ~src ~dst payload =
  Stats.incr_messages t.stats;
  Prof.bump "net.msgs.sent" 1;
  Obs.event t.obs ~actor:(Printf.sprintf "p%d" src) (Event.Net_send { src; dst });
  let env = { from = src; payload } in
  if List.mem (src, dst) t.partitioned then t.buffered <- (src, dst, env) :: t.buffered
  else begin
    let now = Engine.now t.engine in
    let extra = if now < t.gst then t.pre_gst_extra ~src ~dst ~now else 0. in
    let d = t.base_latency ~src ~dst +. extra in
    schedule_delivery t ~src ~dst ~delay:d env
  end

type 'm endpoint = { pid : int; net : 'm t }

let endpoint t pid =
  if pid < 0 || pid >= t.n then invalid_arg "Network.endpoint: bad pid";
  { pid; net = t }

let endpoint_pid e = e.pid

let send e ~dst payload = deliver e.net ~src:e.pid ~dst payload

(* Broadcast to all n processes, self included (the paper's algorithms
   count a process's own value uniformly). *)
let broadcast e payload =
  for dst = 0 to e.net.n - 1 do
    send e ~dst payload
  done

let broadcast_others e payload =
  for dst = 0 to e.net.n - 1 do
    if dst <> e.pid then send e ~dst payload
  done

let recv e =
  let env = Mailbox.recv e.net.boxes.(e.pid) in
  (env.from, env.payload)

let recv_timeout e delay =
  match Mailbox.recv_timeout e.net.boxes.(e.pid) delay with
  | None -> None
  | Some env -> Some (env.from, env.payload)

let pending e = Mailbox.length e.net.boxes.(e.pid)
