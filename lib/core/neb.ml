(* Non-equivocating broadcast (Algorithm 2).

   Each process p owns an SWMR region holding slots[p, k, q]: p's copy of
   the k-th message of q.  To broadcast its k-th message, p writes a
   signed (k, m) into slots[p, k, p].  To deliver q's k-th message, p:
   (1) reads slots[q, k, q]; retries later if ⊥, unsigned, or mis-keyed;
   (2) copies the value into its own slots[p, k, q];
   (3) reads slots[i, k, q] of every process i, and delivers only if each
       is either ⊥ or the same value — a different validly-signed copy
       proves q equivocated, and q's message is never delivered.

   Slots are replicated over the m ≥ 2fM + 1 crash-prone memories with
   the Section 4.1 SWMR construction (module Swmr), which also defeats
   memory-level equivocation: a writer that plants different values on
   different replicas reads back as ⊥.

   Properties (Definition 1), each exercised in the tests:
   1. a correct broadcaster's messages are eventually delivered by every
      correct process;
   2. no two correct processes deliver different k-th messages from the
      same sender;
   3. delivery implies the (correct) sender broadcast exactly that
      message. *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto
open Rdma_reg

(* [ns] namespaces a protocol instance: every region and signature is
   tagged with it, so several instances (e.g. the slots of a replicated
   log) can coexist on the same memories without cross-talk or
   cross-instance signature replay. *)
let region_of ?(ns = "") p = Printf.sprintf "%sneb.%d" ns p

(* "<ns>s.<owner>." : the prefix every slot of [owner]'s region shares *)
let slot_prefix ~ns ~owner = String.concat "" [ ns; "s."; string_of_int owner; "." ]

(* "<ns>s.<owner>.<k>.<src>"; pollers read the names the decode board
   below keeps, built once per slot *)
let slot_reg_ns ~ns ~owner ~k ~src =
  String.concat "" [ slot_prefix ~ns ~owner; string_of_int k; "."; string_of_int src ]

let slot_reg ~owner ~k ~src = slot_reg_ns ~ns:"" ~owner ~k ~src

(* Region layout: every process needs max_seq * n slots, slots[p, k, src]
   for 1 <= k <= max_seq and 0 <= src < n.  [max_seq] bounds how many
   messages each process may broadcast in this instance (the paper's
   algorithm is unbounded; a simulation instance pre-allocates).  Each
   region is declared by that rule and bound, as one register family,
   rather than name by name. *)
let setup_regions cluster ?(ns = "") ~max_seq () =
  let n = Cluster.n cluster in
  for p = 0 to n - 1 do
    Cluster.add_family_everywhere cluster ~name:(region_of ~ns p)
      ~perm:(Rdma_mem.Permission.swmr ~writer:p ~n)
      { Rdma_mem.Memory.prefix = slot_prefix ~ns ~owner:p; rows = max_seq; cols = n }
  done

let slot_payload ?(ns = "") ~k msg = Codec.join3 ns (Codec.int_field k) msg

let encode_slot ~k ~msg ~signature =
  Codec.join3 (Codec.int_field k) msg (Keychain.encode signature)

let decode_slot s =
  match Codec.split3 s with
  | None -> None
  | Some (kf, msg, sig_enc) -> (
      match (Codec.int_of_field kf, Keychain.decode sig_enc) with
      | Some k, Some signature -> Some (k, msg, signature)
      | _ -> None)

(* {2 The decode board}

   Every correct process polls every sender's slots, so each value
   written is read by all n of them.  The board, one per cluster and
   namespace, does the per-write work once: for each slot (src, k) it
   keeps the slots' register names and, per copy, the bytes last read
   there with their decoding and signed payload.  A reader reuses an
   entry only when the bytes it just read are [String.equal] to the
   cached ones — physically the same string in the common case, since
   the memories hand every reader the writer's string — so a hit
   returns exactly what decoding those bytes would.  Only [decoded]
   fills a cell, from the bytes themselves, and the board is reached
   through a key no other module holds, so no program can plant an
   entry.  Signature checks are not cached here: [Keychain.valid] still
   runs once per logical verify. *)

type decoded = {
  key : int;
  msg : string;
  signature : Keychain.signature;
  payload : string; (* [slot_payload ~ns ~k:key msg], what it signs *)
}

(* [value] is [decode_slot bytes], payload added; [decode_slot ""] is
   [None], which makes a blank cell consistent *)
type cell = { mutable bytes : string; mutable value : decoded option }

type entry = {
  regs : string array; (* regs.(owner) names slots[owner, k, src] *)
  cells : cell array; (* cells.(owner): the copy last read there *)
}

type board = {
  board_ns : string;
  board_n : int;
  entries : (int * int, entry) Hashtbl.t; (* by (src, k), made on first use *)
}

let board_key : board Cluster.shared_key = Cluster.shared_key ()

let board (ctx : _ Cluster.ctx) ~ns =
  let n = ctx.Cluster.cluster_n in
  Cluster.shared ctx.Cluster.ctx_shared board_key ~name:ns (fun () ->
      { board_ns = ns; board_n = n; entries = Hashtbl.create 64 })

let entry b ~src ~k =
  match Hashtbl.find_opt b.entries (src, k) with
  | Some e -> e
  | None ->
      let e =
        {
          regs =
            Array.init b.board_n (fun owner -> slot_reg_ns ~ns:b.board_ns ~owner ~k ~src);
          cells = Array.init b.board_n (fun _ -> { bytes = ""; value = None });
        }
      in
      Hashtbl.add b.entries (src, k) e;
      e

let decoded b cell raw =
  if not (String.equal cell.bytes raw) then begin
    cell.value <-
      Option.map
        (fun (key, msg, signature) ->
          { key; msg; signature; payload = slot_payload ~ns:b.board_ns ~k:key msg })
        (decode_slot raw);
    cell.bytes <- raw
  end;
  cell.value

type config = {
  ns : string; (* instance namespace; "" for standalone use *)
  max_seq : int;
  poll_interval : float;
  give_up_at : float; (* virtual time after which the poller stops *)
}

let default_config = { ns = ""; max_seq = 64; poll_interval = 2.0; give_up_at = 3000.0 }

type t = {
  me : int;
  n : int;
  engine : Engine.t;
  chain : Keychain.t;
  signer : Keychain.signer;
  cfg : config;
  board : board; (* this cluster's, for [cfg.ns] *)
  own : Swmr.handle; (* my region *)
  regions : Swmr.handle array; (* everyone's region, readable by me *)
  deliver : k:int -> msg:string -> src:int -> unit;
  last : int array; (* per sender: last delivered sequence number *)
  convicted : bool array; (* proven equivocators: never delivered again *)
  mutable next_k : int;
  mutable stopped : bool;
}

let create (ctx : _ Cluster.ctx) ?(cfg = default_config) ~deliver () =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let regions =
    Array.init n (fun p ->
        Swmr.attach ~client:ctx.Cluster.client ~region:(region_of ~ns:cfg.ns p))
  in
  {
    me;
    n;
    engine = ctx.Cluster.ctx_engine;
    chain = ctx.Cluster.chain;
    signer = ctx.Cluster.signer;
    cfg;
    board = board ctx ~ns:cfg.ns;
    own = regions.(me);
    regions;
    deliver;
    last = Array.make n 0;
    convicted = Array.make n false;
    next_k = 0;
    stopped = false;
  }

let stop t = t.stopped <- true

(* broadcast(k, m): write sign((k, m)) into slots[me, k, me].  Blocking
   (one replicated write = 2 delays); sequence numbers auto-increment. *)
let broadcast t msg =
  t.next_k <- t.next_k + 1;
  let k = t.next_k in
  if k > t.cfg.max_seq then invalid_arg "Neb.broadcast: max_seq exhausted";
  let signature = Keychain.sign t.signer (slot_payload ~ns:t.cfg.ns ~k msg) in
  ignore
    (Swmr.write t.own
       ~reg:(entry t.board ~src:t.me ~k).regs.(t.me)
       (encode_slot ~k ~msg ~signature))

(* One delivery attempt for the next message of [src] (try_deliver in
   Algorithm 2).  Returns true if something was delivered. *)
let try_deliver t src =
  let k = t.last.(src) + 1 in
  if k > t.cfg.max_seq || t.convicted.(src) then false
  else begin
    let e = entry t.board ~src ~k in
    match Swmr.read t.regions.(src) ~reg:e.regs.(src) with
    | None -> false (* src has not written (or replicas disagree); retry *)
    | Some raw -> (
        match decoded t.board e.cells.(src) raw with
        | None -> false (* garbage: src is Byzantine; retry later *)
        | Some d ->
            if d.key <> k || not (Keychain.valid t.chain ~author:src d.payload d.signature)
            then false
            else begin
              (* copy to our own slot, then cross-check every copy *)
              ignore (Swmr.write t.own ~reg:e.regs.(t.me) raw);
              let conflict = ref false in
              for i = 0 to t.n - 1 do
                if not !conflict then
                  match Swmr.read t.regions.(i) ~reg:e.regs.(i) with
                  | None -> ()
                  | Some other when String.equal other raw -> ()
                  | Some other -> (
                      (* Compare decoded values, not bytes: a Byzantine i
                         can re-encode src's own (k, msg, sig) with a
                         non-canonical k ("01", "+1") — same value, so no
                         conflict (Algorithm 2: "a different value"). *)
                      match decoded t.board e.cells.(i) other with
                      | Some o
                        when o.key = k
                             && (not (String.equal o.msg d.msg))
                             && Keychain.valid t.chain ~author:src o.payload o.signature ->
                          (* a validly-signed different copy: src signed two
                             different k-th messages — equivocation *)
                          conflict := true
                      | _ -> () (* same value, or unsigned noise: ignore *))
              done;
              if !conflict then begin
                t.convicted.(src) <- true;
                false
              end
              else begin
                t.deliver ~k ~msg:d.msg ~src;
                t.last.(src) <- k;
                true
              end
            end)
  end

(* The delivery daemon: round-robin try_deliver until stopped. *)
let poller t =
  while
    (not t.stopped)
    && Engine.now t.engine < t.cfg.give_up_at
  do
    let delivered_any = ref false in
    for src = 0 to t.n - 1 do
      if not t.stopped then
        while (not t.stopped) && try_deliver t src do
          delivered_any := true
        done
    done;
    if not !delivered_any then Engine.sleep t.cfg.poll_interval
  done

let spawn_poller (ctx : _ Cluster.ctx) t =
  ctx.Cluster.spawn_sub "neb.poller" (fun () -> poller t)
