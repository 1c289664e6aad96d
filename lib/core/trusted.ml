(* Trusted message passing: T-send / T-receive (Algorithm 3, after
   Clement et al. [20]).

   Every T-sent message travels by non-equivocating broadcast together
   with the sender's *full history*, and receivers check that the history
   (a) is signed where it cites other processes, (b) extends the history
   the sender previously presented, and (c) together with the new message
   conforms to the protocol being run (a pluggable validator — the
   state-machine replay of Clement et al.).  A process that passes these
   checks forever can deviate from the protocol only by stopping — its
   Byzantine failure has been translated into a crash failure.

   Representation: history entries are flat records.  A Sent entry needs
   no signature of its own (the entire (k, (m, H)) broadcast is signed by
   the sender through NEB); a Received entry cites the original sender's
   *bare* signature on (k, m), which every process can verify standalone.
   To let receivers verify those citations, T-send attaches a bare
   signature alongside the NEB-signed payload.

   Checking is incremental: a history must extend the one its sender
   presented last, so a receiver keeps, per sender, the encoding the
   next history must start with, and checks only the entries beyond it.
   Each entry is decoded, its citation verified and the validator fed it
   once per sender, not once per delivery. *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto

type entry =
  | Sent of { k : int; msg : string }
  | Received of { src : int; k : int; msg : string; sig_enc : string }

let encode_entry = function
  | Sent { k; msg } -> Codec.join3 "s" (Codec.int_field k) msg
  | Received { src; k; msg; sig_enc } ->
      Codec.join [ "r"; Codec.int_field src; Codec.int_field k; msg; sig_enc ]

let decode_entry s =
  match Codec.split s with
  | [ "s"; kf; msg ] -> Option.map (fun k -> Sent { k; msg }) (Codec.int_of_field kf)
  | [ "r"; srcf; kf; msg; sig_enc ] -> (
      match (Codec.int_of_field srcf, Codec.int_of_field kf) with
      | Some src, Some k -> Some (Received { src; k; msg; sig_enc })
      | _ -> None)
  | _ -> None

let encode_history entries = Codec.join (List.map encode_entry entries)

let decode_history s =
  let fields = Codec.split s in
  let entries = List.filter_map decode_entry fields in
  if List.length entries = List.length fields then Some entries else None

(* The bare signature of (src, k, m) that Received entries cite. *)
let bare_payload ~k msg = Codec.join2 ("bare" ^ Codec.int_field k) msg

(* A validator replays a sender's history to decide whether a correct
   process running the protocol could have produced it.  [validator ~src]
   starts the replay of [src]; it is then fed [src]'s entries oldest
   first, each once, the message being delivered arriving as its [Sent]
   entry.  [`Reject] convicts [src], after which nothing more is fed. *)
type validator = src:int -> entry -> [ `Accept | `Reject ]

let accept_all : validator = fun ~src:_ _ -> `Accept

type config = { neb : Neb.config }

let default_config = { neb = Neb.default_config }

(* {2 The split board}

   Every correct process receives every T-sent payload, so it is split
   n times over.  As in [Neb]'s decode board, one board per cluster and
   namespace keeps, per (src, k), the payload bytes last delivered with
   their split — (m, bare signature, history encoding) — reused only
   while the bytes delivered are [String.equal] to the cached ones, and
   filled only by splitting them.  Citations and signatures are still
   verified per receiver. *)

type split = {
  msg : string;
  sig_enc : string;
  bare_sig : Keychain.signature option; (* [Keychain.decode sig_enc] *)
  hist_enc : string;
}

(* [value] is the split of [bytes]; [Codec.split3 ""] is [None] *)
type cell = { mutable bytes : string; mutable value : split option }

let split payload =
  Option.map
    (fun (msg, sig_enc, hist_enc) ->
      { msg; sig_enc; bare_sig = Keychain.decode sig_enc; hist_enc })
    (Codec.split3 payload)

type board = (int * int, cell) Hashtbl.t

let board_key : board Cluster.shared_key = Cluster.shared_key ()

let cached_split (b : board) ~src ~k payload =
  let cell =
    match Hashtbl.find_opt b (src, k) with
    | Some cell -> cell
    | None ->
        let cell = { bytes = ""; value = None } in
        Hashtbl.add b (src, k) cell;
        cell
  in
  if not (String.equal cell.bytes payload) then begin
    cell.value <- split payload;
    cell.bytes <- payload
  end;
  cell.value

type t = {
  me : int;
  n : int;
  chain : Keychain.t;
  signer : Keychain.signer;
  stats : Stats.t;
  neb : Neb.t;
  board : board; (* this cluster's, for the NEB namespace *)
  on_receive : src:int -> msg:string -> unit;
  mutable history : entry list; (* newest first *)
  mutable history_enc : string; (* [encode_history (List.rev history)] *)
  mutable sends : int; (* Sent entries in [history] *)
  (* per peer: the encoding its next history must start with — the
     history it presented with its last delivered message plus that
     message's Sent entry ("" before the first) *)
  expected : string array;
  (* per peer: the validator's replay, fed up to [expected] *)
  replays : (entry -> [ `Accept | `Reject ]) array;
  convicted : bool array;
}

(* Verify one cited Received entry: the claimed original sender really
   signed (k, m). *)
let cited_signature_ok chain = function
  | Sent _ -> true
  | Received { src; k; msg; sig_enc } -> (
      match Keychain.decode sig_enc with
      | None -> false
      | Some signature ->
          Keychain.author signature = src
          && Keychain.valid chain ~author:src (bare_payload ~k msg) signature)

(* The entries a presented history [hist_enc] adds to [expected], the
   history it must extend (H_prev ++ [Sent (k_prev, m_prev)]).  When its
   bytes start with [expected] only the rest is decoded; otherwise (a
   non-canonical re-encoding, or a history that does not extend) the
   whole of it is decoded and compared entry by entry. *)
let presented ~expected hist_enc =
  let rec strip_prefix prefix rest =
    match (prefix, rest) with
    | [], rest -> Some rest
    | p :: ps, r :: rs when p = r -> strip_prefix ps rs
    | _ -> None
  in
  match Codec.after ~prefix:expected hist_enc with
  | Some rest -> (
      match decode_history rest with
      | Some added -> `Extends added
      | None -> `Garbled)
  | None -> (
      match (decode_history expected, decode_history hist_enc) with
      | _, None -> `Garbled
      | Some prefix, Some history -> (
          match strip_prefix prefix history with
          | Some added -> `Extends added
          | None -> `Diverges)
      | None, Some _ -> `Diverges (* unreachable: [expected] is an encoding *))

(* Append [entry] to our own history, keeping its encoding in step. *)
let record t entry =
  t.history <- entry :: t.history;
  t.history_enc <- Codec.append t.history_enc (encode_entry entry)

(* Called by the NEB deliver hook: k-th message of [src] with payload
   (m, bare signature, history).  The history must extend the expected
   prefix with Received entries only (between two sends, a correct
   process only receives), each citing a valid signature, and the
   validator must accept those entries and then the message itself. *)
let handle_delivery t ~k ~payload ~src =
  if not t.convicted.(src) then begin
    match cached_split t.board ~src ~k payload with
    | None -> t.convicted.(src) <- true
    | Some { msg; sig_enc; bare_sig; hist_enc } -> (
        match (bare_sig, presented ~expected:t.expected.(src) hist_enc) with
        | None, _ | _, `Garbled -> t.convicted.(src) <- true
        | Some bare_sig, ((`Diverges | `Extends _) as presented) ->
            let sent = Sent { k; msg } in
            let accepts entry = t.replays.(src) entry = `Accept in
            let checks =
              Keychain.valid t.chain ~author:src (bare_payload ~k msg) bare_sig
              &&
              match presented with
              | `Diverges -> false
              | `Extends added ->
                  List.for_all (cited_signature_ok t.chain) added
                  && List.for_all
                       (function Received _ -> true | Sent _ -> false)
                       added
                  && List.for_all accepts added
                  && accepts sent
            in
            if not checks then t.convicted.(src) <- true
            else begin
              t.expected.(src) <- Codec.append hist_enc (encode_entry sent);
              (* T-receive(m, src): record it in our own history and hand
                 the message to the application. *)
              record t (Received { src; k; msg; sig_enc });
              t.on_receive ~src ~msg
            end)
  end

let create (ctx : _ Cluster.ctx) ?(cfg = default_config) ?(validator = accept_all)
    ~on_receive () =
  let n = ctx.Cluster.cluster_n in
  let rec t =
    lazy
      {
        me = ctx.Cluster.pid;
        n;
        chain = ctx.Cluster.chain;
        signer = ctx.Cluster.signer;
        stats = ctx.Cluster.ctx_stats;
        board =
          Cluster.shared ctx.Cluster.ctx_shared board_key ~name:cfg.neb.Neb.ns (fun () ->
              Hashtbl.create 64);
        neb =
          Neb.create ctx ~cfg:cfg.neb
            ~deliver:(fun ~k ~msg ~src ->
              handle_delivery (Lazy.force t) ~k ~payload:msg ~src)
            ();
        on_receive;
        history = [];
        history_enc = "";
        sends = 0;
        expected = Array.make n "";
        replays = Array.init n (fun src -> validator ~src);
        convicted = Array.make n false;
      }
  in
  let t = Lazy.force t in
  Neb.spawn_poller ctx t.neb;
  t

let stop t = Neb.stop t.neb

let history t = List.rev t.history

let is_convicted t src = t.convicted.(src)

(* T-send(m): broadcast (m, bare signature, full history) and append the
   Sent entry. *)
let t_send t msg =
  (* the pre-send snapshot the broadcast carries *)
  let hist_len = List.length t.history and hist_enc = t.history_enc in
  (* the NEB sequence number: one past the count of our prior broadcasts *)
  t.sends <- t.sends + 1;
  let seq = t.sends in
  (* Append the Sent entry NOW, before the broadcast yields to the
     simulator: Neb.broadcast blocks for the replicated write, and any
     message delivered to us in that window would otherwise be recorded
     ahead of this Sent — making our next presented history fail the
     receivers' extends-check and convicting a correct process.  The
     broadcast itself carries the pre-send snapshot, which is what the
     protocol specifies. *)
  record t (Sent { k = seq; msg });
  let bare_sig = Keychain.sign t.signer (bare_payload ~k:seq msg) in
  let payload = Codec.join3 msg (Keychain.encode bare_sig) hist_enc in
  (* observability: the cost of carrying full histories (the known
     burden of the Clement et al. transform, which motivates the Cheap
     Quorum fast path) *)
  if hist_len > Stats.get t.stats "trusted.max_history_entries" then
    Stats.set t.stats "trusted.max_history_entries" hist_len;
  if String.length payload > Stats.get t.stats "trusted.max_payload_bytes" then
    Stats.set t.stats "trusted.max_payload_bytes" (String.length payload);
  Neb.broadcast t.neb payload
