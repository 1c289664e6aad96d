(** T-send / T-receive (Algorithm 3, after Clement et al.): messages
    travel by non-equivocating broadcast together with the sender's full
    history; receivers verify citations, prefix-consistency, and protocol
    conformance (a pluggable validator).  A sender that passes forever
    can only deviate by stopping — Byzantine is translated to crash. *)

open Rdma_mm

type entry =
  | Sent of { k : int; msg : string }
  | Received of { src : int; k : int; msg : string; sig_enc : string }

val encode_entry : entry -> string

val decode_entry : string -> entry option

val encode_history : entry list -> string

val decode_history : string -> entry list option

(** The bare signature payload of (k, m) that Received entries cite. *)
val bare_payload : k:int -> string -> string

(** The protocol's state-machine replay: could a correct process running
    it have produced the claimed history?  [validator ~src] starts the
    replay of one sender, which the receiver then feeds that sender's
    history entries oldest first, each exactly once, the message being
    delivered arriving last as its [Sent] entry.  [`Reject] convicts the
    sender, after which the replay is fed nothing more. *)
type validator = src:int -> entry -> [ `Accept | `Reject ]

val accept_all : validator

type config = { neb : Neb.config }

val default_config : config

type t

val create :
  'm Cluster.ctx ->
  ?cfg:config ->
  ?validator:validator ->
  on_receive:(src:int -> msg:string -> unit) ->
  unit ->
  t

val stop : t -> unit

(** Own history, oldest first. *)
val history : t -> entry list

(** Whether [src] has been caught deviating (nothing further is ever
    accepted from it). *)
val is_convicted : t -> int -> bool

(** T-send(m): non-equivocating broadcast of (m, bare signature, full
    history). *)
val t_send : t -> string -> unit [@@sim.yields]
