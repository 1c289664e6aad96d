(** The paper's signature primitives, [sign(v)] and [sValid(p, v)]
    (Section 3), with simulated unforgeability: each process holds only its
    own {!signer} capability, and per-process secrets never leave this
    module. *)

type t

(** Capability to sign as one particular process. *)
type signer

type signature

val create : ?seed:int -> n:int -> unit -> t

(** Install counters (used by the cluster to count signatures and
    verifications per run); [on_sign] receives the signer's pid,
    [on_verify] the verification verdict. *)
val set_hooks : t -> on_sign:(int -> unit) -> on_verify:(ok:bool -> unit) -> unit

(** The signing capability of process [pid].  Handed to a process by the
    cluster at registration; honest and Byzantine programs alike can only
    obtain their own. *)
val signer : t -> int -> signer

val signer_id : signer -> int

(** [sign signer v] — the paper's [sign(v)]. *)
val sign : signer -> string -> signature

(** A bogus signature claiming authorship by [author]; for Byzantine test
    behaviours.  Always fails {!valid}. *)
val forge : author:int -> string -> signature

(** [valid t ~author v s] — the paper's [sValid(author, v)].  False for
    an [author] outside [0, n).  Verdicts are memoised per keychain on
    the exact [(author, v, tag)]; every call still counts as one
    [crypto.verifies] and fires [on_verify], and a memo hit also bumps
    [crypto.verifies.cached]. *)
val valid : t -> author:int -> string -> signature -> bool

(** [s_valid t v s] validates [s] against its claimed author. *)
val s_valid : t -> string -> signature -> bool

val author : signature -> int

val tag_hex : signature -> string

val encode : signature -> string

val decode : string -> signature option
