(** SHA-256 (FIPS 180-4), implemented from scratch and validated against
    the NIST example vectors in the test suite. *)

type ctx

val init : unit -> ctx

(** An independent copy of a hash state: feeding or finalizing one
    leaves the other unchanged.  Used to reuse a hashed prefix, e.g. the
    HMAC key pads ({!Hmac.keyed}). *)
val copy : ctx -> ctx

(** Absorb a string into the hash state. *)
val feed_string : ctx -> string -> unit

(** Pad, finish, and return the 32-byte digest.  The context must not be
    reused afterwards. *)
val finalize : ctx -> string

(** One-shot digest (32 raw bytes). *)
val digest_string : string -> string

(** Lowercase hex of a raw digest. *)
val to_hex : string -> string

(** [hex_of_string s = to_hex (digest_string s)]. *)
val hex_of_string : string -> string
