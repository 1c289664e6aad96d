(** HMAC-SHA256 (RFC 2104). *)

(** A key with its inner and outer pads already hashed.  Build it once
    and MAC many messages under it with {!mac_keyed}. *)
type keyed

val keyed : string -> keyed

(** [mac_keyed (keyed key) message = mac ~key message]. *)
val mac_keyed : keyed -> string -> string

(** [mac ~key message] is the 32-byte MAC. *)
val mac : key:string -> string -> string

val mac_hex : key:string -> string -> string

(** Timing-safe digest comparison. *)
val equal : string -> string -> bool
