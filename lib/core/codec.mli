(** Canonical wire encoding: '|'-joined, percent-escaped fields.  Any byte
    sequence round trips; encodings are canonical. *)

val escape : string -> string

val unescape : string -> string

val join : string list -> string

val split : string -> string list

(** [append (join fields) f = join (fields @ [f])]. *)
val append : string -> string -> string

(** [after ~prefix s] is the encoding of the fields [s] has beyond
    [prefix]'s, when [s]'s bytes are [prefix]'s followed by more fields:
    [Some rest] with [split s = split prefix @ split rest], for a
    [prefix] that {!join} produced.  [None] otherwise (a re-encoded or
    different [s] may still decode to a longer list). *)
val after : prefix:string -> string -> string option

val join2 : string -> string -> string

val join3 : string -> string -> string -> string

val join4 : string -> string -> string -> string -> string

val split2 : string -> (string * string) option

val split3 : string -> (string * string * string) option

val split4 : string -> (string * string * string * string) option

val int_field : int -> string

val int_of_field : string -> int option
