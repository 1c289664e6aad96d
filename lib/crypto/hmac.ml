(* HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors. *)

let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest_string key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\x00'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

(* The hash states after absorbing the inner and outer key pads.  Each
   is exactly one block, so a MAC under a reused [keyed] key skips 2 of
   its compressions. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let pad_state key byte =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (xor_pad key byte);
  ctx

let keyed key =
  let key = normalize_key key in
  { inner = pad_state key 0x36; outer = pad_state key 0x5c }

let mac_keyed k message =
  Rdma_obs.Prof.bump "hmac.macs" 1;
  let inner = Sha256.copy k.inner in
  Sha256.feed_string inner message;
  let outer = Sha256.copy k.outer in
  Sha256.feed_string outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key message = mac_keyed (keyed key) message

let mac_hex ~key message = Sha256.to_hex (mac ~key message)

(* Constant-time-style comparison; not security-critical in a simulation
   but cheap to do right. *)
let equal a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
  !diff = 0
