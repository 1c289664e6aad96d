(* The paper's signature primitives: sign(v) and sValid(p, v) (Section 3).

   Simulated unforgeability: each process receives a [signer] capability
   holding its own secret; the per-process secrets live only inside this
   module, so a Byzantine *program* in the simulation can sign only as
   itself.  Verification goes through the shared [t], which exposes no
   secrets.  Tags are HMAC-SHA256 over (signer id, payload). *)

type t = {
  keys : Hmac.keyed Lazy.t array;
      (* per-pid secret with its HMAC pads hashed on first use, so a
         cluster that never signs hashes no pads *)
  memo : (int * string * string, bool) Hashtbl.t;
      (* verdict per full (author, payload, tag), compared structurally:
         a hit is exactly the verdict the HMAC would give.  Per keychain,
         i.e. per cluster, so separate runs never share verdicts. *)
  mutable on_sign : int -> unit; (* receives the signer's pid *)
  mutable on_verify : ok:bool -> unit; (* receives the verdict *)
}

type signer = { pid : int; chain : t }

type signature = { author : int; tag : string }

let create ?(seed = 42) ~n () =
  let keys =
    Array.init n (fun i ->
        let secret = Sha256.digest_string (Printf.sprintf "secret-%d-%d" seed i) in
        lazy (Hmac.keyed secret))
  in
  { keys; memo = Hashtbl.create 64; on_sign = (fun _ -> ()); on_verify = (fun ~ok:_ -> ()) }

let set_hooks t ~on_sign ~on_verify =
  t.on_sign <- on_sign;
  t.on_verify <- on_verify

let signer t pid =
  if pid < 0 || pid >= Array.length t.keys then
    invalid_arg "Keychain.signer: no such process";
  { pid; chain = t }

let signer_id s = s.pid

let payload_key author payload = Printf.sprintf "%d|%s" author payload

let tag_for t pid payload =
  Hmac.mac_keyed (Lazy.force t.keys.(pid)) (payload_key pid payload)

(* [sign]/[valid] are synchronous (no engine suspension inside), so a
   profiler scope here is a legal work-attribution frame: the SHA-256
   blocks of the HMAC land under crypto.sign / crypto.verify. *)
let sign signer payload =
  let chain = signer.chain in
  Rdma_obs.Prof.scope "crypto.sign" (fun () ->
      Rdma_obs.Prof.bump "crypto.signs" 1;
      chain.on_sign signer.pid;
      { author = signer.pid; tag = tag_for chain signer.pid payload })

(* A deliberately bogus signature claiming authorship by [author]; used by
   Byzantine behaviours in tests.  Verification rejects it (with
   overwhelming probability in the real world; with certainty here unless
   the forger guessed the HMAC). *)
let forge ~author payload =
  { author; tag = Hmac.mac ~key:"forged" (payload_key author payload) }

(* [crypto.verifies], [on_verify] and the verdict are per logical call;
   [crypto.verifies.cached] counts the calls the memo answered.  An
   author outside [0, n) (a Byzantine-written id) has no key: invalid. *)
let valid t ~author payload signature =
  Rdma_obs.Prof.scope "crypto.verify" (fun () ->
      Rdma_obs.Prof.bump "crypto.verifies" 1;
      let ok =
        signature.author = author
        && author >= 0
        && author < Array.length t.keys
        &&
        let entry = (author, payload, signature.tag) in
        match Hashtbl.find_opt t.memo entry with
        | Some ok ->
            Rdma_obs.Prof.bump "crypto.verifies.cached" 1;
            ok
        | None ->
            let ok = Hmac.equal signature.tag (tag_for t author payload) in
            Hashtbl.add t.memo entry ok;
            ok
      in
      t.on_verify ~ok;
      ok)

(* sValid(p, v) where the signature carries its claimed author. *)
let s_valid t payload signature = valid t ~author:signature.author payload signature

let author signature = signature.author

let tag_hex signature = Sha256.to_hex signature.tag

(* Wire encoding, so signatures can be embedded in signed histories. *)
let encode s = Printf.sprintf "%d:%s" s.author (Sha256.to_hex s.tag)

let decode str =
  match String.index_opt str ':' with
  | None -> None
  | Some i -> (
      let author = int_of_string_opt (String.sub str 0 i) in
      let hex = String.sub str (i + 1) (String.length str - i - 1) in
      match author with
      | None -> None
      | Some author ->
          if String.length hex <> 64 then None
          else
            let unhex c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | _ -> raise Exit
            in
            (try
               let tag =
                 String.init 32 (fun j ->
                     Char.chr ((unhex hex.[2 * j] lsl 4) lor unhex hex.[(2 * j) + 1]))
               in
               Some { author; tag }
             with Exit -> None))
