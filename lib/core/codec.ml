(* Canonical wire encoding for register contents and signed payloads.

   Register values and signed messages travel as strings.  Fields are
   joined with '|' after percent-escaping, so any byte sequence round
   trips and signed payloads are canonical (no two field lists share an
   encoding). *)

(* The empty field escapes to "%e" so that the empty *list* can own the
   empty encoding: join [] = "" and join [""] = "%e" stay distinct.

   Both directions are on the Byzantine hot path (every slot read and
   signed payload, with histories nested inside each other), so each
   writes its output once into one buffer sized from its input, copying
   runs of plain bytes with a blit, and returns its input unchanged when
   there is nothing to rewrite. *)

let specials s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    match s.[i] with '|' | '%' -> incr n | _ -> ()
  done;
  !n

(* Length of [escape s] given [specials s]. *)
let escaped_length s ~specials = if s = "" then 2 else String.length s + (2 * specials)

(* Write [escape s] into [out] at [j]; returns the index after it.  Runs
   of plain bytes are copied with one blit each. *)
let blit_escaped s out j =
  if s = "" then begin
    Bytes.blit_string "%e" 0 out j 2;
    j + 2
  end
  else begin
    let j = ref j and run = ref 0 in
    let flush upto =
      Bytes.blit_string s !run out !j (upto - !run);
      j := !j + (upto - !run)
    in
    for i = 0 to String.length s - 1 do
      match s.[i] with
      | ('|' | '%') as c ->
          flush i;
          Bytes.blit_string (if c = '|' then "%7c" else "%25") 0 out !j 3;
          j := !j + 3;
          run := i + 1
      | _ -> ()
    done;
    flush (String.length s);
    !j
  end

let escape s =
  if s = "" then "%e"
  else
    match specials s with
    | 0 -> s
    | specials ->
        let out = Bytes.create (escaped_length s ~specials) in
        ignore (blit_escaped s out 0);
        Bytes.unsafe_to_string out

(* Decoding reads a field [s.[start] .. s.[stop - 1]] in place, so
   [split] never copies a field out before unescaping it.  Only the two
   escapes [escape] emits decode; any other '%' (or a "%7"/"%2" cut short
   by the end of the field) is a literal byte. *)

let rec next_percent s i stop =
  if i >= stop then stop else if s.[i] = '%' then i else next_percent s (i + 1) stop

(* The byte the '%' at [p] stands for, if it starts an escape. *)
let escape_at s p stop =
  if p + 2 >= stop then None
  else
    match (s.[p + 1], s.[p + 2]) with
    | '7', 'c' -> Some '|'
    | '2', '5' -> Some '%'
    | _ -> None

let unescape_field s start stop =
  if stop - start = 2 && s.[start] = '%' && s.[start + 1] = 'e' then ""
  else
    match next_percent s start stop with
    | p when p = stop ->
        if start = 0 && stop = String.length s then s
        else String.sub s start (stop - start)
    | first ->
        (* escapes only shrink: the field's length bounds the output *)
        let out = Bytes.create (stop - start) in
        let rec fill i j p =
          Bytes.blit_string s i out j (p - i);
          let j = j + (p - i) in
          if p = stop then j
          else
            match escape_at s p stop with
            | Some c ->
                Bytes.set out j c;
                fill (p + 3) (j + 1) (next_percent s (p + 3) stop)
            | None ->
                Bytes.set out j '%';
                fill (p + 1) (j + 1) (next_percent s (p + 1) stop)
        in
        let j = fill start 0 first in
        if j = stop - start then Bytes.unsafe_to_string out else Bytes.sub_string out 0 j

let unescape s = unescape_field s 0 (String.length s)

(* [String.concat "|" (List.map escape fields)], escaping each field
   straight into the one output buffer. *)
let join = function
  | [] -> ""
  | fields ->
      let counted = List.map (fun f -> (f, specials f)) fields in
      let total =
        List.fold_left
          (fun acc (f, specials) -> acc + 1 + escaped_length f ~specials)
          (-1) counted
      in
      let out = Bytes.create total in
      let j = ref 0 in
      List.iteri
        (fun i (f, _) ->
          if i > 0 then begin
            Bytes.set out !j '|';
            incr j
          end;
          j := blit_escaped f out !j)
        counted;
      Bytes.unsafe_to_string out

(* [List.map unescape (String.split_on_char '|' s)], unescaping each
   field straight out of [s]. *)
let split s =
  if s = "" then []
  else begin
    let rec go acc stop =
      match String.rindex_from_opt s (stop - 1) '|' with
      | Some i -> go (unescape_field s (i + 1) stop :: acc) i
      | None -> unescape_field s 0 stop :: acc
    in
    go [] (String.length s)
  end

(* Field lists that grow at the end (T-send histories) are extended and
   compared in their encoded form: a join is its fields' escapes
   separated by '|', so appending is concatenation, and an encoding
   followed by '|' and more fields splits into both lists. *)
let append enc field =
  if enc = "" then escape field else String.concat "|" [ enc; escape field ]

let after ~prefix s =
  let n = String.length prefix and len = String.length s in
  if n = 0 then Some s
  else if not (String.starts_with ~prefix s) then None
  else if len = n then Some ""
  else if len > n + 1 && s.[n] = '|' then Some (String.sub s (n + 1) (len - n - 1))
  else None

(* Fixed-arity helpers used by the protocol codecs; decoding failures
   return [None] — a Byzantine process may write arbitrary bytes. *)

let join2 a b = join [ a; b ]

let join3 a b c = join [ a; b; c ]

let join4 a b c d = join [ a; b; c; d ]

let split2 s = match split s with [ a; b ] -> Some (a, b) | _ -> None

let split3 s = match split s with [ a; b; c ] -> Some (a, b, c) | _ -> None

let split4 s = match split s with [ a; b; c; d ] -> Some (a, b, c, d) | _ -> None

let int_field i = string_of_int i

let int_of_field s = int_of_string_opt s
