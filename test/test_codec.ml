(* Codec round-trip and canonicality tests, including qcheck properties. *)

open Rdma_consensus

let test_simple_roundtrip () =
  let fields = [ "abc"; "def"; "" ] in
  Alcotest.(check (list string)) "roundtrip" fields (Codec.split (Codec.join fields))

let test_separator_escaped () =
  let fields = [ "a|b"; "c%d"; "%7c" ] in
  Alcotest.(check (list string)) "escaping roundtrips" fields
    (Codec.split (Codec.join fields))

let test_fixed_arity () =
  Alcotest.(check (option (pair string string))) "split2" (Some ("x", "y"))
    (Codec.split2 (Codec.join2 "x" "y"));
  Alcotest.(check bool) "split3 rejects arity-2" true (Codec.split3 (Codec.join2 "x" "y") = None);
  (match Codec.split4 (Codec.join4 "a" "b" "c" "d") with
  | Some ("a", "b", "c", "d") -> ()
  | _ -> Alcotest.fail "split4 failed");
  Alcotest.(check (option int)) "int field" (Some 42) (Codec.int_of_field (Codec.int_field 42))

let qcheck_roundtrip =
  QCheck2.Test.make ~name:"codec join/split roundtrips arbitrary fields" ~count:500
    QCheck2.Gen.(list (string_size (0 -- 30)))
    (fun fields -> Codec.split (Codec.join fields) = fields)

let qcheck_canonical =
  QCheck2.Test.make ~name:"codec encodings are injective" ~count:500
    QCheck2.Gen.(pair (list (string_size (0 -- 10))) (list (string_size (0 -- 10))))
    (fun (a, b) -> a = b || Codec.join a <> Codec.join b)

(* The Buffer-based escape/unescape the codec shipped with, kept here as
   the reference: the one-pass versions must match it byte for byte on
   every input, including strings [escape] never produces. *)
let reference_escape s =
  if s = "" then "%e"
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '|' -> Buffer.add_string buf "%7c"
        | '%' -> Buffer.add_string buf "%25"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let reference_unescape s =
  if s = "%e" then ""
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      (if s.[!i] = '%' && !i + 2 < len then begin
         match String.sub s (!i + 1) 2 with
         | "7c" -> Buffer.add_char buf '|'; i := !i + 3
         | "25" -> Buffer.add_char buf '%'; i := !i + 3
         | _ -> Buffer.add_char buf s.[!i]; incr i
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf
  end

(* Strings dense in the bytes the escapes are made of. *)
let codec_string =
  QCheck2.Gen.(
    string_size
      ~gen:(frequency [ (4, oneofl [ '|'; '%'; '7'; 'c'; '2'; '5'; 'e' ]); (1, char) ])
      (0 -- 24))

let test_escape_edge_cases () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("escape " ^ String.escaped s) (reference_escape s)
        (Codec.escape s);
      Alcotest.(check string) ("unescape " ^ String.escaped s) (reference_unescape s)
        (Codec.unescape s))
    [ ""; "%"; "|"; "%7"; "a%7"; "%7c"; "x%7c"; "%e"; "%ee"; "a%e"; "%%7c"; "%257c";
      "%2"; "%25"; "%7C"; "||"; "%%"; "plain" ]

let qcheck_escape_matches_reference =
  QCheck2.Test.make ~name:"codec escape/unescape byte-identical to the reference"
    ~count:2000 codec_string (fun s ->
      String.equal (Codec.escape s) (reference_escape s)
      && String.equal (Codec.unescape s) (reference_unescape s)
      && String.equal (Codec.unescape (Codec.escape s)) s)

let qcheck_join_matches_reference =
  QCheck2.Test.make ~name:"codec join byte-identical to the reference" ~count:1000
    QCheck2.Gen.(list_size (0 -- 6) codec_string)
    (fun fields ->
      String.equal (Codec.join fields)
        (String.concat "|" (List.map reference_escape fields)))

let qcheck_split_join_biased =
  QCheck2.Test.make ~name:"codec split (join xs) = xs on escape-dense fields" ~count:1000
    QCheck2.Gen.(list_size (0 -- 6) codec_string)
    (fun fields -> Codec.split (Codec.join fields) = fields)

let qcheck_append_after =
  QCheck2.Test.make ~name:"codec append and after extend encoded lists" ~count:1000
    QCheck2.Gen.(
      triple (list_size (0 -- 4) codec_string) (list_size (0 -- 4) codec_string)
        codec_string)
    (fun (xs, ys, y) ->
      String.equal (Codec.append (Codec.join xs) y) (Codec.join (xs @ [ y ]))
      && Codec.after ~prefix:(Codec.join xs) (Codec.join (xs @ ys))
         = Some (Codec.join ys))

(* Whatever [after] accepts really is the prefix's fields and more,
   including on encodings cut, extended or re-spelled at the seam. *)
let qcheck_after_sound =
  QCheck2.Test.make ~name:"codec after never splits wrongly" ~count:2000
    QCheck2.Gen.(
      triple (list_size (0 -- 4) codec_string) (list_size (0 -- 3) codec_string)
        (oneofl [ ""; "|"; "x"; "|%e"; "%7c"; "||" ]))
    (fun (xs, ys, tail) ->
      let s = Codec.join (xs @ ys) ^ tail in
      match Codec.after ~prefix:(Codec.join xs) s with
      | None -> true
      | Some rest -> Codec.split s = xs @ Codec.split rest)

(* Paxos message codec *)

let test_paxos_msgs_roundtrip () =
  let open Paxos in
  let msgs =
    [
      Prepare { ballot = 7 };
      Promise { ballot = 3; accepted_ballot = 0; accepted_value = "" };
      Promise { ballot = 3; accepted_ballot = 2; accepted_value = "weird|value%" };
      Reject { ballot = 5; higher = 9 };
      Accept { ballot = 4; value = "v" };
      Accepted { ballot = 4 };
      Decide { value = "final" };
    ]
  in
  List.iter
    (fun m ->
      match decode (encode m) with
      | Some m' when m = m' -> ()
      | _ -> Alcotest.fail "paxos message did not roundtrip")
    msgs

let test_paxos_decode_garbage () =
  Alcotest.(check bool) "garbage decodes to None" true (Paxos.decode "nonsense" = None);
  Alcotest.(check bool) "bad int decodes to None" true
    (Paxos.decode (Codec.join [ "prepare"; "xyz" ]) = None)

(* SMR codecs: the replicated-log kernel's entry, cmd-meta and message
   codecs, the shared checkpoint codec, and velos's lease register. *)

let awkward = [ ""; "plain"; "a|b"; "100%"; "%7c|%25"; "|"; "%" ]

let test_smr_entry_roundtrip () =
  let open Rdma_smr in
  List.iter
    (fun cmd ->
      List.iter
        (fun term ->
          Alcotest.(check (option (pair int string)))
            (Printf.sprintf "entry term %d cmd %S" term cmd)
            (Some (term, cmd))
            (Log_kernel.decode_entry (Log_kernel.encode_entry ~term ~cmd)))
        [ 0; 1; 97; -3; max_int ])
    awkward

let test_smr_cmd_meta_roundtrip () =
  let open Rdma_smr in
  List.iter
    (fun cmd ->
      let meta = Log_kernel.encode_cmd_meta ~client:4 ~seq:12 ~cmd in
      Alcotest.(check bool)
        (Printf.sprintf "cmd-meta %S" cmd)
        true
        (Log_kernel.decode_cmd_meta meta = Some (4, 12, cmd));
      (* a cmd-meta nested in an entry, as the log stores it *)
      Alcotest.(check bool)
        (Printf.sprintf "entry of cmd-meta %S" cmd)
        true
        (Option.bind
           (Log_kernel.decode_entry (Log_kernel.encode_entry ~term:7 ~cmd:meta))
           (fun (_, m) -> Log_kernel.decode_cmd_meta m)
        = Some (4, 12, cmd)))
    awkward

let test_checkpoint_roundtrip () =
  let stored =
    List.mapi
      (fun i cmd ->
        Rdma_smr.Log_kernel.encode_entry ~term:i
          ~cmd:(Rdma_smr.Log_kernel.encode_cmd_meta ~client:3 ~seq:i ~cmd))
      awkward
  in
  List.iter
    (fun entries ->
      Alcotest.(check (option (list string)))
        (Printf.sprintf "checkpoint of %d entries" (List.length entries))
        (Some entries)
        (Protected_region.decode_ckpt (Protected_region.encode_ckpt entries)))
    [ []; [ "" ]; awkward; stored ]

let test_smr_msgs_roundtrip () =
  let open Rdma_smr.Log_kernel in
  let msgs =
    [
      Request { client = 3; seq = 0; cmd = "put k=v|w%" };
      Request { client = 3; seq = 1; cmd = "" };
      Ack { client = 4; seq = 2; index = 17 };
      Commit { index = 5; cmd = "a|b" };
      Commit { index = 6; cmd = "" };
      Read_request { client = 3; seq = 100 };
      Read_reply { client = 3; seq = 100; up_to = 0 };
      Catch_up { pid = 2 };
      Snapshot { up_to = 0; entries = [] };
      Snapshot { up_to = 7; entries = awkward };
    ]
  in
  List.iter
    (fun m ->
      match decode_msg (encode_msg m) with
      | Some m' when m = m' -> ()
      | _ -> Alcotest.failf "SMR message did not roundtrip: %S" (encode_msg m))
    msgs

let test_velos_lease_roundtrip () =
  List.iter
    (fun until ->
      match
        Rdma_smr.Velos.decode_lease (Rdma_smr.Velos.encode_lease ~term:9 ~until)
      with
      | Some (9, u) ->
          (* bit-exact: "%h" keeps every digit and the sign of zero *)
          Alcotest.(check int64)
            (Printf.sprintf "lease expiry %h" until)
            (Int64.bits_of_float until) (Int64.bits_of_float u)
      | _ -> Alcotest.failf "lease %h did not roundtrip" until)
    [ 0.1; 1e300; -0.; 0.; 2000.0 ]

let test_smr_decode_garbage () =
  let open Rdma_smr in
  let none name b = Alcotest.(check bool) name true b in
  none "garbage message" (Log_kernel.decode_msg "nonsense" = None);
  none "empty message" (Log_kernel.decode_msg "" = None);
  none "bad int in ack"
    (Log_kernel.decode_msg (Codec.join [ "ack"; "x"; "1"; "2" ]) = None);
  none "bad int in request"
    (Log_kernel.decode_msg (Codec.join [ "req"; "1"; "1.5"; "c" ]) = None);
  none "request of the wrong arity"
    (Log_kernel.decode_msg (Codec.join [ "req"; "1"; "2" ]) = None);
  none "bad snapshot index"
    (Log_kernel.decode_msg (Codec.join [ "snp"; "" ]) = None);
  none "entry without a term" (Log_kernel.decode_entry "cmd" = None);
  none "entry with a bad term"
    (Log_kernel.decode_entry (Codec.join2 "t1" "cmd") = None);
  none "cmd-meta with a bad seq"
    (Log_kernel.decode_cmd_meta (Codec.join3 "1" "q" "cmd") = None);
  none "checkpoint with a bad count"
    (Protected_region.decode_ckpt (Codec.join [ "two"; "a"; "b" ]) = None);
  none "lease with a bad expiry"
    (Velos.decode_lease (Codec.join2 "1" "soon") = None);
  none "lease with a bad term"
    (Velos.decode_lease (Codec.join2 "x" "0x1p+0") = None)

let test_checkpoint_count_mismatch () =
  List.iter
    (fun fields ->
      Alcotest.(check (option (list string)))
        (Codec.join fields) None
        (Protected_region.decode_ckpt (Codec.join fields)))
    [ [ "3"; "a"; "b" ]; [ "0"; "a" ]; [ "1" ]; [ "-1" ] ]

let suite =
  [
    Alcotest.test_case "simple roundtrip" `Quick test_simple_roundtrip;
    Alcotest.test_case "separators escaped" `Quick test_separator_escaped;
    Alcotest.test_case "fixed arity helpers" `Quick test_fixed_arity;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_canonical;
    Alcotest.test_case "escape edge cases match the reference" `Quick
      test_escape_edge_cases;
    QCheck_alcotest.to_alcotest qcheck_escape_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_join_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_split_join_biased;
    Alcotest.test_case "paxos messages roundtrip" `Quick test_paxos_msgs_roundtrip;
    Alcotest.test_case "paxos decode rejects garbage" `Quick test_paxos_decode_garbage;
    Alcotest.test_case "smr entry roundtrip" `Quick test_smr_entry_roundtrip;
    Alcotest.test_case "smr cmd-meta roundtrip" `Quick test_smr_cmd_meta_roundtrip;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "smr messages roundtrip" `Quick test_smr_msgs_roundtrip;
    Alcotest.test_case "velos lease roundtrip" `Quick test_velos_lease_roundtrip;
    Alcotest.test_case "smr decode rejects garbage" `Quick test_smr_decode_garbage;
    Alcotest.test_case "checkpoint count must match" `Quick
      test_checkpoint_count_mismatch;
    QCheck_alcotest.to_alcotest qcheck_append_after;
    QCheck_alcotest.to_alcotest qcheck_after_sound;
  ]
