(* The typed telemetry event schema.

   One constructor per observable substrate action, replacing the ad-hoc
   [string -> unit] tracer callbacks that used to live in the network and
   memory layers.  Every event knows its category (the Chrome-trace "cat"
   field), a short name, and its structured fields, so exporters never
   parse strings back apart. *)

type t =
  | Net_send of { src : int; dst : int }
  | Net_deliver of { src : int; dst : int }
  | Mem_read of { pid : int; mid : int; region : string; reg : string; ok : bool }
  | Mem_read_many of { pid : int; mid : int; region : string; count : int; ok : bool }
  | Mem_write of {
      pid : int;
      mid : int;
      region : string;
      reg : string;
      value : string;
      ok : bool;
    }
  | Mem_write_many of {
      pid : int;
      mid : int;
      region : string;
      count : int;
      ok : bool;
    }
  | Mem_perm of { pid : int; mid : int; region : string; applied : bool }
  | Mem_fence of { pid : int; mid : int }
  | Mem_crash of { mid : int }
  | Mem_restart of { mid : int; epoch : int }
  | Verbs_mr of { mid : int; region : string; op : string }
  | Sign of { pid : int }
  | Verify of { ok : bool }
  | Fiber_spawn of { fid : int; name : string }
  | Fiber_cancel of { fid : int; name : string }
  | Deadlock of { steps : int }
  | Proc_crash of { pid : int }
  | Proc_restart of { pid : int }
  | Decide of { pid : int; value : string }
  | Handoff of { pid : int; committed : bool; value : string; evidence : string }
  | Custom of { name : string; detail : string }

let name = function
  | Net_send _ -> "net.send"
  | Net_deliver _ -> "net.deliver"
  | Mem_read _ -> "mem.read"
  | Mem_read_many _ -> "mem.read_many"
  | Mem_write _ -> "mem.write"
  | Mem_write_many _ -> "mem.write_many"
  | Mem_perm _ -> "mem.perm"
  | Mem_fence _ -> "mem.fence"
  | Mem_crash _ -> "mem.crash"
  | Mem_restart _ -> "mem.restart"
  | Verbs_mr _ -> "verbs.mr"
  | Sign _ -> "crypto.sign"
  | Verify _ -> "crypto.verify"
  | Fiber_spawn _ -> "fiber.spawn"
  | Fiber_cancel _ -> "fiber.cancel"
  | Deadlock _ -> "engine.deadlock"
  | Proc_crash _ -> "proc.crash"
  | Proc_restart _ -> "proc.restart"
  | Decide _ -> "protocol.decide"
  | Handoff _ -> "protocol.handoff"
  | Custom { name; _ } -> name

let cat = function
  | Net_send _ | Net_deliver _ -> "net"
  | Mem_read _ | Mem_read_many _ | Mem_write _ | Mem_write_many _ | Mem_perm _
  | Mem_fence _ | Mem_crash _ | Mem_restart _ ->
      "mem"
  | Verbs_mr _ -> "verbs"
  | Sign _ | Verify _ -> "crypto"
  | Fiber_spawn _ | Fiber_cancel _ | Deadlock _ -> "sim"
  | Proc_crash _ | Proc_restart _ -> "proc"
  | Decide _ | Handoff _ -> "protocol"
  | Custom _ -> "custom"

let fields = function
  | Net_send { src; dst } | Net_deliver { src; dst } ->
      [ ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Mem_read { pid; mid; region; reg; ok } ->
      [
        ("pid", Json.Int pid);
        ("mid", Json.Int mid);
        ("region", Json.String region);
        ("reg", Json.String reg);
        ("ok", Json.Bool ok);
      ]
  | Mem_read_many { pid; mid; region; count; ok }
  | Mem_write_many { pid; mid; region; count; ok } ->
      [
        ("pid", Json.Int pid);
        ("mid", Json.Int mid);
        ("region", Json.String region);
        ("count", Json.Int count);
        ("ok", Json.Bool ok);
      ]
  | Mem_write { pid; mid; region; reg; value; ok } ->
      [
        ("pid", Json.Int pid);
        ("mid", Json.Int mid);
        ("region", Json.String region);
        ("reg", Json.String reg);
        ("value", Json.String value);
        ("ok", Json.Bool ok);
      ]
  | Mem_perm { pid; mid; region; applied } ->
      [
        ("pid", Json.Int pid);
        ("mid", Json.Int mid);
        ("region", Json.String region);
        ("applied", Json.Bool applied);
      ]
  | Mem_fence { pid; mid } -> [ ("pid", Json.Int pid); ("mid", Json.Int mid) ]
  | Mem_crash { mid } -> [ ("mid", Json.Int mid) ]
  | Mem_restart { mid; epoch } ->
      [ ("mid", Json.Int mid); ("epoch", Json.Int epoch) ]
  | Verbs_mr { mid; region; op } ->
      [
        ("mid", Json.Int mid);
        ("region", Json.String region);
        ("op", Json.String op);
      ]
  | Sign { pid } | Proc_crash { pid } | Proc_restart { pid } ->
      [ ("pid", Json.Int pid) ]
  | Verify { ok } -> [ ("ok", Json.Bool ok) ]
  | Fiber_spawn { fid; name } | Fiber_cancel { fid; name } ->
      [ ("fid", Json.Int fid); ("name", Json.String name) ]
  | Deadlock { steps } -> [ ("steps", Json.Int steps) ]
  | Decide { pid; value } ->
      [ ("pid", Json.Int pid); ("value", Json.String value) ]
  | Handoff { pid; committed; value; evidence } ->
      [
        ("pid", Json.Int pid);
        ("committed", Json.Bool committed);
        ("value", Json.String value);
        ("class", Json.String evidence);
      ]
  | Custom { detail; _ } -> [ ("detail", Json.String detail) ]

let pp ppf ev =
  Fmt.pf ppf "%s{%s}" (name ev)
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%s" k (Json.to_string v))
          (fields ev)))
