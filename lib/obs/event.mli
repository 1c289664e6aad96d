(** The typed telemetry event schema — one constructor per observable
    substrate action (network send/deliver, memory read/write/permission
    change, signing, fiber lifecycle, injected crashes and restarts,
    protocol decisions and hand-offs). *)

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
      (** Fast & Robust's Cheap Quorum -> Preferential Paxos hand-off
          (Figure 6): whether the fast path committed, the value carried
          over and its evidence class (["T"], ["M"] or ["B"]). *)
  | Custom of { name : string; detail : string }

(** Short dotted name, e.g. ["mem.write"]. *)
val name : t -> string

(** Chrome-trace category: ["net"], ["mem"], ["verbs"], ["crypto"],
    ["sim"], ["proc"], ["protocol"] or ["custom"]. *)
val cat : t -> string

(** Structured payload, ready for the JSON exporters. *)
val fields : t -> (string * Json.t) list

val pp : Format.formatter -> t -> unit
