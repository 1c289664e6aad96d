(** Uniform run reports: per-process decisions with virtual decision times
    (= delay counts) and substrate counters. *)

open Rdma_mm

type decision = { value : string; at : float }

(** One protocol phase's latency distribution over the run (times in
    delays), distilled from the spans recorded under [~cat:"phase"]. *)
type phase = {
  phase : string;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  worst : float;
}

type t = {
  algorithm : string;
  n : int;
  m : int;
  decisions : decision option array;
  messages : int;
  mem_ops : int;
  signatures : int;
  verifications : int;
  sim_steps : int;
  named : (string * int) list;  (** snapshot of the named counters *)
  phases : phase list;  (** per-phase latency breakdown, sorted by name *)
}

(** The report of a finished run on [cluster]: its size, substrate
    counters and engine steps, and {!field-phases} from its collector's
    [~cat:"phase"] histograms. *)
val of_cluster :
  algorithm:string -> decisions:decision option array -> _ Cluster.t -> t

(** Look up a named counter (0 if absent). *)
val named : t -> string -> int

val decided : t -> decision list

val decided_count : t -> int

(** Uniform agreement among deciders outside [ignore_pids]. *)
val agreement_ok : ?ignore_pids:int list -> t -> bool

(** Every decision (outside [ignore_pids]) is some process's input. *)
val validity_ok : ?ignore_pids:int list -> t -> inputs:string array -> bool

(** Earliest decision time — the paper's "k-deciding" metric. *)
val first_decision_time : t -> float option

val last_decision_time : t -> float option

val decision_value : t -> string option

val pp : Format.formatter -> t -> unit

val pp_phase : Format.formatter -> phase -> unit

(** The per-phase latency table ({!field-phases}). *)
val pp_phases : Format.formatter -> t -> unit
