(* What every workload hands the runner: how to generate its seeded op
   list and how to run (and check) one op. *)

type ctx = {
  spans : Spans.t;
  mutable collectors : Rdma_obs.Obs.t list;
      (** the op's cluster collectors, captured at the [?prepare] point
          in traced runs so the runner can merge their metrics *)
}

let ctx spans = { spans; collectors = [] }

let traced c = Spans.enabled c.spans

let capture c cluster =
  if traced c then c.collectors <- Rdma_mm.Cluster.obs cluster :: c.collectors

(* Span a call that takes a [?prepare] hook: [name] covers the call,
   split at the hook into "setup" and "execute". *)
let split_at_prepare c name f =
  let sp = c.spans in
  let call = Spans.open_span sp name in
  let setup = Spans.open_span sp "setup" in
  let exec = ref Spans.dummy in
  let r =
    f (fun cluster ->
        Spans.close sp setup;
        capture c cluster;
        exec := Spans.open_span sp "execute")
  in
  Spans.close sp !exec;
  Spans.close sp call;
  r

(* A run of one op, as far as the benchmark can tell from outside.
   Everything here is deterministic for a given op. *)
type outcome = {
  units : int;  (** ops in the workload's own unit (instances, commands, schedules) *)
  failed : int;  (** units whose output checks failed *)
  errors : string list;  (** what failed *)
  samples : (string * float list) list;  (** virtual-delay series *)
  counts : (string * int) list;  (** counts the benchmark itself makes *)
}

type 'op spec = {
  name : string;
  unit_name : string;
  blocks : int;  (** blocks in one round's op list *)
  gen : seed:int -> blocks:int -> 'op array;
  run : ctx -> id:int -> 'op -> outcome;
  primary : string;  (** the series behind [op_delays_*] *)
}

type workload = W : 'op spec -> workload

let name (W s) = s.name

let sample_of outcome series =
  Option.value ~default:[] (List.assoc_opt series outcome.samples)

let count_of outcome key = Option.value ~default:0 (List.assoc_opt key outcome.counts)
