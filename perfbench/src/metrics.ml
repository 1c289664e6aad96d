(* Turn a run into named metrics.  End-to-end metrics come from untraced
   rounds; per-layer metrics from the traced rounds of a traced run. *)

open Rdma_obs

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Injected delays: the simulator defaults, printed with every result. *)
let message_delay = 1.0

let memory_op_delay = 2.0

let peak_heap_mb () =
  (float_of_int (Gc.quick_stat ()).Gc.top_heap_words
   *. float_of_int (Sys.word_size / 8)
   /. 1048576.)
  [@simlint.allow
    "D1 the heap high-water mark is a benchmark output; no simulated \
     behaviour reads it"]

let pct_or_nan xs q = Option.value (Pct.percentile xs q) ~default:nan

let end_to_end (r : Runner.result) ~peak_heap_mb =
  let op = Runner.series r r.primary in
  [
    m "ops_per_s" "1/s" (Runner.ops_per_s r r.untraced_s);
    m "setup_s" "s" (Pct.median r.setup_s);
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "op_delays_p50" "delays" (pct_or_nan op 0.50);
    m "op_delays_p90" "delays" (pct_or_nan op 0.90);
  ]

(* {2 Per-layer} *)

let last_component path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Sum a timing column over every scope path ending in one of [names]. *)
let timing (r : Runner.result) names column =
  List.fold_left
    (fun acc (path, calls, total, self) ->
      if List.mem (last_component path) names then
        acc +. match column with `Self -> self | `Total -> total | `Calls -> float_of_int calls
      else acc)
    0. (Prof.timings r.prof)

let total (r : Runner.result) counter =
  float_of_int (Option.value (List.assoc_opt counter (Prof.totals r.prof)) ~default:0)

(* p50 over the merged histograms called one of [names]. *)
let hist_p50 (r : Runner.result) names =
  let h = Hist.create () in
  List.iter
    (fun (name, _, x) -> if List.mem name names then Hist.merge ~into:h x)
    (Obs.histograms r.obs);
  if Hist.count h = 0 then 0. else Hist.percentile h 0.5

let ratio a b = if b = 0. then 0. else a /. b

let per_layer (r : Runner.result) =
  let traced_rounds = float_of_int (List.length r.traced_s) in
  let units = float_of_int r.units_per_round *. traced_rounds in
  let per_op v = ratio v units in
  (* Benchmark-side counts come from the warm-up pass; every traced
     round repeats it exactly. *)
  let count_per_op key =
    ratio (float_of_int (Runner.count r key)) (float_of_int r.units_per_round)
  in
  let op_wall = Spans.total r.spans "op" in
  let share v = ratio v op_wall in
  let self names = share (timing r names `Self) in
  let run_total = timing r [ "cluster.run" ] `Total in
  let leased = timing r [ "velos.read.leased" ] `Calls in
  let quorum = timing r [ "velos.read.quorum" ] `Calls in
  let ops_untraced = Runner.ops_per_s r r.untraced_s in
  let ops_traced = Runner.ops_per_s r r.traced_s in
  let sessions = float_of_int (Runner.count r "sessions") in
  [
    m "crypto.verifies_per_op" "count" (per_op (total r "crypto.verifies"));
    m "crypto.signs_per_op" "count" (per_op (total r "crypto.signs"));
    m "crypto.sha256_blocks_per_op" "count" (per_op (total r "sha256.blocks"));
    m "crypto.verify_share" "share" (self [ "crypto.verify" ]);
    m "crypto.sign_share" "share" (self [ "crypto.sign" ]);
    m "mem.ops_issued_per_op" "count" (per_op (total r "mem.ops.issued"));
    m "mem.ops_completed_ratio" "ratio"
      (ratio (total r "mem.ops.completed") (total r "mem.ops.issued"));
    m "mem.fences_per_op" "count" (per_op (total r "mem.fences"));
    m "mem.ops_lagged_per_op" "count" (per_op (total r "mem.ops.lagged"));
    m "mem.quorum_share" "share" (self [ "rdma.read_quorum"; "rdma.write_quorum" ]);
    m "mem.read_delays_p50" "delays" (hist_p50 r [ "mem.read"; "mem.read_many" ]);
    m "mem.write_delays_p50" "delays" (hist_p50 r [ "mem.write"; "mem.write_many" ]);
    m "net.msgs_sent_per_op" "count" (per_op (total r "net.msgs.sent"));
    m "sim.events_per_op" "count" (per_op (total r "sim.events.popped"));
    m "sim.heap_pushes_per_op" "count" (per_op (total r "sim.heap.pushes"));
    m "sim.heap_peak_depth" "count"
      (Option.value (List.assoc_opt "sim.heap.peak_depth" (Obs.gauges r.obs)) ~default:0.);
    m "sim.events_per_s" "1/s" (ratio (total r "sim.events.popped") run_total);
    m "sim.unattributed_share" "share" (ratio (timing r [ "cluster.run" ] `Self) run_total);
    m "mm.setup_share" "share" (share (Spans.total r.spans "setup"));
    m "reg.repairs_per_op" "count"
      (count_per_op "repairs"
      +. per_op
           (float_of_int
              (Option.value (List.assoc_opt "swmr.repairs" (Obs.counters r.obs)) ~default:0)));
    m "consensus.slow_path_share" "share" (count_per_op "slow_path");
    m "consensus.cheap_quorum_delays_p50" "delays" (hist_p50 r [ "fr.cheap-quorum" ]);
    m "consensus.preferential_delays_p50" "delays" (hist_p50 r [ "fr.preferential" ]);
    m "consensus.phase_share" "share"
      (self [ "fr.cheap-quorum"; "pmp.phase1"; "pmp.phase2"; "paxos.phase1"; "paxos.phase2" ]);
    m "smr.attempts_per_op" "count" (count_per_op "attempts");
    m "smr.read_leased_share" "share" (ratio leased (leased +. quorum));
    m "smr.read_share" "share"
      (self [ "pmp.read.lease"; "velos.read.leased"; "velos.read.quorum" ]);
    m "smr.leader_changes_per_session" "count"
      (ratio (float_of_int (Runner.count r "leader_changes")) sessions);
    m "chaos.generate_share" "share" (share (Spans.total r.spans "scenario.generate"));
    m "chaos.run_overhead_share" "share"
      (if Spans.total r.spans "scenario.run" = 0. then 0.
       else share (Spans.total r.spans "scenario.run" -. run_total));
    m "chaos.fired_per_op" "count" (count_per_op "fired");
    m "obs.trace_overhead_share" "share" (1. -. ratio ops_traced ops_untraced);
  ]
