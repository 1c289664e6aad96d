(* The telemetry subsystem: span nesting under virtual time, streaming
   percentile accuracy against a brute-force sort, exporter
   well-formedness (parse the emitted JSON back), and byte-identical
   exports for identical seeded runs. *)

open Rdma_sim
open Rdma_obs
open Rdma_consensus

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* {2 Spans under virtual time} *)

(* Two fibers each open a span, sleep, open a nested span, and close in
   LIFO order; all timestamps must be virtual times, and nesting must
   hold (child within parent). *)
let test_span_nesting () =
  let engine = Engine.create () in
  let obs = Engine.obs engine in
  Obs.set_recording obs true;
  let spawn_actor name start =
    ignore
      (Engine.spawn engine name (fun () ->
           Engine.sleep start;
           Obs.with_span obs ~actor:name "outer" (fun () ->
               Engine.sleep 2.0;
               Obs.with_span obs ~actor:name "inner" (fun () -> Engine.sleep 1.0);
               Engine.sleep 0.5)))
  in
  spawn_actor "a" 0.0;
  spawn_actor "b" 3.0;
  Engine.run engine;
  let spans = Obs.spans obs in
  check int "four spans" 4 (List.length spans);
  List.iter
    (fun sp ->
      check bool "span finished" true (Obs.span_stop sp <> None))
    spans;
  let find actor name =
    List.find
      (fun sp -> Obs.span_actor sp = actor && Obs.span_name sp = name)
      spans
  in
  let outer_a = find "a" "outer" and inner_a = find "a" "inner" in
  check (Alcotest.float 1e-9) "outer a starts at 0" 0.0 (Obs.span_start outer_a);
  check (Alcotest.float 1e-9) "inner a starts at 2" 2.0 (Obs.span_start inner_a);
  check (Alcotest.float 1e-9) "inner a duration" 1.0
    (Option.get (Obs.span_duration inner_a));
  (* nesting: child interval inside parent interval *)
  check bool "nested start" true
    (Obs.span_start inner_a >= Obs.span_start outer_a);
  check bool "nested stop" true
    (Option.get (Obs.span_stop inner_a) <= Option.get (Obs.span_stop outer_a));
  (* the second actor's spans are shifted by its start offset *)
  let outer_b = find "b" "outer" in
  check (Alcotest.float 1e-9) "outer b starts at 3" 3.0 (Obs.span_start outer_b);
  check (Alcotest.float 1e-9) "outer durations equal"
    (Option.get (Obs.span_duration outer_a))
    (Option.get (Obs.span_duration outer_b));
  (* entries are retained in chronological order *)
  let times =
    List.map
      (function
        | Obs.Ev { at; _ } -> at
        | Obs.Sp sp -> Obs.span_start sp)
      (Obs.entries obs)
  in
  check bool "entries chronological" true
    (List.sort compare times = times)

(* A span closed by fiber cancellation (crash injection) must still be
   finished — [with_span] closes on discontinue. *)
let test_span_survives_cancel () =
  let engine = Engine.create () in
  let obs = Engine.obs engine in
  Obs.set_recording obs true;
  let fiber =
    Engine.spawn engine "victim" (fun () ->
        Obs.with_span obs ~actor:"victim" "doomed" (fun () ->
            Engine.sleep 10.0))
  in
  Engine.schedule engine 4.0 (fun () -> Engine.cancel fiber);
  Engine.run engine;
  match Obs.spans obs with
  | [ sp ] ->
      check string "span name" "doomed" (Obs.span_name sp);
      check bool "closed by cancellation" true (Obs.span_stop sp <> None);
      (* a cancelled fiber is discontinued at its next wake-up point
         (t=10, the end of its sleep), so the span closes there *)
      check (Alcotest.float 1e-9) "closed at the discontinue point" 10.0
        (Option.get (Obs.span_stop sp))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* {2 Histogram percentiles vs brute force} *)

let exact_percentile samples q =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_hist_percentiles () =
  (* A deterministic pseudo-random stream with a heavy tail, like real
     latency data. *)
  let st = Random.State.make [| 0xBEEF |] in
  let samples =
    List.init 5000 (fun _ ->
        let u = Random.State.float st 1.0 in
        0.1 +. ((10.0 *. u) ** 3.0))
  in
  let h = Hist.create () in
  List.iter (Hist.add h) samples;
  check int "count" 5000 (Hist.count h);
  List.iter
    (fun q ->
      let exact = exact_percentile samples q in
      let est = Hist.percentile h q in
      if not (est >= exact -. 1e-9 && est <= (exact *. Hist.ratio) +. 1e-9)
      then
        Alcotest.failf "p%.0f estimate %f outside [%f, %f]" (q *. 100.) est
          exact (exact *. Hist.ratio))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  (* min/max are tracked exactly *)
  check (Alcotest.float 1e-9) "min exact"
    (List.fold_left Stdlib.min infinity samples)
    (Hist.min h);
  check (Alcotest.float 1e-9) "max exact"
    (List.fold_left Stdlib.max neg_infinity samples)
    (Hist.max h)

let test_hist_small_and_zero () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0.0; 0.0; 5.0 ];
  (* nearest rank over [0; 0; 5]: p50 -> 0, p99 -> 5 *)
  check (Alcotest.float 1e-9) "p50 with zeros" 0.0 (Hist.percentile h 0.5);
  check (Alcotest.float 1e-9) "p99 with zeros" 5.0 (Hist.percentile h 0.99);
  let one = Hist.create () in
  Hist.add one 7.0;
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9) "single sample" 7.0 (Hist.percentile one q))
    [ 0.0; 0.5; 1.0 ]

(* {2 Exporter well-formedness} *)

let run_protected_paxos ~seed =
  let captured = ref None in
  let report =
    Protected_paxos.run ~seed ~n:3 ~m:3
      ~inputs:[| "a"; "b"; "c" |]
      ~prepare:(fun cluster ->
        captured := Some cluster;
        Obs.set_recording (Rdma_mm.Cluster.obs cluster) true)
      ()
  in
  (report, Rdma_mm.Cluster.obs (Option.get !captured))

let test_chrome_export_parses () =
  let report, obs = run_protected_paxos ~seed:1 in
  let trace = Export.chrome obs in
  (match Json.parse trace with
  | Error msg -> Alcotest.failf "chrome export does not parse: %s" msg
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          check bool "has events" true (List.length events > 0);
          List.iter
            (fun e ->
              check bool "event has name" true (Json.member "name" e <> None);
              check bool "event has ph" true (Json.member "ph" e <> None))
            events
      | _ -> Alcotest.fail "traceEvents missing"));
  (match Export.validate_chrome trace with
  | Ok (events, tracks) ->
      check bool "several events" true (events > 5);
      (* 3 processes + 3 memories at least *)
      check bool "at least 6 tracks" true (tracks >= 6)
  | Error msg -> Alcotest.failf "validate_chrome: %s" msg);
  (* the trace carries the 2-delay decision: a pmp.phase2 span of
     duration 2 delays = 2000 trace microseconds *)
  (match Json.parse trace with
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          let phase2 =
            List.filter
              (fun e -> Json.member "name" e |> Option.map Json.to_string_opt
                        |> Option.join = Some "pmp.phase2")
              events
          in
          check bool "pmp.phase2 span present" true (phase2 <> []);
          List.iter
            (fun e ->
              match Json.member "dur" e with
              | Some (Json.Float d) ->
                  check (Alcotest.float 1e-6) "2-delay phase2" 2000.0 d
              | Some (Json.Int d) -> check int "2-delay phase2" 2000 d
              | _ -> Alcotest.fail "phase2 span has no dur")
            phase2
      | _ -> ())
  | Error _ -> ());
  (* report got its per-phase breakdown from the same histograms *)
  check bool "report has phases" true
    (List.exists (fun p -> p.Report.phase = "pmp.phase2") report.Report.phases)

let test_jsonl_export_parses () =
  let _, obs = run_protected_paxos ~seed:1 in
  let lines =
    String.split_on_char '\n' (Export.jsonl obs)
    |> List.filter (fun l -> l <> "")
  in
  check int "one line per entry" (Obs.entry_count obs) (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "jsonl line does not parse: %s" msg
      | Ok json ->
          check bool "line has at" true (Json.member "at" json <> None);
          check bool "line has actor" true (Json.member "actor" json <> None))
    lines

let test_metrics_export_parses () =
  let _, obs = run_protected_paxos ~seed:1 in
  match Json.parse (Export.metrics obs) with
  | Error msg -> Alcotest.failf "metrics export does not parse: %s" msg
  | Ok json -> (
      match Json.member "histograms" json with
      | Some (Json.Obj hists) ->
          check bool "has net.latency histogram" true
            (List.mem_assoc "net.latency" hists);
          List.iter
            (fun (_, h) ->
              List.iter
                (fun field ->
                  check bool ("histogram has " ^ field) true
                    (Json.member field h <> None))
                [ "count"; "min"; "max"; "p50"; "p90"; "p99" ])
            hists
      | _ -> Alcotest.fail "histograms missing")

(* {2 Determinism} *)

let test_identical_runs_identical_traces () =
  let _, obs1 = run_protected_paxos ~seed:7 in
  let _, obs2 = run_protected_paxos ~seed:7 in
  check string "chrome traces byte-identical" (Export.chrome obs1)
    (Export.chrome obs2);
  check string "jsonl byte-identical" (Export.jsonl obs1) (Export.jsonl obs2);
  check string "metrics byte-identical" (Export.metrics obs1)
    (Export.metrics obs2);
  (* a different seed still produces a valid — not necessarily different —
     trace; determinism is per-seed *)
  let _, obs3 = run_protected_paxos ~seed:8 in
  match Export.validate_chrome (Export.chrome obs3) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "seed 8 trace invalid: %s" msg

(* Two builds of the same report — metric names registered and samples
   added in opposite orders, enough of them to force different Hashtbl
   bucket layouts — must serialize identically.  This guards the same
   invariant simlint rule D2 checks statically: exporter output order
   (Obs.histograms/counters, Hist's bucket fold) never depends on
   hash-table internals. *)
let test_metric_order_invariant () =
  let names = List.init 40 (fun i -> Printf.sprintf "metric.%02d" i) in
  let samples = [ 1.0; 2.5; 7.0; 0.5; 2.5 ] in
  let build ~rev =
    let obs = Obs.create () in
    let order = if rev then List.rev names else names in
    List.iter
      (fun name ->
        let samples = if rev then List.rev samples else samples in
        List.iter (Obs.observe obs ~cat:"m" name) samples;
        Obs.count obs ("count." ^ name) (String.length name))
      order;
    obs
  in
  let a = build ~rev:false and b = build ~rev:true in
  check string "metrics export byte-identical" (Export.metrics a)
    (Export.metrics b);
  check bool "summaries identical" true (Obs.summaries a = Obs.summaries b);
  check bool "counters identical" true (Obs.counters a = Obs.counters b);
  (* and the read-back order is the sorted one, not insertion order *)
  let hist_names = List.map (fun (n, _, _) -> n) (Obs.histograms b) in
  check bool "histograms sorted" true
    (List.sort compare hist_names = hist_names)

(* Stats.pp must print named counters in sorted order regardless of
   insertion order (Hashtbl iteration order is seed-dependent). *)
let test_stats_pp_sorted () =
  let render order =
    let s = Stats.create () in
    List.iter (Stats.bump s) order;
    Fmt.str "%a" Stats.pp s
  in
  let a = render [ "zeta"; "alpha"; "mid"; "alpha" ] in
  let b = render [ "alpha"; "mid"; "zeta"; "alpha" ] in
  check string "insertion order does not leak" a b;
  let index_of needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      if i + nl > hl then Alcotest.failf "%s not printed" needle
      else if String.sub hay i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  check bool "sorted keys appear in order" true
    (let ia = index_of "alpha" a in
     let im = index_of "mid" a in
     let iz = index_of "zeta" a in
     ia < im && im < iz)

(* {2 Merging domain-confined collectors} *)

(* Hist.merge's contract: folding src into into is observationally the
   same as re-adding every one of src's samples — counts, sums,
   extrema, percentiles and the exported summary all agree. *)
let test_hist_merge_equals_readd () =
  let samples_a = [ 0.0; 1.0; 3.5; 3.5; 120.0 ] in
  let samples_b = [ 0.25; 2.0; 64.0; 0.0; 9.5; 1.0 ] in
  let fill samples =
    let h = Hist.create () in
    List.iter (Hist.add h) samples;
    h
  in
  let merged = fill samples_a in
  Hist.merge ~into:merged (fill samples_b);
  let readded = fill (samples_a @ samples_b) in
  check bool "summaries agree" true (Hist.summary merged = Hist.summary readded);
  List.iter
    (fun q ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%.0f agrees" (q *. 100.))
        (Hist.percentile readded q)
        (Hist.percentile merged q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  (* merging an empty histogram is the identity *)
  let before = Hist.summary merged in
  Hist.merge ~into:merged (Hist.create ());
  check bool "empty merge is identity" true (before = Hist.summary merged)

(* Obs.merge folds metrics (histograms by name+cat, counters by name)
   and is insensitive to both the order the metrics were registered in
   the sources and the order the sources are merged — the exported
   snapshot is byte-identical either way. *)
let test_obs_merge_order_stable () =
  let build names =
    let obs = Obs.create () in
    List.iter
      (fun name ->
        Obs.observe obs ~cat:"m" name (float_of_int (String.length name));
        Obs.count obs (name ^ ".n") (String.length name))
      names;
    obs
  in
  let snapshot sources =
    let into = Obs.create () in
    List.iter (fun src -> Obs.merge ~into src) sources;
    Export.metrics into
  in
  let a = build [ "zeta"; "alpha"; "mid" ] in
  let b = build [ "mid"; "beta" ] in
  check string "merge order does not leak"
    (snapshot [ a; b ]) (snapshot [ b; a ]);
  check string "registration order does not leak"
    (snapshot [ build [ "alpha"; "mid"; "zeta" ]; b ])
    (snapshot [ a; b ]);
  (* shared names accumulate rather than overwrite *)
  let into = Obs.create () in
  Obs.merge ~into a;
  Obs.merge ~into b;
  check bool "shared histogram accumulates" true
    (List.exists
       (fun (name, s) -> name = "mid" && s.Hist.count = 2)
       (Obs.summaries into));
  check bool "shared counter accumulates" true
    (List.mem ("mid.n", 6) (Obs.counters into))

(* {2 Gauges} *)

(* High-watermark semantics: a gauge keeps the max of everything set on
   it, and merging folds gauges by max too (merge of peak depths is the
   overall peak, not a sum). *)
let test_gauge_watermark_and_merge () =
  let a = Obs.create () in
  Obs.gauge a "heap.peak" 4.0;
  Obs.gauge a "heap.peak" 9.0;
  Obs.gauge a "heap.peak" 2.0;
  check bool "keeps the max" true (List.mem ("heap.peak", 9.0) (Obs.gauges a));
  let b = Obs.create () in
  Obs.gauge b "heap.peak" 7.0;
  Obs.gauge b "only.b" 1.0;
  let into = Obs.create () in
  Obs.merge ~into a;
  Obs.merge ~into b;
  check bool "merge keeps the max" true
    (List.mem ("heap.peak", 9.0) (Obs.gauges into));
  check bool "merge unions names" true
    (List.mem ("only.b", 1.0) (Obs.gauges into));
  (* the export carries gauges alongside counters *)
  let json = Export.metrics into in
  check bool "export mentions gauges" true
    (let contains hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains json "\"gauges\"" && contains json "heap.peak")

(* The I/O log renderer, on a collector recorded by hand: one line per
   rendered event kind, and nothing for reads, deliveries or spans. *)
let test_io_log_lines () =
  let obs = Obs.create ~recording:true () in
  let now = ref 0.0 in
  Obs.set_clock obs (fun () -> !now);
  let at t actor ev =
    now := t;
    Obs.event obs ~actor ev
  in
  let write ok =
    Event.Mem_write { pid = 0; mid = 1; region = "r"; reg = "x"; value = "v"; ok }
  in
  let handoff committed evidence =
    Event.Handoff { pid = 2; committed; value = "v2"; evidence }
  in
  at 1.0 "mu1" (write true);
  at 1.0 "mu1" (write false);
  at 1.5 "mu1" (Event.Mem_read { pid = 0; mid = 1; region = "r"; reg = "x"; ok = true });
  at 2.0 "mu0" (Event.Mem_perm { pid = 1; mid = 0; region = "r"; applied = true });
  at 2.0 "mu0" (Event.Mem_perm { pid = 1; mid = 0; region = "r"; applied = false });
  at 3.0 "p0" (Event.Net_send { src = 0; dst = 2 });
  at 4.0 "p2" (Event.Net_deliver { src = 0; dst = 2 });
  Obs.finish obs (Obs.span obs ~actor:"p2" "phase");
  at 5.0 "p1" (Event.Proc_crash { pid = 1 });
  at 6.25 "p1" (Event.Proc_restart { pid = 1 });
  at 7.0 "mu2" (Event.Mem_crash { mid = 2 });
  at 40.0 "mu2" (Event.Mem_restart { mid = 2; epoch = 1 });
  List.iter
    (fun (committed, evidence) -> at 55.0 "p2" (handoff committed evidence))
    [ (true, "T"); (true, "M"); (true, "B"); (false, "T"); (false, "M"); (false, "B") ];
  check (Alcotest.list string) "one line per rendered event"
    [
      "[  1.00] mu1          p0 write r/x := v -> ack";
      "[  1.00] mu1          p0 write r/x -> nak";
      "[  2.00] mu0          p1 changePermission r -> applied";
      "[  2.00] mu0          p1 changePermission r -> refused";
      "[  3.00] p0           send -> p2";
      "[  5.00] p1           CRASH";
      "[  6.25] p1           RESTART";
      "[  7.00] mu2          MEMORY CRASH";
      "[ 40.00] mu2          MEMORY RESTART (epoch 1)";
      "[ 55.00] p2           cheap-quorum COMMIT -> preferential-paxos value=v2 class=T";
      "[ 55.00] p2           cheap-quorum COMMIT -> preferential-paxos value=v2 class=M";
      "[ 55.00] p2           cheap-quorum COMMIT -> preferential-paxos value=v2 class=B";
      "[ 55.00] p2           cheap-quorum ABORT -> preferential-paxos value=v2 class=T";
      "[ 55.00] p2           cheap-quorum ABORT -> preferential-paxos value=v2 class=M";
      "[ 55.00] p2           cheap-quorum ABORT -> preferential-paxos value=v2 class=B";
    ]
    (Export.io_log obs)

let suite =
  [
    Alcotest.test_case "span nesting under virtual time" `Quick
      test_span_nesting;
    Alcotest.test_case "gauge high watermark and merge" `Quick
      test_gauge_watermark_and_merge;
    Alcotest.test_case "with_span closes on fiber cancellation" `Quick
      test_span_survives_cancel;
    Alcotest.test_case "histogram percentiles vs brute-force sort" `Quick
      test_hist_percentiles;
    Alcotest.test_case "histogram zeros and tiny populations" `Quick
      test_hist_small_and_zero;
    Alcotest.test_case "chrome export parses and validates" `Quick
      test_chrome_export_parses;
    Alcotest.test_case "jsonl export parses line by line" `Quick
      test_jsonl_export_parses;
    Alcotest.test_case "metrics export parses" `Quick
      test_metrics_export_parses;
    Alcotest.test_case "same seed, byte-identical exports" `Quick
      test_identical_runs_identical_traces;
    Alcotest.test_case "metric registration order never leaks" `Quick
      test_metric_order_invariant;
    Alcotest.test_case "Stats.pp sorts named counters" `Quick
      test_stats_pp_sorted;
    Alcotest.test_case "Hist.merge equals re-adding samples" `Quick
      test_hist_merge_equals_readd;
    Alcotest.test_case "Obs.merge is order-stable" `Quick
      test_obs_merge_order_stable;

    Alcotest.test_case "I/O log renders one line per event kind" `Quick
      test_io_log_lines;
  ]
