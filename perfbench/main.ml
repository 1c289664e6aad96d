(* perfbench: run one named workload with a seed and print its metrics.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--commit ID] [--profile P] [--spans-out FILE]

   The human-readable report comes first; the last line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones.  Exits 1 when an output check failed, 2 on bad
   arguments. *)

open Perfbench

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit ID] \
   [--profile P] [--spans-out FILE]"

let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.15g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let commit = ref "unknown" and profile = ref "unknown" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op list");
      ("--seconds", Arg.Set_int seconds, "S wall seconds of timed rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--commit", Arg.Set_string commit, "ID source revision, for the provenance stamp");
      ("--profile", Arg.Set_string profile, "P dune build profile, for the provenance stamp");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced run's spans as JSONL");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Runner.find !workload with
    | Some w when (!trace = 0 || !trace = 1) && !seconds > 0 -> w
    | _ ->
        prerr_endline
          ("perfbench: need --workload one of "
          ^ String.concat ", " (List.map Op.name Runner.workloads)
          ^ ", --seconds > 0 and --trace 0|1");
        exit 2
  in
  let traced = !trace = 1 in
  let r = Runner.run ~workload:w ~seed:!seed ~seconds:!seconds ~trace:traced () in
  let peak_heap_mb = Metrics.peak_heap_mb () in
  Printf.printf "perfbench %s, seed %d, %s run\n" r.name !seed
    (if traced then "traced (per-layer)" else "untraced (end-to-end)");
  Printf.printf
    "provenance: {\"commit\": %S, \"profile\": %S, \"nproc\": %d, \"jobs\": 1, \
     \"ocaml\": %S, \"seed\": %d, \"timed_rounds\": %d, \"message_delay\": %s, \
     \"memory_op_delay\": %s}\n"
    !commit !profile
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !seed
    (List.length r.untraced_s + List.length r.traced_s)
    (json_float Metrics.message_delay)
    (json_float Metrics.memory_op_delay);
  Printf.printf
    "op list: %d ops, %d %s per round; %d untraced + %d traced timed rounds; \
     set-ups: %s s\n"
    r.ops r.units_per_round r.unit_name (List.length r.untraced_s)
    (List.length r.traced_s)
    (String.concat ", " (List.map (Printf.sprintf "%.4f") r.setup_s));
  let spread name xs =
    if xs <> [] then
      Printf.printf "%s rounds (s): min %.4f, median %.4f, max %.4f\n" name
        (List.fold_left Float.min infinity xs)
        (Pct.median xs)
        (List.fold_left Float.max neg_infinity xs)
  in
  spread "untraced" r.untraced_s;
  spread "traced" r.traced_s;
  Printf.printf "ops_failed_share = %s (%d of %d %s)\n"
    (json_float (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
    r.failed r.attempted r.unit_name;
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) r.errors;
  (* Every virtual-delay series of the workload, with its sample count;
     a percentile shows only when 10 samples lie beyond it. *)
  List.iter
    (fun name ->
      let xs = Runner.series r name in
      let show q label =
        match Pct.percentile xs q with
        | Some v -> Printf.sprintf " %s_%s = %s" name label (json_float v)
        | None -> ""
      in
      Printf.printf "series %s (n=%d, delays):%s%s%s\n" name (List.length xs)
        (show 0.50 "p50") (show 0.90 "p90") (show 0.99 "p99"))
    (Runner.series_names r);
  let metrics =
    if traced then Metrics.per_layer r else Metrics.end_to_end r ~peak_heap_mb
  in
  List.iter
    (fun (x : Metrics.metric) ->
      Printf.printf "metric %s = %s %s\n" x.name (json_float x.value) x.unit_)
    metrics;
  if traced && !spans_out <> "" then begin
    let oc = open_out !spans_out in
    Spans.to_jsonl oc r.spans;
    close_out oc;
    Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans r.spans)) !spans_out
  end;
  (* A metric the op list cannot support (too few samples) is a
     benchmark defect, not a number. *)
  let missing = List.filter (fun (x : Metrics.metric) -> Float.is_nan x.value) metrics in
  List.iter
    (fun (x : Metrics.metric) -> Printf.printf "FAILED: no value for %s\n" x.name)
    missing;
  let correct = r.failed = 0 && missing = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (x : Metrics.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value)
              x.unit_)
          metrics));
  exit (if correct then 0 else 1)
