(* Determinism self-test of the benchmark: two traced runs of one seed
   give identical virtual-delay series, per-op counts and span trees,
   and another seed changes the op list. *)

open Perfbench

(* One block per workload, no time budget: set-ups plus the minimum
   number of untraced and traced rounds. *)
let run w seed = Runner.run ~blocks:1 ~workload:w ~seed ~seconds:0 ~trace:true ()

(* Per-layer metrics that count work or virtual time; shares and rates
   are wall-clock and may differ. *)
let exact (r : Runner.result) =
  Metrics.per_layer r
  |> List.filter (fun (x : Metrics.metric) ->
         List.mem x.unit_ [ "count"; "ratio"; "delays" ])
  |> List.map (fun (x : Metrics.metric) -> (x.name, x.value))

let series (r : Runner.result) =
  List.map (fun n -> (n, Runner.series r n)) (Runner.series_names r)

let same_seed w () =
  let a = run w 7 and b = run w 7 in
  Alcotest.(check int) "failed ops" a.failed b.failed;
  Alcotest.(check (list (pair string (list (float 0.)))))
    "virtual-delay series" (series a) (series b);
  Alcotest.(check (list (pair string (float 0.)))) "per-op counts" (exact a) (exact b);
  Alcotest.(check bool) "span trees" true (Spans.shape a.spans = Spans.shape b.spans);
  Alcotest.(check bool) "spans recorded" true (Spans.spans a.spans <> [])

let other_seed () =
  let byz s = Array.map (fun (o : Byz_fast.op) -> o.inputs) (Byz_fast.gen ~seed:s ~blocks:1) in
  let kv s = Array.map (fun (o : Smr_kv.op) -> o.scripts) (Smr_kv.gen ~seed:s ~blocks:1) in
  let chaos s =
    Array.map
      (fun (o : Chaos_recovery.op) -> o.case_seed)
      (Chaos_recovery.gen ~seed:s ~blocks:1)
  in
  Alcotest.(check bool) "byz-fast" true (byz 1 = byz 1 && byz 1 <> byz 2);
  Alcotest.(check bool) "smr-kv" true (kv 1 = kv 1 && kv 1 <> kv 2);
  Alcotest.(check bool) "chaos-recovery" true (chaos 1 = chaos 1 && chaos 1 <> chaos 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        List.map
          (fun w -> Alcotest.test_case ("same seed, " ^ Op.name w) `Quick (same_seed w))
          Runner.workloads
        @ [ Alcotest.test_case "another seed changes the op list" `Quick other_seed ] );
    ]
