(* Chaos harness tests: fault-schedule codec round-trips, schedule
   validation, nemesis determinism and budget discipline, exploration
   determinism, shrinking to minimal counterexamples, telemetry-driven
   adversary triggers, and Byzantine containment under attack-augmented
   schedules. *)

open Rdma_obs
open Rdma_mm
open Rdma_consensus
open Rdma_chaos

let fault = Alcotest.testable Fault.pp ( = )

let schedule : Fault.t list =
  [
    Crash_process { pid = 1; at = 3.5 };
    Crash_memory { mid = 0; at = 2.0 };
    Set_leader { pid = 2; at = 7.25 };
    Async_until { gst = 12.0; extra = 4.0 };
    Random_latency { min = 0.5; max = 2.5 };
    Crash_machine { pid = 0; mid = 2; at = 9.0 };
    Partition { pairs = [ (0, 1); (2, 0) ]; at = 4.0 };
    Heal { at = 11.0 };
    Recover_memory { mid = 0; at = 6.5 };
    Restart_machine { pid = 0; mid = 2; at = 14.0 };
    Set_ordering { mode = Rdma_mem.Ordering.Strict };
    Set_ordering { mode = Rdma_mem.Ordering.Completion_lag { max_lag = 6.0 } };
    Set_ordering { mode = Rdma_mem.Ordering.Reorder_qp { window = 4.5 } };
  ]

let test_codec_round_trip () =
  match Fault_codec.schedule_of_json (Fault_codec.schedule_to_json schedule) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
      Alcotest.(check (list fault)) "full vocabulary survives" schedule decoded

let test_codec_deterministic () =
  let render () = Json.to_string (Fault_codec.schedule_to_json schedule) in
  Alcotest.(check string) "same schedule, same bytes" (render ()) (render ());
  (* and the rendered form parses back through the generic JSON layer *)
  match Json.parse (render ()) with
  | Error e -> Alcotest.failf "rendered JSON does not parse: %s" e
  | Ok json -> (
      match Fault_codec.schedule_of_json json with
      | Error e -> Alcotest.failf "parsed JSON does not decode: %s" e
      | Ok decoded ->
          Alcotest.(check (list fault)) "parse . print = id" schedule decoded)

let test_codec_rejects_garbage () =
  (match Fault_codec.of_json (Json.String "crash") with
  | Ok _ -> Alcotest.fail "decoded a bare string"
  | Error _ -> ());
  (match Fault_codec.schedule_of_json (Json.List [ Json.Int 3 ]) with
  | Ok _ -> Alcotest.fail "decoded a schedule of ints"
  | Error _ -> ());
  (* set-ordering requires a known mode and its parameter *)
  (match
     Fault_codec.of_json
       (Json.Obj
          [ ("kind", Json.String "set-ordering"); ("mode", Json.String "tso") ])
   with
  | Ok _ -> Alcotest.fail "decoded an unknown ordering mode"
  | Error _ -> ());
  match
    Fault_codec.of_json
      (Json.Obj
         [
           ("kind", Json.String "set-ordering");
           ("mode", Json.String "completion-lag");
         ])
  with
  | Ok _ -> Alcotest.fail "decoded completion-lag without max_lag"
  | Error _ -> ()

(* Fault.apply validates every target up front: a typo'd pid/mid is a
   schedule bug, not a silent no-op. *)
let test_apply_validates_targets () =
  let cluster : string Cluster.t = Cluster.create ~n:3 ~m:1 () in
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Fault.apply: pid 5 outside cluster of 3 processes")
    (fun () -> Fault.apply cluster [ Crash_process { pid = 5; at = 1.0 } ]);
  Alcotest.check_raises "mid out of range"
    (Invalid_argument "Fault.apply: mid 1 outside cluster of 1 memories")
    (fun () -> Fault.apply cluster [ Crash_memory { mid = 1; at = 1.0 } ]);
  Alcotest.check_raises "partition pairs are validated too"
    (Invalid_argument "Fault.apply: pid 9 outside cluster of 3 processes")
    (fun () ->
      Fault.apply cluster [ Partition { pairs = [ (0, 9) ]; at = 1.0 } ]);
  Alcotest.check_raises "machine crash checks both halves"
    (Invalid_argument "Fault.apply: mid 4 outside cluster of 1 memories")
    (fun () ->
      Fault.apply cluster [ Crash_machine { pid = 0; mid = 4; at = 1.0 } ]);
  Alcotest.check_raises "memory recovery target validated"
    (Invalid_argument "Fault.apply: mid 7 outside cluster of 1 memories")
    (fun () ->
      Fault.apply cluster [ Recover_memory { mid = 7; at = 1.0 } ]);
  Alcotest.check_raises "machine restart checks both halves"
    (Invalid_argument "Fault.apply: pid 9 outside cluster of 3 processes")
    (fun () ->
      Fault.apply cluster [ Restart_machine { pid = 9; mid = 0; at = 1.0 } ])

let get_scenario name =
  match Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %s not registered" name

let test_nemesis_deterministic () =
  let s = get_scenario "robust-backup" in
  for seed = 1 to 20 do
    let a = Scenario.generate s ~adversary:true ~byz:true ~seed () in
    let b = Scenario.generate s ~adversary:true ~byz:true ~seed () in
    if a <> b then Alcotest.failf "seed %d generated two different cases" seed
  done

let count p l = List.length (List.filter p l)

(* Every generated schedule stays inside the scenario's fault budget —
   the nemesis never leaves the algorithm's fault model on its own. *)
let test_nemesis_respects_budget () =
  List.iter
    (fun (s : Scenario.t) ->
      let b = s.budget in
      for seed = 1 to 50 do
        let case = Scenario.generate s ~adversary:true ~byz:true ~seed () in
        let faults = case.Nemesis.faults in
        let crashes =
          count (function Fault.Crash_process _ -> true | _ -> false) faults
        in
        let machine =
          count (function Fault.Crash_machine _ -> true | _ -> false) faults
        in
        let mem =
          count (function Fault.Crash_memory _ -> true | _ -> false) faults
        in
        let flaps =
          count (function Fault.Set_leader _ -> true | _ -> false) faults
        in
        let triggered_crashes =
          count
            (fun (tr : Nemesis.trigger) -> tr.action <> Nemesis.Flip_leader)
            case.Nemesis.triggers
        in
        (* crashes from any source — scheduled, Byzantine replacement,
           trigger-fired — share the fP pool *)
        let fp_used =
          crashes + machine + triggered_crashes + List.length case.Nemesis.byz
        in
        if fp_used > b.Nemesis.max_process_crashes then
          Alcotest.failf "%s seed %d: %d process-fault slots > fP=%d" s.name
            seed fp_used b.Nemesis.max_process_crashes;
        if mem + machine > b.Nemesis.max_memory_crashes + b.Nemesis.max_machine_crashes
        then
          Alcotest.failf "%s seed %d: memory budget exceeded" s.name seed;
        let recoveries =
          count
            (function
              | Fault.Recover_memory _ | Fault.Restart_machine _ -> true
              | _ -> false)
            faults
        in
        if recoveries > b.Nemesis.max_recoveries then
          Alcotest.failf "%s seed %d: %d recoveries > %d" s.name seed recoveries
            b.Nemesis.max_recoveries;
        (* +1: when the initial leader goes Byzantine the nemesis adds a
           corrective repoint outside the flap pool *)
        if flaps > b.Nemesis.max_leader_flaps + 1 then
          Alcotest.failf "%s seed %d: %d flaps > %d" s.name seed flaps
            b.Nemesis.max_leader_flaps;
        (* +2: a Partition pick emits its Heal companion, and the
           Byzantine leader fix rides along outside the cap; paired
           recoveries and the prepended ordering-mode fault ride along
           too *)
        let orderings =
          count (function Fault.Set_ordering _ -> true | _ -> false) faults
        in
        if
          List.length faults - orderings
          > b.Nemesis.max_faults + 2 + b.Nemesis.max_recoveries
        then
          Alcotest.failf "%s seed %d: schedule too long" s.name seed;
        List.iter
          (fun f ->
            match (f : Fault.t) with
            | Crash_process { at; _ }
            | Crash_memory { at; _ }
            | Crash_machine { at; _ }
            | Set_leader { at; _ }
            | Partition { at; _ } ->
                if at < 0.0 || at > b.Nemesis.horizon then
                  Alcotest.failf "%s seed %d: fault outside horizon" s.name seed
            | Heal { at } ->
                (* heals land at partition start + 2.0 + U[0, horizon/2),
                   so they may trail the horizon by the 2.0 grace gap *)
                if at < 0.0 || at > b.Nemesis.horizon +. 2.0 then
                  Alcotest.failf "%s seed %d: heal outside horizon" s.name seed
            | Recover_memory { at; _ } | Restart_machine { at; _ } ->
                (* recoveries land at crash + 2.0 + U[0, horizon/2) *)
                if at < 0.0 || at > (b.Nemesis.horizon *. 1.5) +. 2.0 then
                  Alcotest.failf "%s seed %d: recovery outside horizon" s.name
                    seed
            | Async_until { gst; extra } ->
                (* drawn as 1.0 + U[0, max): max_gst = 0 disables the
                   asynchronous prefix entirely, hence the offset *)
                if gst > 1.0 +. b.Nemesis.max_gst || extra > 1.0 +. b.Nemesis.max_extra
                then Alcotest.failf "%s seed %d: GST outside budget" s.name seed
            | Random_latency _ ->
                if not b.Nemesis.allow_latency then
                  Alcotest.failf "%s seed %d: latency not allowed" s.name seed
            | Set_ordering { mode } ->
                if
                  not
                    (List.exists
                       (Rdma_mem.Ordering.equal mode)
                       b.Nemesis.orderings)
                then
                  Alcotest.failf "%s seed %d: ordering mode outside budget"
                    s.name seed)
          faults
      done)
    Scenario.all

(* Forcing an ordering mode consumes no generator draws: the forced
   weak-mode case is the forced-strict case of the same seed with one
   Set_ordering fault prepended, so weak-mode grids are directly
   comparable to their strict baselines, schedule for schedule.  (The
   unforced generator draws from the budget's [orderings] pool, so it is
   NOT the baseline — forcing [Strict] is.) *)
let test_forced_ordering_preserves_schedule () =
  let s = get_scenario "disk-paxos" in
  let mode = Rdma_mem.Ordering.Completion_lag { max_lag = 6.0 } in
  for seed = 1 to 30 do
    let strict =
      Scenario.generate s ~adversary:true ~ordering:Rdma_mem.Ordering.Strict
        ~seed ()
    in
    let weak = Scenario.generate s ~adversary:true ~ordering:mode ~seed () in
    (match weak.Nemesis.faults with
    | Fault.Set_ordering { mode = m } :: rest ->
        if not (Rdma_mem.Ordering.equal m mode) then
          Alcotest.failf "seed %d: wrong mode installed" seed;
        Alcotest.(check (list fault))
          (Printf.sprintf "seed %d: schedule unchanged" seed)
          strict.Nemesis.faults rest
    | _ -> Alcotest.failf "seed %d: no Set_ordering prepended" seed);
    if weak.Nemesis.triggers <> strict.Nemesis.triggers then
      Alcotest.failf "seed %d: triggers diverged" seed;
    (* forcing strict never injects a Set_ordering fault *)
    if
      List.exists
        (function Fault.Set_ordering _ -> true | _ -> false)
        strict.Nemesis.faults
    then Alcotest.failf "seed %d: forced strict installed an ordering" seed
  done

(* With the pool enabled in the scenario budgets, the blind nemesis
   actually draws weak modes: across seeds all three outcomes (strict,
   completion-lag, reordered-qp) appear. *)
let test_nemesis_draws_weak_modes () =
  let s = get_scenario "paxos" in
  let lag = ref 0 and reorder = ref 0 and strict = ref 0 in
  for seed = 1 to 60 do
    let case = Scenario.generate s ~seed () in
    match
      List.find_map
        (function Fault.Set_ordering { mode } -> Some mode | _ -> None)
        case.Nemesis.faults
    with
    | Some (Rdma_mem.Ordering.Completion_lag _) -> incr lag
    | Some (Rdma_mem.Ordering.Reorder_qp _) -> incr reorder
    | Some Rdma_mem.Ordering.Strict ->
        Alcotest.failf "seed %d: explicit strict fault generated" seed
    | None -> incr strict
  done;
  if !lag = 0 || !reorder = 0 || !strict = 0 then
    Alcotest.failf "pool not exercised: strict=%d lag=%d reorder=%d" !strict
      !lag !reorder

(* The -j N determinism contract holds under a forced weak mode too:
   per-op lag draws come from per-memory streams keyed on the case seed,
   never from domain-local state. *)
let test_weak_explore_parallel_deterministic () =
  let s = get_scenario "disk-paxos" in
  let batch jobs =
    let options =
      {
        Explore.default_options with
        runs = 8;
        seed = 1;
        jobs;
        ordering = Some (Rdma_mem.Ordering.Completion_lag { max_lag = 6.0 });
      }
    in
    Explore.explore ~options s
  in
  let a = batch 1 and b = batch 4 in
  Alcotest.(check int) "all ran" 8 (Explore.total a);
  Alcotest.(check string) "metrics bytes -j1 = -j4"
    (Export.metrics a.Explore.metrics)
    (Export.metrics b.Explore.metrics)

let batch_digest (b : Explore.batch) =
  let failure (f : Explore.failure) =
    Printf.sprintf "seed=%d probes=%d %s" f.outcome.case.Nemesis.case_seed
      f.shrink_probes
      (Repro.to_string f.repro)
  in
  Printf.sprintf "passed=%d failures=[%s]" b.passed
    (String.concat ";" (List.map failure b.failures))

let test_explore_deterministic () =
  let s = get_scenario "paxos" in
  let options =
    { Explore.default_options with runs = 12; seed = 5; over_budget = true }
  in
  let a = Explore.explore ~options s in
  let b = Explore.explore ~options s in
  Alcotest.(check string) "identical batches" (batch_digest a) (batch_digest b)

(* The pool determinism contract: a batch explored across 4 domains is
   indistinguishable — failures, shrink-probe counts, repro artifacts
   AND the merged metrics snapshot, byte for byte — from the same batch
   explored inline.  Exercised with violations so the parallel shrinker
   runs too. *)
let test_explore_parallel_deterministic () =
  let s = get_scenario "paxos" in
  let batch jobs =
    let options =
      {
        Explore.default_options with
        runs = 12;
        seed = 1;
        over_budget = true;
        jobs;
      }
    in
    Explore.explore ~options s
  in
  let a = batch 1 and b = batch 4 in
  Alcotest.(check string) "digest -j1 = -j4" (batch_digest a) (batch_digest b);
  Alcotest.(check string) "metrics bytes -j1 = -j4"
    (Export.metrics a.Explore.metrics)
    (Export.metrics b.Explore.metrics);
  Alcotest.(check bool) "batch has violations to shrink" true
    (a.Explore.failures <> [])

(* Clean batches merge metrics too: every case contributes its
   collector, in seed order, so the snapshot is non-empty and stable. *)
let test_explore_metrics_merged () =
  let s = get_scenario "paxos" in
  let options = { Explore.default_options with runs = 6; seed = 2 } in
  let batch = Explore.explore ~options s in
  Alcotest.(check int) "all passed" 6 batch.Explore.passed;
  Alcotest.(check bool) "merged metrics non-empty" true
    (Obs.histograms batch.Explore.metrics <> []
    || Obs.counters batch.Explore.metrics <> [])

(* The flagship acceptance demo: an over-budget paxos batch violates,
   the shrinker strictly reduces the schedule, and replaying the repro
   artifact still violates. *)
let test_shrinker_minimizes () =
  let s = get_scenario "paxos" in
  let options =
    { Explore.default_options with runs = 12; seed = 1; over_budget = true }
  in
  let batch = Explore.explore ~options s in
  match batch.failures with
  | [] -> Alcotest.fail "over-budget paxos batch found no violation"
  | f :: _ ->
      let original = List.length f.repro.Repro.original_faults in
      let minimized = List.length f.repro.Repro.faults in
      if minimized >= original then
        Alcotest.failf "no shrink: %d -> %d faults" original minimized;
      (* the minimized schedule must still reproduce the violation *)
      let replayed = Explore.replay s f.repro in
      Alcotest.(check bool) "replay still violates" false
        (Scenario.passed replayed);
      (* and the artifact survives a JSON round trip bit-for-bit *)
      (match Repro.of_string (Repro.to_string f.repro) with
      | Error e -> Alcotest.failf "artifact round trip failed: %s" e
      | Ok again ->
          Alcotest.(check string) "artifact bytes stable"
            (Repro.to_string f.repro) (Repro.to_string again));
      (* 1-minimality: dropping any single remaining fault loses the
         violation, so this is a *minimal* counterexample *)
      List.iteri
        (fun i _ ->
          let without =
            List.filteri (fun j _ -> j <> i) f.repro.Repro.faults
          in
          let case =
            { (Repro.case f.repro) with Nemesis.faults = without }
          in
          if not (Scenario.passed (Scenario.run s case)) then
            Alcotest.failf "dropping fault %d still violates: not minimal" i)
        f.repro.Repro.faults

let test_adversary_trigger_fires () =
  let s = get_scenario "paxos" in
  let case =
    {
      Nemesis.case_seed = 1;
      faults = [];
      byz = [];
      triggers =
        [
          {
            Nemesis.phase = "paxos.phase2";
            occurrence = 1;
            action = Nemesis.Crash_leader;
          };
        ];
    }
  in
  let outcome = Scenario.run s case in
  Alcotest.(check bool) "trigger fired" true (outcome.Scenario.fired <> []);
  (* one trigger-fired crash is within paxos's fP = 1: the run must
     still decide *)
  Alcotest.(check bool) "still within the fault model" true
    (Scenario.passed outcome)

(* >= 200 attack-augmented schedules per flagship algorithm: Byzantine
   containment holds (no agreement/validity/liveness violation) with the
   telemetry adversary armed on top. *)
let containment name =
  let s = get_scenario name in
  let options =
    {
      Explore.default_options with
      runs = 200;
      seed = 1;
      adversary = true;
      byz = true;
    }
  in
  let batch = Explore.explore ~options s in
  let show (f : Explore.failure) =
    Printf.sprintf "seed %d: %s" f.outcome.case.Nemesis.case_seed
      (String.concat ", "
         (List.map Oracle.violation_to_string f.outcome.Scenario.violations))
  in
  Alcotest.(check (list string))
    (name ^ " contains Byzantine behaviour across 200 schedules") []
    (List.map show batch.failures);
  Alcotest.(check int) "all 200 ran" 200 (batch.passed + List.length batch.failures)

let test_containment_robust_backup () = containment "robust-backup"

let test_containment_fast_robust () = containment "fast-robust"

(* >= 100 crash -> recover schedules per recovery scenario: the repair
   invariant holds (every rejoined live memory fully re-replicated at
   the watchdog) alongside agreement and liveness. *)
let recovery_batch ?(runs = 150) name =
  let s = get_scenario name in
  (* Explore runs case i with seed + i; count how many of those
     schedules actually contain a crash -> recover pair. *)
  let with_recovery = ref 0 in
  for i = 0 to runs - 1 do
    let case = Scenario.generate s ~seed:(1 + i) () in
    if
      List.exists
        (function
          | Fault.Recover_memory _ | Fault.Restart_machine _ -> true
          | _ -> false)
        case.Nemesis.faults
    then incr with_recovery
  done;
  if !with_recovery < 100 then
    Alcotest.failf "%s: only %d/%d schedules contain a recovery" name
      !with_recovery runs;
  let options = { Explore.default_options with runs; seed = 1 } in
  let batch = Explore.explore ~options s in
  let show (f : Explore.failure) =
    Printf.sprintf "seed %d: %s" f.outcome.case.Nemesis.case_seed
      (String.concat ", "
         (List.map Oracle.violation_to_string f.outcome.Scenario.violations))
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s holds all invariants across %d schedules" name runs)
    []
    (List.map show batch.failures);
  Alcotest.(check int) "all ran" runs (batch.passed + List.length batch.failures)

let test_recovery_swmr () = recovery_batch "swmr-recovery"

(* only ~55% of pmp-multi schedules draw a crash the nemesis can pair
   with a recovery, so a larger batch reaches the 100-schedule floor *)
let test_recovery_pmp_multi () = recovery_batch ~runs:220 "pmp-multi-recovery"

(* Completion-lag regressions: each case seed's schedule deposes a
   leader while the memory is still draining lagged writes.  A write
   arriving inside the drain used to be acked under the old permission
   with bytes landing after the successor's takeover reads, so the old
   and new leaders committed different entries at one index (pmp) or
   served a stale read (velos). *)
let drain_window_case name case_seed () =
  let s = get_scenario name in
  let options =
    { Explore.default_options with runs = 1; seed = case_seed; adversary = true }
  in
  let batch = Explore.explore ~options s in
  let show (f : Explore.failure) =
    String.concat ", "
      (List.map Oracle.violation_to_string f.outcome.Scenario.violations)
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s case seed %d holds every invariant" name case_seed)
    []
    (List.map show batch.failures);
  Alcotest.(check int) "the case ran" 1 batch.passed

let suite =
  [
    Alcotest.test_case "fault codec round trip" `Quick test_codec_round_trip;
    Alcotest.test_case "fault codec deterministic" `Quick
      test_codec_deterministic;
    Alcotest.test_case "fault codec rejects garbage" `Quick
      test_codec_rejects_garbage;
    Alcotest.test_case "Fault.apply validates targets" `Quick
      test_apply_validates_targets;
    Alcotest.test_case "nemesis deterministic per seed" `Quick
      test_nemesis_deterministic;
    Alcotest.test_case "nemesis respects fault budgets" `Quick
      test_nemesis_respects_budget;
    Alcotest.test_case "forced ordering leaves the schedule unchanged" `Quick
      test_forced_ordering_preserves_schedule;
    Alcotest.test_case "nemesis draws weak modes from the pool" `Quick
      test_nemesis_draws_weak_modes;
    Alcotest.test_case "weak-mode exploration byte-identical at -j4" `Quick
      test_weak_explore_parallel_deterministic;
    Alcotest.test_case "exploration is deterministic" `Quick
      test_explore_deterministic;
    Alcotest.test_case "parallel exploration byte-identical" `Quick
      test_explore_parallel_deterministic;
    Alcotest.test_case "batch metrics merged across cases" `Quick
      test_explore_metrics_merged;
    Alcotest.test_case "shrinker yields minimal repro" `Quick
      test_shrinker_minimizes;
    Alcotest.test_case "telemetry adversary fires at phase boundary" `Quick
      test_adversary_trigger_fires;
    Alcotest.test_case "robust-backup Byzantine containment (200 runs)" `Slow
      test_containment_robust_backup;
    Alcotest.test_case "fast-robust Byzantine containment (200 runs)" `Slow
      test_containment_fast_robust;
    Alcotest.test_case "swmr-recovery repair invariant (150 runs)" `Slow
      test_recovery_swmr;
    Alcotest.test_case "pmp-multi-recovery repair invariant (220 runs)" `Slow
      test_recovery_pmp_multi;
    Alcotest.test_case "smr-pmp-recovery drain window (case 252423313)" `Quick
      (drain_window_case "smr-pmp-recovery" 252423313);
    Alcotest.test_case "smr-velos-recovery drain window (case 218349244)" `Quick
      (drain_window_case "smr-velos-recovery" 218349244);
    Alcotest.test_case "smr-velos-recovery drain window (case 603147891)" `Quick
      (drain_window_case "smr-velos-recovery" 603147891);
  ]
