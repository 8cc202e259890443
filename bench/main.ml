(* Benchmark harness: one Bechamel test per paper artifact (Tables 2-5,
   Figures 1 and 3, the §2.1/§2.2 computations) plus scaling sweeps,
   baseline comparisons and overhead gates on synthetic workloads. The
   sweeps and gates share one batch timer ([ns_per_run]); every timed gate
   compares its legs through one interleaved routine
   ([alternating_legs]).

   Before timing anything, each artifact is regenerated once and checked
   against the paper so a broken build cannot produce plausible-looking
   numbers. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)

let table2 () =
  Erm.Ops.select
    ~threshold:(Erm.Threshold.sn_gt 0.0)
    (Erm.Predicate.is_values "speciality" [ "si" ])
    Paperdata.r_a

let table3 () =
  Erm.Ops.select
    ~threshold:(Erm.Threshold.sn_gt 0.0)
    Erm.Predicate.(
      is_values "speciality" [ "mu" ] &&& is_values "rating" [ "ex" ])
    Paperdata.r_a

let table4 () = Erm.Ops.union Paperdata.r_a Paperdata.r_b
let table5 () = Erm.Ops.project Paperdata.table5_attrs Paperdata.r_a

let figure1_env = [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ]

let figure1_query =
  "SELECT * FROM (ra UNION rb) WHERE speciality IS {mu} AND rating IS {ex} \
   WITH SN > 0.5"

let figure1 () = Query.Eval.run figure1_env figure1_query

let verify () =
  let check name ok =
    Printf.printf "  [%s] %s\n" (if ok then "OK" else "FAIL") name;
    ok
  in
  let all =
    [ check "sec2.2 combination"
        (Dst.Mass.F.equal
           (Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2)
           Paperdata.wok_combined);
      check "table2" (Erm.Relation.equal (table2 ()) Paperdata.table2);
      check "table3" (Erm.Relation.equal (table3 ()) Paperdata.table3);
      check "table4" (Erm.Relation.equal (table4 ()) Paperdata.table4);
      check "table5" (Erm.Relation.equal (table5 ()) Paperdata.table5);
      check "figure1 query" (Erm.Relation.cardinal (figure1 ()) = 2) ]
  in
  if List.for_all (fun x -> x) all then
    print_endline "  all artifacts verified against the paper\n"
  else begin
    print_endline "  ARTIFACT VERIFICATION FAILED - timings would be lies";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Workload fixtures (built once, outside the timed closures)          *)

let rng = Workload.Rng.create 42

let evidence_with_focals =
  List.map
    (fun focals ->
      let dom = Workload.Gen.domain ~size:(2 * focals) "sweep" in
      let a = Workload.Gen.evidence rng ~focals ~max_focal_size:3 dom in
      let b = Workload.Gen.evidence rng ~focals ~max_focal_size:3 dom in
      (focals, a, b))
    [ 2; 4; 8; 16 ]

let sweep_schema = Workload.Gen.schema "sweep"

let relations_by_size =
  List.map
    (fun size -> (size, Workload.Gen.relation rng ~size sweep_schema))
    [ 100; 1000; 10000 ]

let union_pairs =
  List.map
    (fun overlap ->
      let a, b =
        Workload.Gen.source_pair rng ~size:1000 ~overlap sweep_schema
      in
      (overlap, a, b))
    [ 0.0; 0.5; 1.0 ]

let join_left = Workload.Gen.relation rng ~size:30 sweep_schema

let join_right =
  Erm.Ops.rename_attrs
    (fun n -> "r_" ^ n)
    (Workload.Gen.relation rng ~size:30 sweep_schema)

let baseline_pair =
  Workload.Gen.source_pair rng ~size:1000 ~overlap:0.5 sweep_schema

let pv_pair =
  let a, b = baseline_pair in
  ( Baselines.Partial_value.relation_of_extended a,
    Baselines.Partial_value.relation_of_extended b )

let ppv_pair =
  let a, b = baseline_pair in
  ( Baselines.Prob_partial.relation_of_extended a,
    Baselines.Prob_partial.relation_of_extended b )

let is_pred = Erm.Predicate.is_values "e0" [ "v0"; "v1" ]

let theta_pred =
  Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e0")
    (Erm.Predicate.Field "e1")

let supports =
  (Dst.Support.make ~sn:0.5 ~sp:0.8, Dst.Support.make ~sn:0.6 ~sp:1.0)

(* Ablation fixtures *)

module Mq = Dst.Mass.Make (Dst.Num.Rational)

let rational_pair =
  let frame = Dst.Mass.F.frame Paperdata.wok_m1 in
  ( Mq.make frame Paperdata.sec22_m1_exact,
    Mq.make frame Paperdata.sec22_m2_exact )

let theta_operands =
  let dom = Workload.Gen.domain ~size:12 "theta" in
  let a = Workload.Gen.evidence rng ~focals:6 ~max_focal_size:4 dom in
  let b = Workload.Gen.evidence rng ~focals:6 ~max_focal_size:4 dom in
  ( Erm.Predicate.Const (Erm.Etuple.Evidence a),
    Erm.Predicate.Const (Erm.Etuple.Evidence b) )

let ablation_sources =
  Workload.Gen.source_pair rng ~size:500 ~overlap:0.5 sweep_schema

let pushdown_env =
  let a = Workload.Gen.relation rng ~size:60 sweep_schema in
  let b =
    Erm.Ops.rename_attrs (fun n -> "r_" ^ n)
      (Workload.Gen.relation rng ~size:60 sweep_schema)
  in
  [ ("wa", a); ("wb", b) ]

let pushdown_query =
  Query.Parser.parse
    "SELECT * FROM (wa JOIN wb ON e0 = r_e0) WHERE e1 IS {v0, v1} AND r_e1 \
     IS {v2, v3}"

let pushdown_optimized = Query.Plan.optimize pushdown_env pushdown_query

let coarse_frame = Workload.Gen.domain ~size:4 "coarse"
let fine_frame = Workload.Gen.domain ~size:16 "fine"

let refining =
  Dst.Refinement.make ~coarse:coarse_frame ~fine:fine_frame (fun v ->
      match v with
      | Dst.Value.String s ->
          let base =
            4 * int_of_string (String.sub s 1 (String.length s - 1))
          in
          Dst.Vset.of_strings
            (List.init 4 (fun i -> "v" ^ string_of_int (base + i)))
      | _ -> assert false)

let coarse_evidence =
  Workload.Gen.evidence rng ~focals:3 ~max_focal_size:2 coarse_frame

let skew_dom = Workload.Gen.domain ~size:16 "skewed"

let skew_pairs =
  List.map
    (fun zipf_skew ->
      let mk () =
        Workload.Gen.evidence rng ~focals:4 ~max_focal_size:3 ~zipf_skew
          skew_dom
      in
      (zipf_skew, List.init 64 (fun _ -> (mk (), mk ()))))
    [ 0.0; 1.2 ]

let indexed_relation = Workload.Gen.relation rng ~size:10000 sweep_schema
let city_index = Erm.Index.build indexed_relation "a0"

let index_probe =
  (* Some value that actually occurs. *)
  match Erm.Relation.tuples indexed_relation with
  | t :: _ ->
      Erm.Etuple.definite_value
        (Erm.Relation.schema indexed_relation)
        t "a0"
  | [] -> assert false

let index_scan_pred =
  Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "a0")
    (Erm.Predicate.Const (Erm.Etuple.Definite index_probe))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)

let t name f = Test.make ~name (Staged.stage f)

let artifact_tests =
  [ t "sec2.1:bel-pls" (fun () ->
        Dst.Mass.F.interval Paperdata.wok_m1
          (Dst.Vset.of_strings [ "ca"; "hu"; "si" ]));
    t "sec2.2:combine" (fun () ->
        Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2);
    t "table2:selection" table2;
    t "table3:compound-selection" table3;
    t "table4:extended-union" table4;
    t "table5:projection" table5;
    t "figure1:pipeline-query" figure1;
    t "figure1:merge-with-report" (fun () ->
        Integration.Merge.by_key Paperdata.r_a Paperdata.r_b);
    t "figure3:f-ss+f-tm" (fun () ->
        let tuple =
          Erm.Relation.find Paperdata.r_a [ Dst.Value.string "garden" ]
        in
        let support =
          Erm.Predicate.eval Paperdata.schema tuple
            (Erm.Predicate.is_values "speciality" [ "si" ])
        in
        Dst.Support.f_tm (Erm.Etuple.tm tuple) support) ]

let combine_sweep =
  List.map
    (fun (focals, a, b) ->
      t (Printf.sprintf "sweep:combine-focals-%02d" focals) (fun () ->
          Dst.Mass.F.combine a b))
    evidence_with_focals

let rules_sweep =
  let _, a, b = List.nth evidence_with_focals 2 in
  [ t "rules:dempster" (fun () -> Dst.Mass.F.combine a b);
    t "rules:yager" (fun () -> Dst.Mass.F.combine_yager a b);
    t "rules:dubois-prade" (fun () -> Dst.Mass.F.combine_dubois_prade a b);
    t "rules:average" (fun () -> Dst.Mass.F.combine_average a b);
    t "rules:disjunctive" (fun () -> Dst.Mass.F.combine_disjunctive a b) ]

let select_sweep =
  List.concat_map
    (fun (size, r) ->
      [ t (Printf.sprintf "sweep:select-is-%05d" size) (fun () ->
            Erm.Ops.select is_pred r);
        t (Printf.sprintf "sweep:select-theta-%05d" size) (fun () ->
            Erm.Ops.select theta_pred r) ])
    relations_by_size

let union_sweep =
  List.map
    (fun (overlap, a, b) ->
      t (Printf.sprintf "sweep:union-1000-overlap-%.1f" overlap) (fun () ->
          Erm.Ops.union a b))
    union_pairs

let join_tests =
  [ t "sweep:product-30x30" (fun () -> Erm.Ops.product join_left join_right);
    t "sweep:join-30x30" (fun () ->
        Erm.Ops.join
          (Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e0")
             (Erm.Predicate.Field "r_e0"))
          join_left join_right) ]

let baseline_tests =
  let a, b = baseline_pair in
  let pa, pb = pv_pair in
  let qa, qb = ppv_pair in
  [ t "baseline:ds-union-1000" (fun () -> Erm.Ops.union a b);
    t "baseline:partial-value-union-1000" (fun () ->
        Baselines.Partial_value.union pa pb);
    t "baseline:prob-partial-union-1000" (fun () ->
        Baselines.Prob_partial.union qa qb) ]

let query_tests =
  [ t "query:parse" (fun () -> Query.Parser.parse figure1_query);
    t "query:optimize" (fun () ->
        Query.Plan.optimize figure1_env (Query.Parser.parse figure1_query));
    t "query:evidence-parse" (fun () ->
        Dst.Evidence.of_string Paperdata.speciality
          "[si^0.5; {hu,si}^0.25; ~^0.25]") ]

let support_tests =
  let s1, s2 = supports in
  [ t "support:f-tm" (fun () -> Dst.Support.f_tm s1 s2);
    t "support:dempster" (fun () -> Dst.Support.combine s1 s2) ]

(* Ablations: design choices DESIGN.md calls out, measured head to head. *)

let ablation_tests =
  let a, b = ablation_sources in
  let q1, q2 = rational_pair in
  let ta, tb = theta_operands in
  let pred_ff = Erm.Predicate.Theta (Erm.Predicate.Le, ta, tb) in
  let pred_fe = Erm.Predicate.Theta_fe (Erm.Predicate.Le, ta, tb) in
  let garden = Erm.Relation.find Paperdata.r_a [ Dst.Value.string "garden" ] in
  [ t "ablation:merge-plain" (fun () -> Integration.Merge.by_key a b);
    t "ablation:merge-discounted" (fun () ->
        Integration.Reliability.merge_discounted ~alpha_left:0.9
          ~alpha_right:0.9 a b);
    t "ablation:merge-assess-then-discount" (fun () ->
        Integration.Reliability.merge_discounted a b);
    t "ablation:combine-float" (fun () ->
        Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2);
    t "ablation:combine-exact-rational" (fun () -> Mq.combine q1 q2);
    t "ablation:query-naive" (fun () ->
        Query.Eval.eval pushdown_env pushdown_query);
    t "ablation:query-optimized" (fun () ->
        Query.Eval.eval pushdown_env pushdown_optimized);
    t "ablation:theta-forall-forall" (fun () ->
        Erm.Predicate.eval Paperdata.schema garden pred_ff);
    t "ablation:theta-forall-exists" (fun () ->
        Erm.Predicate.eval Paperdata.schema garden pred_fe);
    t "ablation:refine-evidence" (fun () ->
        Dst.Refinement.refine refining coarse_evidence);
    t "ablation:rank-top10-of-500" (fun () -> Erm.Rank.top 10 a);
    t "ablation:select-eq-scan-10000" (fun () ->
        Erm.Ops.select index_scan_pred indexed_relation);
    t "ablation:select-eq-index-10000" (fun () ->
        Erm.Index.select_eq city_index indexed_relation index_probe);
    t "ablation:combine-approximated-16-to-6" (fun () ->
        let _, a16, b16 = List.nth evidence_with_focals 3 in
        Dst.Mass.F.combine
          (Dst.Mass.F.approximate ~max_focals:6 a16)
          (Dst.Mass.F.approximate ~max_focals:6 b16));
    t "ablation:summarize-pool-500" (fun () ->
        Erm.Summarize.pool_evidence a "e0") ]
  @ List.map
      (fun (skew, pairs) ->
        t (Printf.sprintf "sweep:union-evidence-skew-%.1f" skew) (fun () ->
            List.iter
              (fun (x, y) -> ignore (Dst.Mass.F.combine x y))
              pairs))
      skew_pairs

let federated_tests =
  let a, b = baseline_pair in
  let pred = Erm.Predicate.is_values "e0" [ "v0" ] in
  let threshold = Erm.Threshold.sn_gt 0.2 in
  [ t "federated:merge-first-1000" (fun () ->
        Integration.Federated.merge_first ~threshold pred a b);
    t "federated:select-first-1000" (fun () ->
        Integration.Federated.select_first ~threshold pred a b) ]

(* ------------------------------------------------------------------ *)
(* Measurement: one batch timer, one interleaved leg routine           *)

(* Mean ns per call of [f]: one warm-up call, then calls until [budget]
   seconds have passed (at most 1000). Bechamel's quota-driven
   repetition would take hours on the 10^8-pair nested loop, so a call
   that alone uses up the budget is not repeated: its warm-up time is
   the result. *)
let ns_per_run ?(budget = 0.2) f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  let t1 = Unix.gettimeofday () in
  if t1 -. t0 >= budget then (t1 -. t0) *. 1e9
  else
    let rec go n =
      ignore (f ());
      let dt = Unix.gettimeofday () -. t1 in
      if dt < budget && n < 1000 then go (n + 1)
      else dt /. float_of_int n *. 1e9
    in
    go 1

(* One gate leg: the min of 3 short batches, from a collected heap so a
   leg does not pay for the garbage the leg before it left behind. *)
let leg ?(budget = 0.05) f () =
  Gc.full_major ();
  let batch () = ns_per_run ~budget f in
  Float.min (batch ()) (Float.min (batch ()) (batch ()))

type timings = {
  names : string list;  (** leg names, baseline first *)
  per_round : float array list;  (** ns/run of each leg, in [names] order *)
}

(* Times each leg once per round, over nine rounds. The legs after the
   baseline run back to back in list order, so a disabled leg runs right
   after its enabled one; the baseline goes before them in even rounds
   and after them in odd ones, so no compared leg is always the first,
   cold one. *)
let alternating_legs (name, baseline) legs =
  let others () = List.map (fun (_, f) -> f ()) legs in
  let round i =
    if i mod 2 = 0 then
      let b = baseline () in
      b :: others ()
    else
      let o = others () in
      baseline () :: o
  in
  { names = name :: List.map fst legs;
    per_round = List.init 9 (fun i -> Array.of_list (round i)) }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* BENCH_*.json                                                         *)

type json =
  | N of string  (** a number (or null), already formatted *)
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let int n = N (string_of_int n)
let fixed digits x = N (Printf.sprintf "%.*f" digits x)

(* Arrays of objects get one element per line; everything else stays on
   its line. *)
let rec json_to_string indent = function
  | N s -> s
  | S s -> "\"" ^ s ^ "\""
  | B b -> string_of_bool b
  | L (O _ :: _ as xs) ->
      let inner = indent ^ "  " in
      "[\n" ^ inner
      ^ String.concat (",\n" ^ inner) (List.map (json_to_string inner) xs)
      ^ "\n" ^ indent ^ "]"
  | L xs -> "[" ^ String.concat ", " (List.map (json_to_string indent) xs) ^ "]"
  | O fields ->
      "{ "
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> "\"" ^ k ^ "\": " ^ json_to_string indent v)
             fields)
      ^ " }"

(* Writes a top-level object, one field per line. *)
let write_json file fields =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      output_string oc
        (String.concat ",\n"
           (List.map
              (fun (k, v) -> "  \"" ^ k ^ "\": " ^ json_to_string "  " v)
              fields));
      output_string oc "\n}\n");
  Printf.printf "  wrote %s\n\n%!" file

(* ------------------------------------------------------------------ *)
(* Span capture for the BENCH_*.json artifacts                         *)

(* Timed loops all run with tracing off (the disabled guard is the
   production configuration); afterwards one representative execution
   is repeated with spans on and its per-operator summary is embedded
   next to the timings. A failing traced run fails the bench. *)
let traced_spans f =
  Obs.Trace.clear Obs.Trace.default;
  Obs.Trace.enable Obs.Trace.default;
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.disable Obs.Trace.default;
        Obs.Trace.clear Obs.Trace.default)
      (fun () ->
        f ();
        Obs.Trace.summary Obs.Trace.default)
  in
  L
    (List.map
       (fun (name, count, total_ms) ->
         O
           [ ("op", S name);
             ("count", int count);
             ("total_ms", fixed 3 total_ms) ])
       summary)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant federation: latency and result quality vs fault rate *)

(* federated:faulty — the degradation runtime over four 500-tuple
   sources at increasing failure/corruption rates. Latency is wall
   clock (the clock inside the runtime is virtual, so injected latency
   and backoff cost nothing real); quality is the largest |Δsn| of any
   key shared with the fault-free reference plus the count of entities
   lost to failed or truncated sources. Deterministic: fixed seeds.
   Results go to stdout and BENCH_federation.json. *)
let federation_fault_sweep () =
  let fed_rng = Workload.Rng.create 4242 in
  let fed_schema = Workload.Gen.schema "faulty" in
  let a, b = Workload.Gen.source_pair fed_rng ~size:500 ~overlap:0.6 fed_schema in
  let c = Workload.Gen.reobserve fed_rng a in
  let d = Workload.Gen.reobserve fed_rng b in
  let rels = [ ("fa", a); ("fb", b); ("fc", c); ("fd", d) ] in
  let reference =
    Integration.Multi.integrate
      (List.map
         (fun (n, r) ->
           { Integration.Multi.source_name = n; source_relation = r })
         rels)
  in
  let config =
    { Federation.Degrade.default with
      policy =
        { Federation.Retry.default with retries = 3; deadline_ms = Some 500.0 };
      min_sources = 1 }
  in
  let run_once fail_rate seed =
    let clock = Federation.Clock.simulated () in
    let spec =
      { Federation.Fault.none with
        fail_rate;
        corrupt_rate = fail_rate /. 2.0;
        drop_rate = 0.3;
        latency_ms = 5.0 }
    in
    let sources =
      List.map
        (fun (n, r) ->
          Federation.Fault.wrap ~seed ~clock spec
            (Federation.Source.of_relation ~name:n r))
        rels
    in
    Federation.Degrade.integrate ~config ~seed ~clock sources
  in
  print_endline
    "federated:faulty (4 sources x 500 tuples, quality vs fault-free \
     reference):";
  let rows =
    List.map
      (fun fail_rate ->
        let ns = ns_per_run (fun () -> run_once fail_rate 1) in
        (* Quality over 20 seeded chaos runs: worst sn deviation on
           surviving keys, mean entity loss. *)
        let seeds = List.init 20 (fun i -> i + 1) in
        let gaps, losses =
          List.fold_left
            (fun (gaps, losses) seed ->
              match run_once fail_rate seed with
              | Error _ -> (gaps, losses +. 1.0)
              | Ok report ->
                  let integrated =
                    report.Federation.Degrade.multi.integrated
                  in
                  let gap =
                    Erm.Relation.fold
                      (fun t acc ->
                        match
                          Erm.Relation.find_opt integrated (Erm.Etuple.key t)
                        with
                        | None -> acc
                        | Some t' ->
                            Float.max acc
                              (Float.abs
                                 (Dst.Support.sn (Erm.Etuple.tm t)
                                 -. Dst.Support.sn (Erm.Etuple.tm t'))))
                      reference.Integration.Multi.integrated 0.0
                  in
                  let lost =
                    Erm.Relation.cardinal reference.Integration.Multi.integrated
                    - Erm.Relation.cardinal integrated
                  in
                  (Float.max gaps gap, losses +. float_of_int (max 0 lost)))
            (0.0, 0.0) seeds
        in
        let mean_lost = losses /. float_of_int (List.length seeds) in
        Printf.printf
          "  fail=%.1f  %10.0f ns/run  max sn gap %.4f  mean entities lost \
           %.1f\n\
           %!"
          fail_rate ns gaps mean_lost;
        O
          [ ("fail_rate", fixed 2 fail_rate);
            ("ns_per_run", fixed 0 ns);
            ("max_sn_gap", fixed 4 gaps);
            ("mean_entities_lost", fixed 1 mean_lost) ])
      [ 0.0; 0.2; 0.5; 0.8 ]
  in
  let spans = traced_spans (fun () -> ignore (run_once 0.5 1)) in
  write_json "BENCH_federation.json"
    [ ("federation_fault_sweep", L rows); ("spans", spans) ]

(* ------------------------------------------------------------------ *)
(* Join scaling: indexed vs nested loop, sizes 10^2 .. 10^6, plus the  *)
(* physical executor inline and through the sharded engine             *)

(* The nested loop is only run up to 10^4 (10^8 pairs, one timed call);
   above that its column is null. Results go to stdout and
   BENCH_join.json. *)
let join_scaling () =
  let key_eq =
    Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "k")
      (Erm.Predicate.Field "r_k")
  in
  let join_q = Query.Parser.parse "ja JOIN jb ON k = r_k" in
  print_endline "join-scaling (equi-join on the definite key, |out| = n):";
  let rows =
    List.map
      (fun size ->
        let a =
          Workload.Gen.relation
            (Workload.Rng.create (1000 + size))
            ~size sweep_schema
        in
        let b =
          Erm.Ops.rename_attrs
            (fun n -> "r_" ^ n)
            (Workload.Gen.relation
               (Workload.Rng.create (2000 + size))
               ~size sweep_schema)
        in
        let nested_ns =
          if size > 10_000 then None (* n^2 > 10^8 pairs: hours per run *)
          else Some (ns_per_run (fun () -> Erm.Ops.join key_eq a b))
        in
        let indexed_ns =
          ns_per_run (fun () ->
              Erm.Ops.join_indexed ~left_attr:"k" ~right_attr:"r_k" a b)
        in
        (* Inline next to the sharded engine (4 shards, growing worker
           counts) splits the physical layer's cost from the engine's;
           metrics and tracing are off here. *)
        let env = [ ("ja", a); ("jb", b) ] in
        let strategy_ns strategy =
          ns_per_run (fun () ->
              Query.Physical.eval_fast
                ~ctx:(Query.Physical.create_ctx ())
                ~strategy env join_q)
        in
        let inline_ns = strategy_ns Query.Physical.Inline in
        let sharded_ns =
          List.map
            (fun domains ->
              ( domains,
                strategy_ns (Query.Physical.Sharded { shards = 4; domains }) ))
            [ 1; 2; 4 ]
        in
        Printf.printf
          "  n=%-7d nested-loop %s  indexed %12.0f ns  inline %12.0f ns%s\n%!"
          size
          (match nested_ns with
          | Some ns -> Printf.sprintf "%14.0f ns" ns
          | None -> "     (skipped) ")
          indexed_ns inline_ns
          (String.concat ""
             (List.map
                (fun (d, ns) -> Printf.sprintf "  shard4/dom%d %12.0f ns" d ns)
                sharded_ns));
        let opt f = function Some x -> f x | None -> N "null" in
        O
          [ ("size", int size);
            ("nested_ns", opt (fixed 0) nested_ns);
            ("indexed_ns", fixed 0 indexed_ns);
            ("speedup", opt (fun ns -> fixed 2 (ns /. indexed_ns)) nested_ns);
            ("inline_ns", fixed 0 inline_ns);
            ( "sharded",
              L
                (List.map
                   (fun (d, ns) ->
                     O
                       [ ("shards", int 4);
                         ("domains", int d);
                         ("ns", fixed 0 ns) ])
                   sharded_ns) ) ])
      [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  (* Per-operator spans for a representative physical-plan execution of
     the same equi-join at n = 1000 (hash join + two scans). *)
  let spans =
    let a =
      Workload.Gen.relation (Workload.Rng.create 3000) ~size:1000 sweep_schema
    in
    let b =
      Erm.Ops.rename_attrs
        (fun n -> "r_" ^ n)
        (Workload.Gen.relation (Workload.Rng.create 4000) ~size:1000
           sweep_schema)
    in
    let env = [ ("ja", a); ("jb", b) ] in
    traced_spans (fun () ->
        ignore (Query.Physical.run env "ja JOIN jb ON k = r_k"))
  in
  write_json "BENCH_join.json" [ ("join_scaling", L rows); ("spans", spans) ]

(* ------------------------------------------------------------------ *)
(* Incremental absorption vs full rebuild                              *)

(* The store's delta path folds one source update into the merged
   relation in O(changed entities) — Dempster's rule is associative, so
   the fold is bit-identical to rebuilding from scratch. This sweep
   quantifies what that buys: full rebuild vs Multi.absorb_delta at
   1%/10%/50% changed entities over 10^4..10^6-tuple relations.
   Results go to stdout and BENCH_incremental.json. *)
let incremental_sweep () =
  let schema = Workload.Gen.schema "inc" in
  print_endline "incremental absorption vs full rebuild:";
  let points =
    List.concat_map
      (fun n ->
        let base =
          Workload.Gen.relation (Workload.Rng.create 42) ~size:n schema
        in
        List.map
          (fun frac ->
            let k = max 1 (int_of_float (float_of_int n *. frac)) in
            let changed =
              Erm.Relation.of_tuples schema
                (List.filteri (fun i _ -> i < k) (Erm.Relation.tuples base))
            in
            let delta =
              Workload.Gen.reobserve (Workload.Rng.create (n + k)) changed
            in
            let src =
              { Integration.Multi.source_name = "d"; source_relation = delta }
            in
            let full_ns =
              ns_per_run (fun () ->
                  Integration.Multi.integrate
                    [ { Integration.Multi.source_name = "m";
                        source_relation = base };
                      src ])
            in
            let delta_ns =
              ns_per_run (fun () ->
                  Integration.Multi.absorb_delta ~into:base src)
            in
            Printf.printf
              "  n=%-8d changed=%-7d full %12.0f ns  delta %12.0f ns  \
               speedup %6.1fx\n\
               %!"
              n k full_ns delta_ns (full_ns /. delta_ns);
            O
              [ ("n", int n);
                ("changed", int k);
                ("full_ns", fixed 0 full_ns);
                ("delta_ns", fixed 0 delta_ns);
                ("speedup", fixed 1 (full_ns /. delta_ns)) ])
          [ 0.01; 0.1; 0.5 ])
      [ 10_000; 100_000; 1_000_000 ]
  in
  write_json "BENCH_incremental.json"
    [ ("workload", S "delta-vs-full"); ("points", L points) ]

(* ------------------------------------------------------------------ *)
(* Rule quality sweep over the adversarial scenario corpus             *)

(* Not a timing benchmark: a decision aid. Each rule (and a
   quarantining escalation policy) integrates the same
   adversarially-conflicting source pairs — Zadeh, near-total,
   one-against-many, dissenter, 50 rows each — and is scored on
   entity loss (fraction of rows dropped to total conflict or
   quarantine) and support gap (mean Pls - Bel of the best-supported
   hypothesis: how undecided the merged evidence stays). Dempster
   loses nothing but feigns certainty; quarantine trades rows for
   honesty; Yager keeps rows maximally undecided. Deterministic: fixed
   seeds. Results go to stdout and BENCH_rules.json. *)
let rules_quality_sweep () =
  let dom = Workload.Gen.domain ~size:8 "rulesq" in
  let rows = 50 in
  let policies =
    List.map
      (fun rule -> (Dst.Rule.to_string rule, Dst.Rule.make rule))
      (Dst.Rule.all @ [ Dst.Rule.discount_then_combine 0.9 ])
    @ [ ( "dempster->quarantine@0.9",
          Dst.Rule.make
            ~escalation:(Dst.Rule.escalate ~kappa0:0.9 Dst.Rule.Quarantine)
            Dst.Rule.Dempster );
        ( "dempster->yager@0.9",
          Dst.Rule.make
            ~escalation:
              (Dst.Rule.escalate ~kappa0:0.9
                 (Dst.Rule.Fallback Dst.Rule.Yager))
            Dst.Rule.Dempster ) ]
  in
  let singletons =
    List.map
      (fun v -> Dst.Vset.of_list [ v ])
      (Dst.Vset.to_list (Dst.Domain.values dom))
  in
  (* Mean over evidence cells of Pls - Bel on the best (max-Bel)
     singleton: 0 = decided, 1 = total ignorance about the winner. *)
  let support_gap rel =
    let total, n =
      List.fold_left
        (fun (total, n) t ->
          List.fold_left
            (fun (total, n) cell ->
              match cell with
              | Erm.Etuple.Definite _ -> (total, n)
              | Erm.Etuple.Evidence e ->
                  let best =
                    List.fold_left
                      (fun best s ->
                        if Dst.Mass.F.bel e s > Dst.Mass.F.bel e best then s
                        else best)
                      (List.hd singletons) singletons
                  in
                  ( total +. (Dst.Mass.F.pls e best -. Dst.Mass.F.bel e best),
                    n + 1 ))
            (total, n) (Erm.Etuple.cells t))
        (0.0, 0) (Erm.Relation.tuples rel)
    in
    if n = 0 then 0.0 else total /. float_of_int n
  in
  let score policy kind =
    let prng = Workload.Rng.create 424242 in
    let l, r = Workload.Scenario.source_pair prng ~rows kind dom in
    let merged, conflicts = Erm.Ops.union_report ~policy l r in
    let quarantined =
      List.length (List.filter Erm.Ops.is_quarantine conflicts)
    in
    let lost = rows - Erm.Relation.cardinal merged in
    ( float_of_int lost /. float_of_int rows,
      support_gap merged,
      quarantined )
  in
  print_endline "rules (entity loss / support gap over the conflict corpus):";
  Printf.printf "  %-26s" "";
  List.iter
    (fun kind -> Printf.printf " %16s" (Workload.Scenario.kind_name kind))
    Workload.Scenario.all_kinds;
  print_newline ();
  let rule_rows =
    List.map
      (fun (name, policy) ->
        Printf.printf "  %-26s" name;
        let kinds =
          List.map
            (fun kind ->
              let loss, gap, quarantined = score policy kind in
              Printf.printf "  %5.2f / %6.4f" loss gap;
              O
                [ ("kind", S (Workload.Scenario.kind_name kind));
                  ("entity_loss", fixed 4 loss);
                  ("support_gap", fixed 6 gap);
                  ("quarantined", int quarantined) ])
            Workload.Scenario.all_kinds
        in
        print_newline ();
        O [ ("rule", S name); ("kinds", L kinds) ])
      policies
  in
  print_newline ();
  write_json "BENCH_rules.json"
    [ ("rows_per_kind", int rows); ("rules", L rule_rows) ]

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)

(* What a gate's [measure] reports: its timed legs (none for an untimed
   gate), extra checks (description, pass) and extra report fields. *)
type measured = {
  timings : timings;
  checks : (string * bool) list;
  fields : (string * json) list;
}

type gate = {
  name : string;  (** run alone by [--NAME-gate] *)
  file : string;
  workload : string;
  gated : (string * string * float) option;
      (** numerator leg, denominator leg and bound: the median
          per-round ratio must stay within the bound *)
  info : (string * string) list;  (** ratios reported, not gated *)
  measure : unit -> measured;
}

(* A fresh store of [r] in a temp directory, removed however [f] exits. *)
let with_store tag r f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_bench_%s_%d" tag (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      ignore (Store.Estore.create ~dir ~name:"gate" r);
      f dir)

(* Prints the gate, writes its BENCH_*.json and names each failed
   check; returns whether the gate passed. *)
let run_gate g =
  let m = g.measure () in
  let t = m.timings in
  let columns =
    List.mapi (fun i n -> (n, List.map (fun r -> r.(i)) t.per_round)) t.names
  in
  let column leg = List.assoc leg columns in
  let ratio (num, den) =
    median (List.map2 ( /. ) (column num) (column den))
  in
  let gate_checks, gate_fields =
    match g.gated with
    | Some (num, den, bound) ->
        let r = ratio (num, den) in
        ( [ ( Printf.sprintf "%s/%s ratio %.3f (gate: <= %.2f)" num den r
                bound,
              r <= bound ) ],
          [ (num ^ "_over_" ^ den, fixed 4 r); ("gate", fixed 2 bound) ] )
    | None -> ([], [])
  in
  let info = List.map (fun (num, den) -> (num, den, ratio (num, den))) g.info in
  let checks = gate_checks @ m.checks in
  let pass = List.for_all snd checks in
  let rounds = List.length t.per_round in
  Printf.printf "%s-gate (%s%s):\n" g.name g.workload
    (if rounds = 0 then ""
     else Printf.sprintf ", median of %d interleaved rounds" rounds);
  let leg_ns = List.map (fun (n, ns) -> (n, median ns)) columns in
  List.iter
    (fun (n, ns) -> Printf.printf "  %-28s %12.0f ns/run\n" n ns)
    leg_ns;
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %s\n" k (json_to_string "" v))
    m.fields;
  List.iter
    (fun (num, den, r) ->
      Printf.printf "  %s/%s ratio %.3f (information, no gate)\n" num den r)
    info;
  List.iter
    (fun (what, ok) ->
      Printf.printf "  %s %s\n" what (if ok then "OK" else "FAIL"))
    checks;
  write_json g.file
    ([ ("workload", S g.workload) ]
    @ (if rounds = 0 then [] else [ ("rounds", int rounds) ])
    @ List.map (fun (n, ns) -> (n ^ "_ns", fixed 0 ns)) leg_ns
    @ gate_fields
    @ List.map (fun (num, den, r) -> (num ^ "_over_" ^ den, fixed 4 r)) info
    @ m.fields
    @ [ ("pass", B pass) ]);
  List.iter
    (fun (what, ok) ->
      if not ok then
        Printf.printf "  %s GATE FAILED - %s\n%!"
          (String.uppercase_ascii g.name)
          what)
    checks;
  pass

(* Provenance: three legs over the same Dempster-heavy workload
   (extended union of the 1000-tuple source pair): baseline (provenance
   off), enabled (every combination records lineage) and disabled (off
   again right after an enabled leg, arena reset). Flipping recording
   on and off may not leave residual cost in the hot paths. *)
let provenance_gate =
  { name = "provenance";
    file = "BENCH_provenance.json";
    workload = "union-1000";
    gated = Some ("disabled", "baseline", 1.05);
    info = [ ("enabled", "disabled") ];
    measure =
      (fun () ->
        let a, b = baseline_pair in
        let workload () = Erm.Ops.union a b in
        let off () =
          Obs.Provenance.disable ();
          Obs.Provenance.reset ()
        in
        (* Nodes one run records into a fresh arena. *)
        Obs.Provenance.reset ();
        Obs.Provenance.enable ();
        ignore (workload ());
        let nodes = Obs.Provenance.count () in
        off ();
        let off_leg = leg workload in
        let enabled () =
          Obs.Provenance.enable ();
          let ns = off_leg () in
          off ();
          ns
        in
        { timings =
            alternating_legs
              ("baseline", off_leg)
              [ ("enabled", enabled); ("disabled", off_leg) ];
          checks = [];
          fields = [ ("enabled_nodes", int nodes) ] }) }

(* Sharded engine: the Sharded strategy with shards = 1 must cost the
   same as the plain physical executor — the engine stands aside
   entirely below two shards, so routing everything through the
   strategy seam has to be free. The 4-shard single-worker ratio is
   information (partitioning + merge cost, paid back only when workers
   parallelise). *)
let sharded_gate =
  { name = "sharded";
    file = "BENCH_sharded_gate.json";
    workload = "union-1000";
    gated = Some ("sharded1", "inline", 1.05);
    info = [ ("sharded4", "inline") ];
    measure =
      (fun () ->
        let a, b = baseline_pair in
        let env = [ ("ua", a); ("ub", b) ] in
        let q = Query.Parser.parse "ua UNION ub" in
        let strategy_leg strategy () =
          let ctx = Query.Physical.create_ctx () in
          leg (fun () -> Query.Physical.eval_fast ~ctx ~strategy env q) ()
        in
        let sharded shards =
          strategy_leg (Query.Physical.Sharded { shards; domains = 1 })
        in
        { timings =
            alternating_legs
              ("inline", strategy_leg Query.Physical.Inline)
              [ ("sharded1", sharded 1); ("sharded4", sharded 4) ];
          checks = [];
          fields = [] }) }

(* Store: opening a clean store always replays every committed record;
   with verification on it additionally CRC-checks each record and
   re-checks each upsert's key digest. The gate bounds what that
   integrity checking may cost on the clean-store fast path. Every leg
   reopens the same files, so the page cache is warm; one open outlasts
   a batch's budget, so each batch times a single open. *)
let store_gate =
  { name = "store";
    file = "BENCH_store_gate.json";
    workload = "open-10k";
    gated = Some ("verified", "unverified", 1.05);
    info = [];
    measure =
      (fun () ->
        let r =
          Workload.Gen.relation (Workload.Rng.create 11) ~size:10_000
            (Workload.Gen.schema "gate")
        in
        with_store "store" r (fun dir ->
            let open_leg verify =
              leg (fun () -> Store.Estore.open_store ~verify dir)
            in
            { timings =
                alternating_legs
                  ("unverified", open_leg false)
                  [ ("verified", open_leg true) ];
              checks = [];
              fields = [] })) }

(* Sweep: the S-check sweep is a batch job, but it must stay a
   *feasible* batch job: the gate builds a 100k-tuple store, runs the
   full catalog sweep once under the metrics registry, and fails unless
   the sweep completes and every analysis.sweep.* counter is populated
   with the expected workload shape (1 run x |checks| checks x 100k
   tuples). Untimed: the one sweep's wall time is reported only. *)
let sweep_gate =
  { name = "sweep";
    file = "BENCH_sweep_gate.json";
    workload = "sweep-100k";
    gated = None;
    info = [];
    measure =
      (fun () ->
        let size = 100_000 in
        let r =
          Workload.Gen.relation (Workload.Rng.create 17) ~size
            (Workload.Gen.schema "gate")
        in
        with_store "sweep" r (fun dir ->
            let store, _report = Store.Estore.open_store dir in
            Obs.Metrics.enable ();
            Obs.Metrics.reset ();
            let diags = ref [] in
            let sweep_ns =
              ns_per_run ~budget:0.0 (fun () ->
                  diags :=
                    Analysis.Sweep.run
                      (Analysis.Sweep.subject ~store [ ("gate", r) ]))
            in
            let counter name = Obs.Metrics.counter ("analysis.sweep." ^ name) in
            let runs = counter "runs"
            and checks = counter "checks"
            and relations = counter "relations"
            and tuples = counter "tuples"
            and findings = counter "findings" in
            Obs.Metrics.disable ();
            let n_checks = List.length Analysis.Sweep.checks
            and n_findings = List.length !diags in
            { timings = { names = []; per_round = [] };
              checks =
                [ ( Printf.sprintf
                      "analysis.sweep.* runs=%d checks=%d relations=%d \
                       tuples=%d findings=%d (want 1/%d/1/%d/%d)"
                      runs checks relations tuples findings n_checks size
                      n_findings,
                    runs = 1 && checks = n_checks && relations = 1
                    && tuples = size && findings = n_findings ) ];
              fields =
                [ ("sweep_ns", fixed 0 sweep_ns);
                  ("tuples", int tuples);
                  ("checks", int checks);
                  ("findings", int findings) ] })) }

(* Rules: every merge path routes combinations through the κ-escalation
   seam (Mass.F.combine_policy) instead of calling the raw Dempster
   kernel directly. Both run over the same evidence pool; the policy
   check is two field reads, so the default dempster-no-escalation seam
   must cost what the raw kernel costs. *)
let rules_gate =
  { name = "rules";
    file = "BENCH_rules_gate.json";
    workload = "combine-200";
    gated = Some ("seam", "raw", 1.05);
    info = [];
    measure =
      (fun () ->
        let dom = Workload.Gen.domain ~size:8 "rulesgate" in
        let pairs =
          Array.init 200 (fun i ->
              let prng = Workload.Rng.create (1000 + i) in
              ( Workload.Gen.evidence prng ~omega_floor:0.05 dom,
                Workload.Gen.evidence prng ~omega_floor:0.05 dom ))
        in
        let over combine () =
          Array.iter (fun (a, b) -> ignore (combine a b)) pairs
        in
        { timings =
            alternating_legs
              ("raw", leg (over Dst.Mass.F.combine_opt))
              [ ( "seam",
                  leg
                    (over (Dst.Mass.F.combine_policy ~policy:Dst.Rule.dempster))
                ) ];
          checks = [];
          fields = [] }) }

(* Observability: telemetry must be strictly pay-for-use. After a
   fully-instrumented run (metrics + tracing + flight recorder over the
   4-shard/4-worker engine), turning everything off again has to leave
   the hot paths at their never-observed cost — the guards are one
   boolean load each. The enabled leg also proves the clamp is gone:
   with metrics recording, domains = 4 must still run 4 workers (the
   exec.workers gauge says what the pool actually did). *)
let obs_gate =
  { name = "obs";
    file = "BENCH_obs.json";
    workload = "sharded-union-1000";
    gated = Some ("disabled", "baseline", 1.05);
    info = [];
    measure =
      (fun () ->
        let a, b = baseline_pair in
        let env = [ ("ua", a); ("ub", b) ] in
        let q = Query.Parser.parse "ua UNION ub" in
        let strategy = Query.Physical.Sharded { shards = 4; domains = 4 } in
        (* A parallel run is tens of milliseconds with real scheduler
           jitter, so batches are long (several runs each). *)
        let off_leg () =
          let ctx = Query.Physical.create_ctx () in
          leg ~budget:0.3
            (fun () -> Query.Physical.eval_fast ~ctx ~strategy env q)
            ()
        in
        Obs.Metrics.disable ();
        Obs.Metrics.reset ();
        (* What the last enabled leg saw, read before everything is
           reset. *)
        let workers = ref 0 and events = ref 0 in
        let enabled () =
          Obs.Metrics.enable ();
          Obs.Metrics.reset ();
          Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
          Obs.Trace.enable Obs.Trace.default;
          Obs.Log.set_clock (Obs.Clock.simulated ());
          Obs.Log.enable ();
          let ns = off_leg () in
          workers :=
            (match Obs.Metrics.last "exec.workers" with
            | Some w -> int_of_float w
            | None -> 0);
          events := List.length (Obs.Log.events ());
          Obs.Metrics.disable ();
          Obs.Metrics.reset ();
          Obs.Trace.disable Obs.Trace.default;
          Obs.Trace.clear Obs.Trace.default;
          Obs.Log.disable ();
          Obs.Log.clear ();
          ns
        in
        let timings =
          alternating_legs
            ("baseline", off_leg)
            [ ("enabled", enabled); ("disabled", off_leg) ]
        in
        { timings;
          checks =
            [ ( Printf.sprintf "workers with metrics on = %d (gate: = 4)"
                  !workers,
                !workers = 4 ) ];
          fields =
            [ ("shards", int 4);
              ("domains", int 4);
              ("workers_with_metrics", int !workers);
              ("flight_events", int !events) ] }) }

let gates =
  [ provenance_gate;
    sharded_gate;
    store_gate;
    sweep_gate;
    rules_gate;
    obs_gate ]

(* [None]: runs only as part of the full run. *)
let sweeps =
  [ (None, federation_fault_sweep);
    (Some "--join-scaling", join_scaling);
    (Some "--incremental", incremental_sweep);
    (Some "--rules", rules_quality_sweep) ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)

let run_group (group_name, tests) =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let grouped = Test.make_grouped ~name:group_name tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%s:\n" group_name;
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ ns ] -> Printf.printf "  %-42s %12.1f ns/run\n" name ns
         | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name);
  print_newline ()

(* One flag runs one gate or sweep alone (CI runs each gate this way);
   no flag runs everything. Exits 1 when a gate failed, so CI fails. *)
let () =
  Exec.Engine.install ();
  let sweep run () =
    run ();
    true
  in
  let modes =
    List.filter_map
      (fun (flag, run) -> Option.map (fun flag -> (flag, sweep run)) flag)
      sweeps
    @ List.map (fun g -> ("--" ^ g.name ^ "-gate", fun () -> run_gate g)) gates
  in
  let passed =
    match
      List.find_opt
        (fun (flag, _) -> Array.exists (String.equal flag) Sys.argv)
        modes
    with
    | Some (_, run) -> run ()
    | None ->
        print_endline "verifying artifacts against the paper:";
        verify ();
        (* Gates first, on the heap a lone gate run sees: the 10^6-tuple
           sweeps leave gigabytes of heap behind. Every gate runs even
           after one fails. *)
        let passed =
          List.fold_left (fun passed g -> run_gate g && passed) true gates
        in
        List.iter (fun (_, run) -> run ()) sweeps;
        List.iter run_group
          [ ("paper-artifacts", artifact_tests);
            ("combination-scaling", combine_sweep);
            ("combination-rules", rules_sweep);
            ("selection-scaling", select_sweep);
            ("union-scaling", union_sweep);
            ("product-join", join_tests);
            ("baselines", baseline_tests);
            ("query-processing", query_tests);
            ("support-pairs", support_tests);
            ("federated-strategies", federated_tests);
            ("ablations", ablation_tests) ];
        passed
  in
  if not passed then exit 1
