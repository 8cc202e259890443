(* Differential conformance harness: the execution surfaces must
   agree EXACTLY — same tuples, same evidence, bit-identical (sn, sp)
   supports — on randomly generated workloads:

   - the naive evaluator (Query.Eval), the reference semantics;
   - the physical planner (Query.Physical), with tracing off and on and
     with provenance recording on — observability must have no observer
     effect;
   - the sharded engine (Exec.Engine behind Query.Physical.Sharded),
     for every tested shard count × worker (domain) count, including
     with tracing or provenance recording live — partitioning and
     parallelism must have no representational effect either (each
     shard combines through its own cold Dst.Combine_cache);
   - the single-source integration surface (Integration.Multi), which
     must be the identity on any query result;
   - the persistent store's delta path (Store.Estore + Store.Delta):
     creating a store from the integration of a source prefix, folding
     the remaining source in as an on-disk delta, and reopening the
     store through recovery must reproduce Integration.Multi.integrate
     over all sources — persistence, incremental absorption and crash
     recovery together must have no representational effect.

   Equality here is stricter than Erm.Relation.equal: supports and
   masses are compared with Float.equal, not a tolerance. A double IS a
   dyadic rational, so bit-exact float comparison is exact-rational
   comparison of the values both pipelines actually computed — any
   reordering of Dempster combinations that changes even the last ulp
   is a divergence, and tolerance would mask it.

   Seeds: qcheck honours QCHECK_SEED, which CI pins, so a divergence
   found there reproduces locally with the same seed. *)

module R = Workload.Rng
module Q = Workload.Qgen
module G = Workload.Gen
module S = Dst.Support

let count = 250

let prop name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000

(* --- exact relation equality ----------------------------------------- *)

let exact_support s1 s2 =
  Float.equal (S.sn s1) (S.sn s2) && Float.equal (S.sp s1) (S.sp s2)

let exact_evidence e1 e2 =
  let f1 = Dst.Mass.F.focals e1 and f2 = Dst.Mass.F.focals e2 in
  List.length f1 = List.length f2
  && List.for_all2
       (fun (set1, m1) (set2, m2) ->
         Dst.Vset.equal set1 set2 && Float.equal m1 m2)
       f1 f2

let exact_cell c1 c2 =
  match (c1, c2) with
  | Erm.Etuple.Definite v1, Erm.Etuple.Definite v2 ->
      Dst.Value.compare v1 v2 = 0
  | Erm.Etuple.Evidence e1, Erm.Etuple.Evidence e2 -> exact_evidence e1 e2
  | Erm.Etuple.Definite _, Erm.Etuple.Evidence _
  | Erm.Etuple.Evidence _, Erm.Etuple.Definite _ ->
      false

let exact_tuple t1 t2 =
  List.compare Dst.Value.compare (Erm.Etuple.key t1) (Erm.Etuple.key t2) = 0
  && List.length (Erm.Etuple.cells t1) = List.length (Erm.Etuple.cells t2)
  && List.for_all2 exact_cell (Erm.Etuple.cells t1) (Erm.Etuple.cells t2)
  && exact_support (Erm.Etuple.tm t1) (Erm.Etuple.tm t2)

let exact_rel_equal r1 r2 =
  Erm.Relation.cardinal r1 = Erm.Relation.cardinal r2
  && List.for_all
       (fun t1 ->
         match Erm.Relation.find_opt r2 (Erm.Etuple.key t1) with
         | Some t2 -> exact_tuple t1 t2
         | None -> false)
       (Erm.Relation.tuples r1)

(* --- shared fixtures ------------------------------------------------- *)

(* One execution context across all cases: the index cache sees a stream
   of distinct relations under the same names, so staleness bugs break
   conformance immediately (same construction as test_plan_equiv). *)
let ctx = Query.Physical.create_ctx ()

let () = Exec.Engine.install ()

(* CI's obs job sets ERIDB_OBS=1: the whole grid then runs with the
   default metrics registry, tracer and flight recorder live, proving
   recording has no representational effect at any shard × worker
   point. Virtual clocks keep the ambient recording deterministic. *)
let () =
  match Sys.getenv_opt "ERIDB_OBS" with
  | Some ("1" | "true" | "on") ->
      Obs.Metrics.enable ();
      Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
      Obs.Trace.enable Obs.Trace.default;
      Obs.Log.set_clock (Obs.Clock.simulated ());
      Obs.Log.enable ()
  | Some _ | None -> ()

(* The sharded grid: every shard count × worker count combination the
   issue pins, plus whatever ERIDB_DOMAINS the environment supplies
   (CI's sharded job sets it), so the same binary sweeps a larger grid
   there without a rebuild. *)
let shard_counts = [ 1; 3; 8 ]

let domain_counts =
  let pinned = [ 1; 2; 4 ] in
  match Sys.getenv_opt "ERIDB_DOMAINS" with
  | None -> pinned
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 && not (List.mem n pinned) -> pinned @ [ n ]
      | _ -> pinned)

let sharded_grid ~ctx env q check =
  List.for_all
    (fun shards ->
      List.for_all
        (fun domains ->
          check
            (Query.Physical.eval_fast ~ctx
               ~strategy:(Query.Physical.Sharded { shards; domains })
               env q))
        domain_counts)
    shard_counts

let make_case seed =
  let env = Q.env (R.create seed) () in
  let q = Q.query (R.create (seed + 7919)) env in
  (env, q)

(* A fresh private tracer would not exercise the compiled-in guards —
   the observer-effect test must flip the DEFAULT tracer the hot paths
   consult, and restore it whatever happens. *)
let with_default_tracing f =
  (* Restore, don't force off: under ERIDB_OBS the ambient tracer must
     stay live for the legs that run after this one. *)
  let was_live = Obs.Trace.on () in
  Obs.Trace.clear Obs.Trace.default;
  Obs.Trace.enable Obs.Trace.default;
  Fun.protect
    ~finally:(fun () ->
      if not was_live then Obs.Trace.disable Obs.Trace.default;
      Obs.Trace.clear Obs.Trace.default)
    f

(* Same discipline for the lineage arena: the provenance legs must flip
   the default store the recording hooks consult. *)
let with_default_provenance f =
  Obs.Provenance.reset ();
  Obs.Provenance.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Provenance.disable ();
      Obs.Provenance.reset ())
    f

(* The store leg needs real files: each case builds, deltas and reopens
   a store in a throwaway directory. *)
let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_conf_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let store_schema = G.schema "conf_store"

(* Persist a two-source integration incrementally — create from the
   first source, fold the second in as an on-disk delta, reopen through
   recovery — and return what the store then holds. *)
let via_store dir r1 d =
  let t = Store.Estore.create ~dir ~name:"m" r1 in
  ignore (Store.Delta.apply t ~name:"d" d);
  let t2, _ = Store.Estore.open_store dir in
  Store.Estore.relation t2

let store_case s =
  let r1 = G.relation (R.create s) ~size:8 store_schema in
  let d = G.reobserve (R.create (s + 104729)) r1 in
  let sources =
    [ { Integration.Multi.source_name = "m"; source_relation = r1 };
      { Integration.Multi.source_name = "d"; source_relation = d } ]
  in
  (r1, d, sources)

(* --- properties ------------------------------------------------------ *)

let conformance_props =
  [ prop "physical = naive (exact tuples, exact supports)" seed_arb (fun s ->
        let env, q = make_case s in
        exact_rel_equal
          (Query.Eval.eval env q)
          (Query.Physical.eval_fast ~ctx env q));
    prop "tracing never changes a physical result" seed_arb (fun s ->
        let env, q = make_case s in
        let plain = Query.Physical.eval_fast ~ctx env q in
        let traced =
          with_default_tracing (fun () -> Query.Physical.eval_fast ~ctx env q)
        in
        exact_rel_equal plain traced);
    prop "traced physical = naive (no observer effect vs reference)"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        let traced =
          with_default_tracing (fun () -> Query.Physical.eval_fast ~ctx env q)
        in
        exact_rel_equal naive traced);
    prop "provenance never changes a physical result" seed_arb (fun s ->
        let env, q = make_case s in
        let plain = Query.Physical.eval_fast ~ctx env q in
        let recorded =
          with_default_provenance (fun () ->
            Query.Physical.eval_fast ~ctx env q)
        in
        exact_rel_equal plain recorded);
    prop "provenance-on physical = naive (no observer effect vs reference)"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        let recorded =
          with_default_provenance (fun () ->
            Query.Physical.eval_fast ~ctx env q)
        in
        exact_rel_equal naive recorded);
    prop "sharded = naive for every shard count x domain count" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        sharded_grid ~ctx env q (exact_rel_equal naive));
    prop "sharded under tracing = naive (no observer effect)" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        with_default_tracing (fun () ->
            sharded_grid ~ctx env q (exact_rel_equal naive)));
    prop "sharded under provenance = naive (no observer effect)" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        with_default_provenance (fun () ->
            sharded_grid ~ctx env q (exact_rel_equal naive)));
    prop "single-source integration is the identity on query results"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let r = Query.Eval.eval env q in
        let report =
          Integration.Multi.integrate
            [ { Integration.Multi.source_name = "only"; source_relation = r } ]
        in
        exact_rel_equal r report.Integration.Multi.integrated);
    prop "store delta + recovery = integrate (sharded grid)" seed_arb
      (fun s ->
        let r1, d, sources = store_case s in
        let stored = with_temp_dir (fun dir -> via_store dir r1 d) in
        exact_rel_equal stored
          (Integration.Multi.integrate sources).Integration.Multi.integrated
        && List.for_all
             (fun shards ->
               List.for_all
                 (fun domains ->
                   exact_rel_equal stored
                     (Exec.Engine.integrate
                        { Query.Physical.shards; domains }
                        sources)
                       .Integration.Multi.integrated)
                 domain_counts)
             shard_counts);
    prop "store delta under provenance = integrate (no observer effect)"
      seed_arb
      (fun s ->
        let r1, d, sources = store_case s in
        let plain =
          (Integration.Multi.integrate sources).Integration.Multi.integrated
        in
        let stored =
          with_default_provenance (fun () ->
              with_temp_dir (fun dir -> via_store dir r1 d))
        in
        exact_rel_equal plain stored) ]

(* --- leg 7: rule-parameterized conformance --------------------------- *)

(* The combination rule is a session-global strategy: under EVERY rule
   (and under an escalation policy) naive, physical and sharded
   execution must still agree bit-exactly, shard count x domain count
   across the same grid. The fast paths dispatch to per-rule flat
   kernels, so this leg is what licenses them. *)

let rule_policies =
  List.map Dst.Rule.make
    (Dst.Rule.all @ [ Dst.Rule.discount_then_combine 0.9 ])
  @ [ Dst.Rule.make
        ~escalation:
          (Dst.Rule.escalate ~kappa0:0.6
             (Dst.Rule.Fallback Dst.Rule.Averaging))
        Dst.Rule.Dempster ]

(* The policy sweep multiplies the grid, so these run at a lower count;
   QCHECK_SEED still pins the cases. *)
let rule_prop name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:40 seed_arb law)

let rule_props =
  [ rule_prop "every rule: physical = naive and sharded = naive (grid)"
      (fun s ->
        let env, q = make_case s in
        List.for_all
          (fun policy ->
            Dst.Rule.with_policy policy (fun () ->
                let naive = Query.Eval.eval env q in
                exact_rel_equal naive (Query.Physical.eval_fast ~ctx env q)
                && sharded_grid ~ctx env q (exact_rel_equal naive)))
          rule_policies);
    rule_prop "every rule: sharded integrate = naive integrate (grid)"
      (fun s ->
        let _, _, sources = store_case s in
        List.for_all
          (fun policy ->
            Dst.Rule.with_policy policy (fun () ->
                let naive =
                  (Integration.Multi.integrate sources)
                    .Integration.Multi.integrated
                in
                List.for_all
                  (fun shards ->
                    List.for_all
                      (fun domains ->
                        exact_rel_equal naive
                          (Exec.Engine.integrate
                             { Query.Physical.shards; domains }
                             sources)
                            .Integration.Multi.integrated)
                      domain_counts)
                  shard_counts))
          rule_policies) ]

let () =
  Alcotest.run "conformance"
    [ ("surfaces", conformance_props); ("rules", rule_props) ]
