module P = Query.Physical

let fail fmt = Format.kasprintf (fun s -> raise (Query.Eval.Eval_error s)) fmt

let now_ns () =
  (Obs.Trace.clock Obs.Trace.default).Obs.Clock.now_ms () *. 1e6

(* --- canonical merge ------------------------------------------------ *)

(* Fold the shards back together in ascending shard order; Relation.add
   inserts into a key-ordered map, so the merged value is independent of
   that order anyway, and a Duplicate_key escape means the partition
   invariant broke — fail loudly rather than mask it. *)
let merge parts =
  let t0 = now_ns () in
  let out =
    Array.fold_left
      (fun acc part ->
        Erm.Relation.fold (fun t acc -> Erm.Relation.add acc t) part acc)
      (Erm.Relation.empty (Erm.Relation.schema parts.(0)))
      parts
  in
  Obs.Metrics.observe "exec.merge.ns" (now_ns () -. t0);
  out

let note_shard_rows parts =
  if Obs.Metrics.on () then
    Array.iter
      (fun r ->
        Obs.Metrics.observe "exec.shard.rows"
          (float_of_int (Erm.Relation.cardinal r)))
      parts

(* --- stored-relation scan cache ------------------------------------- *)

(* Base-relation partitions and their per-shard indexes survive across
   queries: a hit requires the physically identical relation value
   (same [==] pointer, so a rebound environment name misses) *and* an
   unchanged store generation — Store.Delta.apply bumps the generation,
   invalidating every entry the moment stored data moves. Populated and
   read only from [parts_of] closures, which run on the main domain, so
   no worker ever touches the table. *)

type scan_entry = {
  c_rel : Erm.Relation.t;
  c_gen : int;
  c_parts : Erm.Relation.t array;
  mutable c_indexes : (string * Erm.Index.t array) list;
}

let scan_cache : (string * int, scan_entry) Hashtbl.t = Hashtbl.create 8
let reset_scan_cache () = Hashtbl.reset scan_cache

let cached_parts ~shards name base =
  let gen = Store.Estore.generation () in
  match Hashtbl.find_opt scan_cache (name, shards) with
  | Some e when e.c_rel == base && e.c_gen = gen -> e
  | _ ->
      let e =
        {
          c_rel = base;
          c_gen = gen;
          c_parts = Shard.by_key ~shards base;
          c_indexes = [];
        }
      in
      Hashtbl.replace scan_cache (name, shards) e;
      e

let cached_indexes e attr =
  match List.assoc_opt attr e.c_indexes with
  | Some idxs ->
      Obs.Metrics.incr "exec.index.reuse";
      idxs
  | None ->
      let idxs = Array.map (fun p -> Erm.Index.build p attr) e.c_parts in
      e.c_indexes <- (attr, idxs) :: e.c_indexes;
      Obs.Metrics.incr "exec.index.build";
      idxs

(* --- the sharded executor ------------------------------------------- *)

let execute_plan cfg env plan =
  let shards = cfg.P.shards in
  (* Metrics, tracing and the flight recorder are safe at any worker
     count: the pool forks a telemetry buffer per shard and merges at
     the barrier in task-index order, so dumps are byte-identical
     whatever [domains] is. Only provenance (allocation-ordered lineage
     ids) still bypasses the engine — see [execute]. *)
  let workers = max 1 cfg.P.domains in
  Obs.Metrics.gauge "exec.shards" (float_of_int shards);
  Obs.Metrics.gauge "exec.workers" (float_of_int workers);
  (* One cold combine cache per shard, at every worker count: giving
     the single-worker run the same cold per-shard caches a parallel
     run gets is what makes combine_cache.* counters — and therefore
     whole metric dumps — worker-count-invariant. *)
  let shard_caches = Array.init shards (fun _ -> Dst.Combine_cache.create ()) in
  let run_shards f = Pool.run ~domains:workers ~tasks:shards f in
  let in_span op f =
    if Obs.Trace.on () then
      Obs.Trace.with_span ~cat:"exec"
        ~args:[ ("shards", string_of_int shards) ]
        ("exec." ^ op) f
    else f ()
  in
  let sharded op parts_of body =
    in_span op (fun () ->
        let inputs = parts_of () in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec." ^ op);
                ("shards", string_of_int shards);
                ("workers", string_of_int workers) ]
            Obs.Log.Shard_spawn
            ("fan out exec." ^ op);
        let outs = run_shards (fun i -> body i inputs) in
        note_shard_rows outs;
        let out = merge outs in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec." ^ op);
                ("rows", string_of_int (Erm.Relation.cardinal out)) ]
            Obs.Log.Shard_merge
            ("merged exec." ^ op);
        out)
  in
  let rec eval p =
    match p with
    | P.Scan { rel; access; residual; threshold; cols } -> (
        let base = Query.Eval.relation env rel in
        match access with
        | P.Seq_scan ->
            sharded "scan"
              (fun () -> (cached_parts ~shards rel base).c_parts)
              (fun i parts ->
                Query.Eval.select_project parts.(i) residual threshold cols)
        | P.Index_eq { attr; value } ->
            (* A per-shard index probe is exact: the bucket union over
               shards is the whole-relation bucket, and the residual
               runs per tuple. Partitions and indexes come from the
               scan cache (built on the main domain, reused while the
               store generation holds); the context's whole-relation
               index cache is left alone. *)
            sharded "scan"
              (fun () ->
                let e = cached_parts ~shards rel base in
                (e.c_parts, cached_indexes e attr))
              (fun i (parts, idxs) ->
                let bucket = Erm.Index.select_eq idxs.(i) parts.(i) value in
                Query.Eval.select_project bucket residual threshold cols))
    | P.Filter { input; where; threshold; cols } ->
        let child = eval input in
        sharded "filter"
          (fun () -> Shard.by_key ~shards child)
          (fun i parts ->
            Query.Eval.select_project parts.(i) where threshold cols)
    | P.Hash_join { left; right; left_attr; right_attr; residual; threshold }
      ->
        let ra = eval left in
        let rb = eval right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred =
          Query.Eval.bind_pred (Query.Eval.lookup_of_schemas sa sb) residual
        in
        sharded "hash-join"
          (fun () ->
            (* Partition both sides by the join value: equal values — the
               only pairs the equi-join keeps — land in the same shard. *)
            ( Shard.by_value ~shards ~attr:left_attr ra,
              Shard.by_value ~shards ~attr:right_attr rb ))
          (fun i (pa, pb) ->
            try
              Erm.Ops.join_indexed ~threshold ~residual:pred ~left_attr
                ~right_attr pa.(i) pb.(i)
            with Erm.Schema.Schema_error m -> fail "join: %s" m)
    | P.Loop_join { left; right; on; threshold } ->
        let ra = eval left in
        let rb = eval right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred =
          Query.Eval.bind_pred (Query.Eval.lookup_of_schemas sa sb) on
        in
        sharded "loop-join"
          (fun () -> Shard.by_key ~shards ra)
          (fun i parts ->
            (* Left-only partition, right replicated: each output tuple's
               key embeds its left tuple's key, so outputs stay
               disjoint. *)
            try Erm.Ops.join ~threshold pred parts.(i) rb
            with Erm.Schema.Schema_error m -> fail "join: %s" m)
    | P.Product (a, b) ->
        let ra = eval a in
        let rb = eval b in
        sharded "product"
          (fun () -> Shard.by_key ~shards ra)
          (fun i parts ->
            try Erm.Ops.product parts.(i) rb
            with Erm.Schema.Schema_error m -> fail "product: %s" m)
    | P.Union (a, b) ->
        let ra = eval a in
        let rb = eval b in
        sharded "union"
          (fun () -> (Shard.by_key ~shards ra, Shard.by_key ~shards rb))
          (fun i (pa, pb) ->
            try
              Erm.Ops.union_cached ~cache:shard_caches.(i) pa.(i) pb.(i)
            with Erm.Ops.Incompatible_schemas m -> fail "union: %s" m)
    | P.Intersect (a, b) ->
        let ra = eval a in
        let rb = eval b in
        sharded "intersect"
          (fun () -> (Shard.by_key ~shards ra, Shard.by_key ~shards rb))
          (fun i (pa, pb) ->
            try Erm.Ops.intersection pa.(i) pb.(i)
            with Erm.Ops.Incompatible_schemas m -> fail "intersect: %s" m)
    | P.Except (a, b) ->
        let ra = eval a in
        let rb = eval b in
        sharded "except"
          (fun () -> (Shard.by_key ~shards ra, Shard.by_key ~shards rb))
          (fun i (pa, pb) ->
            try Erm.Ops.difference pa.(i) pb.(i)
            with Erm.Ops.Incompatible_schemas m -> fail "except: %s" m)
    | P.Rank { input; by; ascending; limit } ->
        (* A LIMIT cuts globally: rank runs sequentially on the merged
           child (same as inline). *)
        let child = eval input in
        let order =
          match by with
          | Erm.Threshold.Sn -> Erm.Rank.By_sn
          | Erm.Threshold.Sp -> Erm.Rank.By_sp
        in
        in_span "rank" (fun () ->
            match limit with
            | None -> child
            | Some k ->
                if ascending then Erm.Rank.bottom ~order k child
                else Erm.Rank.top ~order k child)
    | P.Prefix { input; prefix } ->
        let child = eval input in
        in_span "prefix" (fun () ->
            try Erm.Ops.rename_attrs (fun n -> prefix ^ n) child
            with Erm.Schema.Schema_error m -> fail "prefix: %s" m)
  in
  eval plan

let execute cfg ?ctx env plan =
  let ctx = match ctx with Some c -> c | None -> P.create_ctx () in
  (* Lineage ids are allocation-ordered, so a shard-partitioned
     evaluation cannot reproduce the inline arena byte for byte; with
     recording on the engine therefore stands aside. A single shard is
     the inline evaluation anyway. *)
  if cfg.P.shards <= 1 || Obs.Provenance.on () then
    P.execute ~ctx env plan
  else execute_plan cfg env plan

let install () = P.set_sharded_runner (fun cfg ctx env plan ->
    execute cfg ~ctx env plan)

(* --- sharded integration -------------------------------------------- *)

module M = Integration.Multi

let integrate cfg ?policy ?discount ?alpha_floor ?prior sources =
  if cfg.P.shards <= 1 || Obs.Provenance.on () then
    M.integrate ?policy ?discount ?alpha_floor ?prior sources
  else
    match sources with
    | [] ->
        ignore (M.reliabilities ?discount ?alpha_floor ?prior [] []);
        raise M.No_sources
    | first :: rest ->
        ignore (M.reliabilities ?discount ?alpha_floor ?prior [] []);
        let shards = cfg.P.shards in
        let workers = max 1 cfg.P.domains in
        (* Reliabilities come from the global conflict matrix — a
           per-shard matrix would change the discount rates — and
           sources are discounted whole (a per-tuple operation, so
           partitioning after discounting is exact). *)
        let matrix = M.conflict_matrix sources in
        let reliabilities =
          M.reliabilities ?discount ?alpha_floor ?prior matrix sources
        in
        let prepared s =
          let alpha = List.assoc s.M.source_name reliabilities in
          if alpha >= 1.0 then s.M.source_relation
          else Integration.Reliability.discount_relation alpha s.M.source_relation
        in
        let first_parts = Shard.by_key ~shards (prepared first) in
        let rest_parts =
          List.map
            (fun s -> (s.M.source_name, Shard.by_key ~shards (prepared s)))
            rest
        in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec.integrate");
                ("shards", string_of_int shards);
                ("workers", string_of_int workers) ]
            Obs.Log.Shard_spawn "fan out exec.integrate";
        let shard_results =
          Pool.run ~domains:workers ~tasks:shards (fun i ->
              List.fold_left
                (fun (acc, confs) (name, parts) ->
                  let merged, cs = Erm.Ops.union_report ?policy acc parts.(i) in
                  (merged, confs @ List.map (fun c -> (name, c)) cs))
                (first_parts.(i), [])
                rest_parts)
        in
        let integrated = merge (Array.map fst shard_results) in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec.integrate");
                ("rows", string_of_int (Erm.Relation.cardinal integrated)) ]
            Obs.Log.Shard_merge "merged exec.integrate";
        (* Canonical conflict order: grouped by source in absorption
           order (as the unsharded fold reports), ascending key within a
           source (the per-shard lists are already ascending, and all
           conflicts of one key live in one shard, so a stable sort by
           key reproduces the unsharded order exactly). *)
        let all_confs =
          List.concat_map (fun (_, confs) -> confs)
            (Array.to_list shard_results)
        in
        let conflicts =
          List.concat_map
            (fun (name, _) ->
              List.stable_sort
                (fun (_, c1) (_, c2) ->
                  List.compare Dst.Value.compare c1.Erm.Ops.conflict_key
                    c2.Erm.Ops.conflict_key)
                (List.filter (fun (n, _) -> String.equal n name) all_confs))
            rest_parts
        in
        if Obs.Metrics.on () then begin
          Obs.Metrics.incr ~by:(List.length sources) "integration.sources";
          Obs.Metrics.incr ~by:(List.length conflicts) "integration.conflicts";
          List.iter
            (fun (_, _, k) -> Obs.Metrics.observe "integration.mean_kappa" k)
            matrix
        end;
        { M.integrated; conflicts; conflict_matrix = matrix; reliabilities }
