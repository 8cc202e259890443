(* query-inline and query-sharded: a REPL-style session over three
   generated relations. One shared [Query.Physical.ctx] serves the whole
   session; the query stream is a seeded sequence of blocks, each block
   one query of every template in shuffled order. *)

let size = 10_000
let sharded = { Query.Physical.shards = 4; domains = 2 }

let templates = [| "probe"; "scan"; "join"; "union"; "union_select" |]
let operators = [ "index-scan"; "seq-scan"; "hash-join"; "union"; "filter" ]

type data = { env : Query.Eval.env; pools : string array array }

(* ra and rb share half their keys; rj re-observes rb under r_-prefixed
   attribute names, so ra JOIN rj matches on the shared half. Query
   parameters come from their own stream split off the data stream. *)
let generate seed =
  let rng = Workload.Rng.create seed in
  let schema = Workload.Gen.schema "r" in
  let ra, rb = Workload.Gen.source_pair rng ~size ~overlap:0.5 schema in
  let rj =
    Erm.Ops.rename_attrs (fun a -> "r_" ^ a) (Workload.Gen.reobserve rng rb)
  in
  let q = Workload.Rng.split rng in
  let evidential n attr =
    Array.init n (fun _ ->
        let v = Workload.Rng.int q 8 in
        let sn = 0.1 *. float_of_int (1 + Workload.Rng.int q 4) in
        Printf.sprintf "%s IS {v%d} WITH SN > %.1f" attr v sn)
  in
  let pools =
    [|
      Array.init 8 (fun _ ->
          Printf.sprintf "SELECT * FROM ra WHERE k = \"key%d\""
            (Workload.Rng.int q size));
      Array.map (( ^ ) "SELECT * FROM ra WHERE ") (evidential 4 "e0");
      [| "ra JOIN rj ON k = r_k" |];
      [| "ra UNION rb" |];
      Array.map (( ^ ) "SELECT * FROM (ra UNION rb) WHERE ") (evidential 4 "e1");
    |]
  in
  { env = [ ("ra", ra); ("rb", rb); ("rj", rj) ]; pools }

type samples = {
  mutable queries : Measure.sample list;
  mutable blocks_run : Measure.sample list;
  (* traced steps only *)
  mutable operator_ms : (string * float) list;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let empty_samples () =
  {
    queries = [];
    blocks_run = [];
    operator_ms = [];
    cache_hits = 0;
    cache_misses = 0;
  }

type t = {
  data : data;
  ctx : Query.Physical.ctx;
  strategy : Query.Physical.strategy;
  refs : Erm.Relation.t array array;
  blocks : (int, (int * int) array) Hashtbl.t;  (** generated so far *)
  stream : Workload.Rng.t;
  mutable s : samples;
}

let run_all ~strategy ctx data =
  Array.map (Array.map (Query.Physical.run ~ctx ~strategy data.env)) data.pools

(* Set-up: generate the relations, then warm a fresh context by running
   every distinct query once (indexes built, combine cache filled). *)
let setup ~strategy seed =
  Exec.Engine.reset_scan_cache ();
  let data = generate seed in
  let ctx = Query.Physical.create_ctx () in
  let warm = run_all ~strategy ctx data in
  (data, ctx, warm)

let prepare ~strategy ~setups seed =
  let first_warm = ref [||] and last = ref None in
  let setup_s =
    List.init setups (fun i ->
        last := None;
        Gc.full_major ();
        let t0 = Measure.now () in
        let ((_, _, warm) as r) = setup ~strategy seed in
        let dt = Measure.now () -. t0 in
        if i = 0 then first_warm := warm;
        last := Some r;
        dt)
  in
  let data, ctx, _ = Option.get !last in
  (* The references are Inline results computed on a context that the
     timed session never touches: the first set-up's own cold run for
     query-inline, a fresh Inline context for query-sharded. *)
  let refs =
    match strategy with
    | Query.Physical.Inline -> !first_warm
    | Sharded _ ->
        run_all ~strategy:Inline (Query.Physical.create_ctx ()) data
  in
  let t =
    {
      data;
      ctx;
      strategy;
      refs;
      blocks = Hashtbl.create 256;
      stream = Workload.Rng.create (seed + 0x5eed);
      s = empty_samples ();
    }
  in
  (setup_s, t)

(* Block [i] of the seeded stream: every template once, shuffled, each
   with a uniformly drawn instance of its pool. *)
let block t i =
  while Hashtbl.length t.blocks <= i do
    let order = Workload.Rng.shuffle t.stream [ 0; 1; 2; 3; 4 ] in
    Hashtbl.add t.blocks (Hashtbl.length t.blocks)
      (Array.of_list
         (List.map
            (fun k ->
              (k, Workload.Rng.int t.stream (Array.length t.data.pools.(k))))
            order))
  done;
  Hashtbl.find t.blocks i

let rec operator_self acc (r : Query.Physical.report) =
  List.fold_left operator_self
    ((r.r_op, r.r_stats.wall_ns /. 1e6) :: acc)
    r.r_children

(* One query. Untraced, it is the public one-shot [Physical.run]; traced,
   the same work is split into parse, plan and execute spans, and the
   Inline executor reports per-operator self times. *)
let execute t tr k q =
  let env = t.data.env in
  match tr with
  | None -> Query.Physical.run ~ctx:t.ctx ~strategy:t.strategy env q
  | Some _ ->
      Spans.span tr "query" (fun () ->
          let ast =
            Spans.span tr "query.parse" (fun () -> Query.Parser.parse q)
          in
          let plan =
            Spans.span tr "query.plan" (fun () ->
                Query.Physical.plan env (Query.Plan.optimize env ast))
          in
          match t.strategy with
          | Inline ->
              let r, report =
                Spans.span tr ("query.execute." ^ templates.(k)) (fun () ->
                    Query.Physical.execute_measured ~ctx:t.ctx env plan)
              in
              t.s.operator_ms <- operator_self t.s.operator_ms report;
              r
          | Sharded cfg ->
              Spans.span tr ("exec.execute." ^ templates.(k)) (fun () ->
                  Exec.Engine.execute cfg ~ctx:t.ctx env plan))

let cache_counts t =
  let c = Query.Physical.cache t.ctx in
  (Dst.Combine_cache.hits c, Dst.Combine_cache.misses c)

let run_op t (m : Measure.t) tr i =
  let hits0, misses0 = cache_counts t in
  let mark = Measure.mark () and parts = ref [] in
  Array.iter
    (fun (k, j) ->
      Measure.op m templates.(k) (fun () ->
          let r, x =
            Measure.timed m (fun () -> execute t tr k t.data.pools.(k).(j))
          in
          parts := x :: !parts;
          t.s.queries <- x :: t.s.queries;
          Measure.check "equals the set-up-time Inline reference"
            (Erm.Relation.equal r t.refs.(k).(j))))
    (block t i);
  t.s.blocks_run <- Measure.span_sample ~mark !parts :: t.s.blocks_run;
  if tr <> None then begin
    let hits1, misses1 = cache_counts t in
    t.s.cache_hits <- t.s.cache_hits + hits1 - hits0;
    t.s.cache_misses <- t.s.cache_misses + misses1 - misses0
  end

let reset_samples t = t.s <- empty_samples ()

let end_to_end t =
  let q = Measure.cal t.s.queries and n = List.length t.s.queries in
  let open Measure in
  [
    metric ~n "op_p50_cal" "cal" (median q);
    metric ~n:(List.length t.s.blocks_run) "cycle_cal" "cal"
      (median (cal t.s.blocks_run));
  ]

(* The workload table's figures, in wall-clock units. *)
let named t =
  let q = Measure.ms t.s.queries and n = List.length t.s.queries in
  let open Measure in
  [
    metric ~n "query_p50_ms" "ms" (median q);
    metric ~n "query_p90_ms" "ms" (percentile 0.9 q);
    metric ~n "queries_per_s" "1/s" (float_of_int n /. (sum q /. 1000.));
  ]

let per_layer t tracer =
  let execute layer =
    Array.to_list
      (Array.map
         (fun name ->
           Spans.median_metric tracer
             ~span:(layer ^ ".execute." ^ name)
             (layer ^ ".execute_ms." ^ name))
         templates)
  in
  let operator op =
    let ms =
      List.filter_map
        (fun (o, ms) -> if String.equal o op then Some ms else None)
        t.s.operator_ms
    in
    Measure.metric ~n:(List.length ms) ("physical.self_ms." ^ op) "ms"
      (Measure.median ms)
  in
  let lookups = t.s.cache_hits + t.s.cache_misses in
  let ratio =
    if lookups = 0 then 0.0
    else float_of_int t.s.cache_hits /. float_of_int lookups
  in
  [
    Spans.median_metric tracer ~span:"query.parse" "query.parse_ms";
    Spans.median_metric tracer ~span:"query.plan" "query.plan_ms";
  ]
  @ execute "query"
  @ List.map operator operators
  @ [
      Measure.metric ~n:lookups "combine_cache.hit_ratio" "ratio" ratio;
      Measure.metric "combine_cache.entries" "count"
        (float_of_int (Dst.Combine_cache.size (Query.Physical.cache t.ctx)));
    ]
  @ execute "exec"
