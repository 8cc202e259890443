let fail fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

let src =
  Logs.Src.create "eridb.query" ~doc:"physical query plan execution"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Plan representation                                                 *)

type access = Seq_scan | Index_eq of { attr : string; value : Dst.Value.t }

type t =
  | Scan of {
      rel : string;
      access : access;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }
  | Filter of {
      input : t;
      where : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }
  | Hash_join of {
      left : t;
      right : t;
      left_attr : string;
      right_attr : string;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Loop_join of {
      left : t;
      right : t;
      on : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Product of t * t
  | Union of t * t
  | Intersect of t * t
  | Except of t * t
  | Rank of {
      input : t;
      by : Erm.Threshold.field;
      ascending : bool;
      limit : int option;
    }
  | Prefix of { input : t; prefix : string }

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let is_definite schema a =
  match Erm.Schema.find_opt schema a with
  | Some attr -> (
      match Erm.Attr.kind attr with
      | Erm.Attr.Definite _ -> true
      | Erm.Attr.Evidential _ -> false)
  | None -> false

(* An equality between a definite attribute and a constant value. Its
   selection support is crisp — (1,1) on the matching tuples, (0,0)
   elsewhere — so probing an index for the value and filtering by the
   residual is arithmetic-identical to the full scan. *)
let probe_of_conjunct schema = function
  | Ast.Is (a, [ v ]) when is_definite schema a -> Some (a, v)
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Attr a, Ast.Scalar v)
    when is_definite schema a ->
      Some (a, v)
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Scalar v, Ast.Attr a)
    when is_definite schema a ->
      Some (a, v)
  | _ -> None

(* An equality between a definite attribute of each operand — the
   hash-join key. Operands referencing the right schema first are
   swapped into (left, right) order. *)
let equi_of_conjunct sl sr = function
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Attr a, Ast.Attr b) ->
      if is_definite sl a && is_definite sr b then Some (a, b)
      else if is_definite sl b && is_definite sr a then Some (b, a)
      else None
  | _ -> None

(* First conjunct accepted by [pick], with the remaining conjuncts in
   their original order. *)
let extract pick conjs =
  let rec go seen = function
    | [] -> None
    | c :: rest -> (
        match pick c with
        | Some x -> Some (x, List.rev_append seen rest)
        | None -> go (c :: seen) rest)
  in
  go [] conjs

let rec plan env q =
  match q with
  | Ast.Rel name ->
      Scan
        { rel = name;
          access = Seq_scan;
          residual = Ast.True;
          threshold = Erm.Threshold.Always;
          cols = None }
  | Ast.Select { cols; from = Ast.Rel name; where; threshold } -> (
      let schema =
        match List.assoc_opt name env with
        | Some r -> Erm.Relation.schema r
        | None -> fail "unknown relation %s" name
      in
      match extract (probe_of_conjunct schema) (Plan.conjuncts where) with
      | Some ((attr, value), rest) ->
          Scan
            { rel = name;
              access = Index_eq { attr; value };
              residual = Plan.conjoin rest;
              threshold;
              cols }
      | None ->
          Scan { rel = name; access = Seq_scan; residual = where; threshold; cols })
  | Ast.Select { cols; from; where; threshold } ->
      Filter { input = plan env from; where; threshold; cols }
  | Ast.Join { left; right; on; threshold } -> (
      let pl = plan env left and pr = plan env right in
      let sl = Plan.infer_schema env left
      and sr = Plan.infer_schema env right in
      match extract (equi_of_conjunct sl sr) (Plan.conjuncts on) with
      | Some ((left_attr, right_attr), rest) ->
          Hash_join
            { left = pl;
              right = pr;
              left_attr;
              right_attr;
              residual = Plan.conjoin rest;
              threshold }
      | None -> Loop_join { left = pl; right = pr; on; threshold })
  | Ast.Product (a, b) -> Product (plan env a, plan env b)
  | Ast.Union (a, b) -> Union (plan env a, plan env b)
  | Ast.Intersect (a, b) -> Intersect (plan env a, plan env b)
  | Ast.Except (a, b) -> Except (plan env a, plan env b)
  | Ast.Ranked { from; by; ascending; limit } ->
      Rank { input = plan env from; by; ascending; limit }
  | Ast.Prefixed { from; prefix } -> Prefix { input = plan env from; prefix }

let plan_optimized env q = plan env (Plan.optimize env q)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let string_of_pred = function
  | Ast.True -> ""
  | p -> Format.asprintf " [%a]" Ast.pp_pred p

let string_of_threshold = function
  | Erm.Threshold.Always -> ""
  | t -> Format.asprintf " WITH %a" Erm.Threshold.pp t

let string_of_cols = function
  | None -> ""
  | Some cs -> " -> " ^ String.concat ", " cs

let label = function
  | Scan { rel; access = Seq_scan; residual; threshold; cols } ->
      ( "seq-scan",
        rel ^ string_of_pred residual ^ string_of_threshold threshold
        ^ string_of_cols cols )
  | Scan { rel; access = Index_eq { attr; value }; residual; threshold; cols }
    ->
      ( "index-scan",
        Format.asprintf "%s.%s = %a%s%s%s" rel attr Dst.Value.pp value
          (string_of_pred residual)
          (string_of_threshold threshold)
          (string_of_cols cols) )
  | Filter { where; threshold; cols; _ } ->
      ( "filter",
        (match where with
        | Ast.True -> "all"
        | p -> Format.asprintf "%a" Ast.pp_pred p)
        ^ string_of_threshold threshold ^ string_of_cols cols )
  | Hash_join { left_attr; right_attr; residual; threshold; _ } ->
      ( "hash-join",
        Format.asprintf "%s = %s%s%s" left_attr right_attr
          (string_of_pred residual)
          (string_of_threshold threshold) )
  | Loop_join { on; threshold; _ } ->
      ( "loop-join",
        Format.asprintf "%a%s" Ast.pp_pred on (string_of_threshold threshold)
      )
  | Product _ -> ("product", "")
  | Union _ -> ("union", "dempster merge, memoized")
  | Intersect _ -> ("intersect", "key-matched dempster merge")
  | Except _ -> ("except", "key difference")
  | Rank { by; ascending; limit; _ } ->
      ( "rank",
        Format.asprintf "by %s %s%s"
          (match by with Erm.Threshold.Sn -> "sn" | Erm.Threshold.Sp -> "sp")
          (if ascending then "asc" else "desc")
          (match limit with
          | Some k -> Printf.sprintf " limit %d" k
          | None -> "") )
  | Prefix { prefix; _ } -> ("prefix", prefix)

let children = function
  | Scan _ -> []
  | Filter { input; _ } | Rank { input; _ } | Prefix { input; _ } -> [ input ]
  | Hash_join { left; right; _ } | Loop_join { left; right; _ } ->
      [ left; right ]
  | Product (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      [ a; b ]

let rec pp_indented indent ppf p =
  let op, detail = label p in
  Format.fprintf ppf "%s%s%s" indent op
    (if detail = "" then "" else " [" ^ detail ^ "]");
  List.iter
    (fun child ->
      Format.pp_print_newline ppf ();
      pp_indented (indent ^ "  ") ppf child)
    (children p)

let pp ppf p = pp_indented "" ppf p
let to_string p = Format.asprintf "%a" pp p

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)

type ctx = {
  indexes : (string * string, Erm.Relation.t * Erm.Index.t) Hashtbl.t;
  cache : Dst.Combine_cache.t;
}

let create_ctx () =
  { indexes = Hashtbl.create 16; cache = Dst.Combine_cache.create () }

let cache ctx = ctx.cache

(* Indexes are immutable snapshots; reuse one only while the relation
   bound to the name is physically the same value. A rebound or updated
   relation misses the [==] test and the index is rebuilt — staleness by
   construction cannot be observed through the context. *)
let index_for ctx name r attr =
  match Hashtbl.find_opt ctx.indexes (name, attr) with
  | Some (r0, idx) when r0 == r -> idx
  | _ ->
      let idx = Erm.Index.build r attr in
      Hashtbl.replace ctx.indexes (name, attr) (r, idx);
      idx

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

type report = {
  r_op : string;
  r_detail : string;
  r_stats : Stats.t;
  r_children : report list;
}

(* Timing flows through the default tracer's clock so a simulated clock
   (ERIDB_CLOCK=virtual) makes per-operator wall times deterministic. *)
let now_ns () = (Obs.Trace.clock Obs.Trace.default).Obs.Clock.now_ms () *. 1e6

let execute_measured ?ctx env p =
  let ctx = match ctx with Some c -> c | None -> create_ctx () in
  let rec exec p =
    if Obs.Trace.on () then
      let op, detail = label p in
      Obs.Trace.with_span ~cat:"query.physical"
        ~args:[ ("detail", detail) ]
        op
        (fun () -> exec_node p)
    else exec_node p
  and exec_node p =
    let stats = Stats.create () in
    let finish ~children out =
      stats.Stats.rows_out <- Erm.Relation.cardinal out;
      let op, detail = label p in
      Stats.publish ~op stats;
      Log.debug (fun m -> m "%s [%s] %s" op detail (Stats.to_string stats));
      (out, { r_op = op; r_detail = detail; r_stats = stats; r_children = children })
    in
    match p with
    | Scan { rel; access; residual; threshold; cols } -> (
        let base = Eval.relation env rel in
        match access with
        | Seq_scan ->
            let t0 = now_ns () in
            let out = Eval.select_project base residual threshold cols in
            stats.Stats.wall_ns <- now_ns () -. t0;
            stats.Stats.rows_in <- Erm.Relation.cardinal base;
            stats.Stats.pruned <-
              stats.Stats.rows_in - Erm.Relation.cardinal out;
            finish ~children:[] out
        | Index_eq { attr; value } ->
            let t0 = now_ns () in
            let idx = index_for ctx rel base attr in
            let bucket = Erm.Index.select_eq idx base value in
            let candidates = Erm.Relation.cardinal bucket in
            Obs.Metrics.observe "physical.index_probe.rows"
              (float_of_int candidates);
            if candidates > 0 then stats.Stats.index_hits <- 1
            else stats.Stats.index_misses <- 1;
            let out = Eval.select_project bucket residual threshold cols in
            stats.Stats.wall_ns <- now_ns () -. t0;
            stats.Stats.rows_in <- candidates;
            stats.Stats.pruned <- candidates - Erm.Relation.cardinal out;
            finish ~children:[] out)
    | Filter { input; where; threshold; cols } ->
        let child, crep = exec input in
        let t0 = now_ns () in
        let out = Eval.select_project child where threshold cols in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <- Erm.Relation.cardinal child;
        stats.Stats.pruned <- stats.Stats.rows_in - Erm.Relation.cardinal out;
        finish ~children:[ crep ] out
    | Hash_join { left; right; left_attr; right_attr; residual; threshold } ->
        let ra, arep = exec left in
        let rb, brep = exec right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred = Eval.bind_pred (Eval.lookup_of_schemas sa sb) residual in
        let matched = ref 0 and kept = ref 0 in
        let tally ~hit ~matched:m ~kept:k =
          if hit then stats.Stats.index_hits <- stats.Stats.index_hits + 1
          else stats.Stats.index_misses <- stats.Stats.index_misses + 1;
          matched := !matched + m;
          kept := !kept + k
        in
        let t0 = now_ns () in
        let out =
          try
            Erm.Ops.join_indexed ~threshold ~residual:pred ~tally ~left_attr
              ~right_attr ra rb
          with Erm.Schema.Schema_error m -> fail "join: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <-
          Erm.Relation.cardinal ra + Erm.Relation.cardinal rb;
        stats.Stats.pruned <- !matched - !kept;
        finish ~children:[ arep; brep ] out
    | Loop_join { left; right; on; threshold } ->
        let ra, arep = exec left in
        let rb, brep = exec right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred = Eval.bind_pred (Eval.lookup_of_schemas sa sb) on in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.join ~threshold pred ra rb
          with Erm.Schema.Schema_error m -> fail "join: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <-
          Erm.Relation.cardinal ra + Erm.Relation.cardinal rb;
        stats.Stats.pruned <-
          (Erm.Relation.cardinal ra * Erm.Relation.cardinal rb)
          - Erm.Relation.cardinal out;
        finish ~children:[ arep; brep ] out
    | Product (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.product ra rb
          with Erm.Schema.Schema_error m -> fail "product: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <-
          Erm.Relation.cardinal ra + Erm.Relation.cardinal rb;
        stats.Stats.pruned <-
          (Erm.Relation.cardinal ra * Erm.Relation.cardinal rb)
          - Erm.Relation.cardinal out;
        finish ~children:[ arep; brep ] out
    | Union (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let h0 = Dst.Combine_cache.hits ctx.cache
        and m0 = Dst.Combine_cache.misses ctx.cache in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.union_cached ~cache:ctx.cache ra rb
          with Erm.Ops.Incompatible_schemas m -> fail "union: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.cache_hits <- Dst.Combine_cache.hits ctx.cache - h0;
        stats.Stats.cache_misses <- Dst.Combine_cache.misses ctx.cache - m0;
        stats.Stats.rows_in <-
          Erm.Relation.cardinal ra + Erm.Relation.cardinal rb;
        stats.Stats.pruned <-
          stats.Stats.rows_in - Erm.Relation.cardinal out;
        finish ~children:[ arep; brep ] out
    | Intersect (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.intersection ra rb
          with Erm.Ops.Incompatible_schemas m -> fail "intersect: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <-
          Erm.Relation.cardinal ra + Erm.Relation.cardinal rb;
        stats.Stats.pruned <-
          stats.Stats.rows_in - Erm.Relation.cardinal out;
        finish ~children:[ arep; brep ] out
    | Except (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.difference ra rb
          with Erm.Ops.Incompatible_schemas m -> fail "except: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <- Erm.Relation.cardinal ra;
        stats.Stats.pruned <-
          stats.Stats.rows_in - Erm.Relation.cardinal out;
        finish ~children:[ arep; brep ] out
    | Rank { input; by; ascending; limit } ->
        let child, crep = exec input in
        let order =
          match by with
          | Erm.Threshold.Sn -> Erm.Rank.By_sn
          | Erm.Threshold.Sp -> Erm.Rank.By_sp
        in
        let t0 = now_ns () in
        let out =
          match limit with
          | None -> child
          | Some k ->
              if ascending then Erm.Rank.bottom ~order k child
              else Erm.Rank.top ~order k child
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <- Erm.Relation.cardinal child;
        finish ~children:[ crep ] out
    | Prefix { input; prefix } ->
        let child, crep = exec input in
        let t0 = now_ns () in
        let out =
          try Erm.Ops.rename_attrs (fun n -> prefix ^ n) child
          with Erm.Schema.Schema_error m -> fail "prefix: %s" m
        in
        stats.Stats.wall_ns <- now_ns () -. t0;
        stats.Stats.rows_in <- Erm.Relation.cardinal child;
        finish ~children:[ crep ] out
  in
  exec p

let execute ?ctx env p = fst (execute_measured ?ctx env p)
exception Rejected of string list

let apply_guard guard env q =
  match guard with
  | None -> ()
  | Some g -> ( match g env q with [] -> () | findings -> raise (Rejected findings))

(* ------------------------------------------------------------------ *)
(* Execution strategy                                                  *)

type sharded = { shards : int; domains : int }
type strategy = Inline | Sharded of sharded

(* The sharded engine lives in lib/exec, which depends on this module
   (it reuses the plan type and the per-operator semantics). Dispatch
   therefore goes through an installed hook rather than a direct call:
   Exec.Engine.install sets it at program start. *)
let sharded_runner :
    (sharded -> ctx -> Eval.env -> t -> Erm.Relation.t) option ref =
  ref None

let set_sharded_runner f = sharded_runner := Some f

let eval_fast ?ctx ?guard ?(strategy = Inline) env q =
  apply_guard guard env q;
  match strategy with
  | Inline -> execute ?ctx env (plan_optimized env q)
  | Sharded cfg -> (
      match !sharded_runner with
      | Some runner ->
          let ctx = match ctx with Some c -> c | None -> create_ctx () in
          runner cfg ctx env (plan_optimized env q)
      | None -> fail "sharded execution engine not installed")

let run ?ctx ?guard ?strategy env input =
  eval_fast ?ctx ?guard ?strategy env (Parser.parse input)
