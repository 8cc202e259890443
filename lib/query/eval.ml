type env = (string * Erm.Relation.t) list

exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let peer_attr lookup = function
  | Ast.Attr a -> lookup a
  | Ast.Scalar _ | Ast.Set_lit _ | Ast.Evidence_lit _ -> None

let bind_operand lookup ~peer op =
  match op with
  | Ast.Attr a -> (
      match lookup a with
      | Some _ -> Erm.Predicate.Field a
      | None -> fail "unknown attribute %s" a)
  | Ast.Scalar v -> Erm.Predicate.Const (Erm.Etuple.Definite v)
  | Ast.Set_lit vs ->
      (* A set literal is categorical evidence; its own values serve as
         the frame (θ-evaluation never needs a wider Ω). *)
      let set = Dst.Vset.of_list vs in
      let frame = Dst.Domain.make "literal" set in
      Erm.Predicate.Const (Erm.Etuple.Evidence (Dst.Mass.F.certain_set frame set))
  | Ast.Evidence_lit raw -> (
      match peer_attr lookup peer with
      | Some attr -> (
          match Erm.Attr.domain attr with
          | Some dom -> (
              try
                Erm.Predicate.Const
                  (Erm.Etuple.Evidence (Dst.Evidence.of_string dom raw))
              with
              | Dst.Evidence.Parse_error (_, m) ->
                  fail "bad evidence literal %s: %s" raw m
              | Dst.Mass.F.Invalid_mass m ->
                  fail "bad evidence literal %s: %s" raw m)
          | None ->
              fail
                "evidence literal %s compared against definite attribute %s"
                raw (Erm.Attr.name attr))
      | None ->
          fail "evidence literal %s needs an attribute on the other side" raw)

let rec bind_pred lookup = function
  | Ast.True -> Erm.Predicate.Const_true
  | Ast.Is (a, vs) -> (
      match lookup a with
      | Some _ -> Erm.Predicate.Is (a, Dst.Vset.of_list vs)
      | None -> fail "unknown attribute %s" a)
  | Ast.Cmp (cmp, x, y) ->
      Erm.Predicate.Theta
        (cmp, bind_operand lookup ~peer:y x, bind_operand lookup ~peer:x y)
  | Ast.And (a, b) -> Erm.Predicate.And (bind_pred lookup a, bind_pred lookup b)
  | Ast.Or (a, b) -> Erm.Predicate.Or (bind_pred lookup a, bind_pred lookup b)
  | Ast.Not a -> Erm.Predicate.Not (bind_pred lookup a)

let lookup_of_schemas sa sb a =
  match Erm.Schema.find_opt sa a with
  | Some attr -> Some attr
  | None -> Erm.Schema.find_opt sb a

let relation env name =
  match List.assoc_opt name env with
  | Some r -> r
  | None -> fail "unknown relation %s" name

let select_project input where threshold cols =
  let schema = Erm.Relation.schema input in
  let pred = bind_pred (Erm.Schema.find_opt schema) where in
  let selected = Erm.Ops.select ~threshold pred input in
  match cols with
  | None -> selected
  | Some names -> (
      try Erm.Ops.project names selected
      with Erm.Schema.Schema_error m -> fail "projection: %s" m)

let op_name = function
  | Ast.Rel _ -> "rel"
  | Ast.Select _ -> "select"
  | Ast.Union _ -> "union"
  | Ast.Intersect _ -> "intersect"
  | Ast.Except _ -> "except"
  | Ast.Product _ -> "product"
  | Ast.Join _ -> "join"
  | Ast.Ranked _ -> "rank"
  | Ast.Prefixed _ -> "prefix"

let rec eval env q =
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"query.eval" (op_name q) (fun () -> step env q)
  else step env q

and step env = function
  | Ast.Rel name -> relation env name
  | Ast.Select { cols; from; where; threshold } ->
      select_project (eval env from) where threshold cols
  | Ast.Union (a, b) -> (
      let ra = eval env a and rb = eval env b in
      try Erm.Ops.union ra rb
      with Erm.Ops.Incompatible_schemas m -> fail "union: %s" m)
  | Ast.Intersect (a, b) -> (
      let ra = eval env a and rb = eval env b in
      try Erm.Ops.intersection ra rb
      with Erm.Ops.Incompatible_schemas m -> fail "intersect: %s" m)
  | Ast.Except (a, b) -> (
      let ra = eval env a and rb = eval env b in
      try Erm.Ops.difference ra rb
      with Erm.Ops.Incompatible_schemas m -> fail "except: %s" m)
  | Ast.Product (a, b) -> (
      let ra = eval env a and rb = eval env b in
      try Erm.Ops.product ra rb
      with Erm.Schema.Schema_error m -> fail "product: %s" m)
  | Ast.Join { left; right; on; threshold } -> (
      let ra = eval env left and rb = eval env right in
      let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
      let pred = bind_pred (lookup_of_schemas sa sb) on in
      try Erm.Ops.join ~threshold pred ra rb
      with Erm.Schema.Schema_error m -> fail "join: %s" m)
  | Ast.Ranked { from; by; ascending; limit } -> (
      let input = eval env from in
      let order =
        match by with
        | Erm.Threshold.Sn -> Erm.Rank.By_sn
        | Erm.Threshold.Sp -> Erm.Rank.By_sp
      in
      match limit with
      | None -> input
      | Some k ->
          if ascending then Erm.Rank.bottom ~order k input
          else Erm.Rank.top ~order k input)
  | Ast.Prefixed { from; prefix } -> (
      let input = eval env from in
      try Erm.Ops.rename_attrs (fun n -> prefix ^ n) input
      with Erm.Schema.Schema_error m -> fail "prefix: %s" m)

let run env input = eval env (Parser.parse input)
