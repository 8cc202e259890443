(** Query evaluation: bind an {!Ast.query} against an environment of
    named extended relations and run the extended operators. *)

type env = (string * Erm.Relation.t) list

exception Eval_error of string

val bind_pred :
  (string -> Erm.Attr.t option) -> Ast.pred -> Erm.Predicate.t
(** Resolve literals into a typed {!Erm.Predicate.t}. Set literals become
    categorical evidence over their own values; evidence literals are
    parsed against the {e peer} attribute's domain, so [e0 = \[v1^0.5;
    v2^0.5\]] requires [e0] to be evidential.
    @raise Eval_error on unknown attributes or unbindable literals. *)

val lookup_of_schemas :
  Erm.Schema.t -> Erm.Schema.t -> string -> Erm.Attr.t option
(** The attribute lookup a join predicate binds against: the left schema
    first, then the right. *)

val relation : env -> string -> Erm.Relation.t
(** The relation bound to a name. @raise Eval_error when it is unbound. *)

val select_project :
  Erm.Relation.t ->
  Ast.pred ->
  Erm.Threshold.t ->
  string list option ->
  Erm.Relation.t
(** [select_project input where threshold cols] is the Select operator:
    bind [where] against [input]'s schema, select, then project onto
    [cols] when given. Every executor runs Select through it.
    @raise Eval_error on binding or projection failures. *)

val eval : env -> Ast.query -> Erm.Relation.t
(** @raise Eval_error on unknown relation names, binding failures, or
    schema errors (wrapped with context). Evidence conflicts raised by
    union ({!Dst.Mass.F.Total_conflict}) propagate unchanged. *)

val run : env -> string -> Erm.Relation.t
(** Parse then evaluate. @raise Parser.Parse_error / {!Eval_error}. *)
