(** ASCII rendering of extended relations, in the style of the paper's
    tables: one column per attribute plus the trailing [(sn, sp)]
    membership column. *)

val cell_to_string : Etuple.cell -> string
(** Definite values print bare; evidence sets print in the paper
    notation with a configurable number of significant digits. *)

val evidence_to_string : ?digits:int -> Dst.Evidence.t -> string
(** Paper notation with masses rounded to [digits] (default 3)
    significant decimals — e.g. [[si^0.655; hu^0.276; ~^0.069]]. *)

val support_to_string : ?digits:int -> Dst.Support.t -> string

val to_string : ?title:string -> Relation.t -> string
(** A bordered table, tuples in key order. [title] defaults to the
    relation's schema name. *)

val print : ?title:string -> Relation.t -> unit
(** [to_string] to stdout. *)

val row_strings : ?digits:int -> Relation.t -> string list list
(** Header row followed by one row of rendered cells per tuple — the raw
    material for diffing reproduced tables against the paper. [digits]
    (default 3) controls mass rounding. *)

val to_csv : ?digits:int -> Relation.t -> string
(** Comma-separated rendering: a header line, then one line per tuple in
    key order. Fields containing commas, quotes or newlines are quoted
    per RFC 4180. Evidence and membership cells use the same notation as
    the ASCII table; pass [~digits:12] or more to keep masses summing
    to 1 within the float tolerance. *)

val to_markdown : ?title:string -> Relation.t -> string
(** A GitHub-flavored markdown table, for dropping reproduced tables
    into reports like EXPERIMENTS.md. *)
