(** Text serialization of extended relations (the [.erd] format).

    {v
    # comment
    relation ra
    key  rname : string
    attr street : string
    attr bldg-no : int
    attr speciality : evidence {am, ca, hu, it, mu, si, ta}
    tuple garden | univ.ave. | 2011 | [si^0.5; hu^0.25; ~^0.25] | (1, 1)
    v}

    A file holds one or more [relation] blocks. Tuple rows list the key
    values, then the non-key cells, then the membership pair, separated
    by [|]. Evidence cells use the paper notation of
    {!Dst.Evidence.of_string}; definite cells are literals parsed
    according to the attribute's declared kind. *)

exception Io_error of { line : int; col : int; message : string }
(** [line] is 1-based; [col] is the 1-based column of the offending
    token, or [0] when no finer position than the line is known. *)

val relations_of_string : string -> Relation.t list
(** @raise Io_error with a 1-based line/column position at the first
    rejection of the pass {!scan} runs. *)

(** {2 The loader's findings}

    Loading and linting are one pass over the text. Loading raises the
    first rejection as {!Io_error}; {!scan} hands every rejection to a
    sink and carries on, so [eridb-lint] reports exactly what the loader
    would refuse. *)

type rule =
  | Malformed_declaration
      (** Unknown directive, row before [relation], unnamed relation, or
          a declaration that is not [name : kind]. *)
  | Malformed_domain  (** Unknown kind; empty or unreadable domain. *)
  | Bad_schema of Schema.violation
  | Arity  (** Wrong number of [|]-separated fields. *)
  | Bad_value of { attr : string; key : bool }
  | Bad_evidence of Dst.Evidence.error
  | Malformed_membership
  | Membership_range of float * float  (** Not [0 ≤ sn ≤ sp ≤ 1]. *)
  | Cwa_inadmissible of float * float  (** [sn = 0]: CWA_ER refuses it. *)
  | Duplicate_key of { relation : string; key : Dst.Value.t list }

type finding = { line : int; col : int; rule : rule; message : string }
(** A rejection; [message] is the {!Io_error} message loading raises. *)

type event =
  | Rejected of finding
  | Relation_header of { line : int; col : int; name : string }
  | Evidence_cell of {
      line : int;
      col : int;
      focals : (Dst.Vset.t * float) list;
    }  (** A well-formed evidence cell's entries as written. *)

val scan : (event -> unit) -> string -> unit
(** Runs the loading pass with a sink. After a rejection the pass
    resumes at the next cell, row, declaration or line; rows under a
    rejected declaration or schema are not checked, and a row with a
    rejected cell is not keyed. The pass loads the text exactly when it
    emits no [Rejected] event. *)

val relation_of_string : string -> Relation.t
(** Expects exactly one relation block. @raise Io_error otherwise. *)

val to_string : Relation.t -> string
(** Round-trips through {!relation_of_string} (modulo float
    formatting). *)

(** {2 Record-level pieces}

    The persistent store frames individual tuples inside checksummed
    segment records, so it needs the schema header and single tuple rows
    as separate round-trippable strings. [to_string] is exactly
    [schema_to_string] followed by one [tuple_to_string] row per tuple. *)

val schema_to_string : Schema.t -> string
(** The [relation]/[key]/[attr] header lines of {!to_string}, without
    any tuple rows. *)

val schema_of_string : string -> Schema.t
(** Inverse of {!schema_to_string}. Tuple rows, if present, are parsed
    and discarded. @raise Io_error on malformed input or when the text
    declares more than one relation. *)

val tuple_to_string : Etuple.t -> string
(** One tuple row body ([k | cell | … | (sn, sp)], no [tuple] keyword).
    Floats print via the exact round-trip encoding of {!to_string}, so
    [tuple_of_string] returns a bit-identical tuple. *)

val tuple_of_string : Schema.t -> string -> Etuple.t
(** Inverse of {!tuple_to_string} under the same schema.
    @raise Io_error on malformed input. *)

val load : string -> Relation.t list
(** Reads a [.erd] file.
    @raise Sys_error on IO failures (message includes the path);
    @raise Io_error on parse failures, exactly as {!relations_of_string}
    raises it: the message does not repeat the path, which the caller
    already holds and prints in front of [line:col]. *)

val save : string -> Relation.t list -> unit
