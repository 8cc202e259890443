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
(** @raise Io_error with a 1-based line/column position on malformed
    input. *)

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

val split_fields : string -> (int * string) list
(** The fields of one tuple row body, split on every [|] (quotes do not
    protect it: [|] is reserved in cell syntax), each untrimmed with the
    offset of its first character. The loader and [eridb-lint] both
    split rows with it, so they agree on a row's fields. *)

val load : string -> Relation.t list
(** Reads a [.erd] file.
    @raise Sys_error on IO failures (message includes the path);
    @raise Io_error on parse failures, exactly as {!relations_of_string}
    raises it: the message does not repeat the path, which the caller
    already holds and prints in front of [line:col]. *)

val save : string -> Relation.t list -> unit

val relation_of_csv : Schema.t -> string -> Relation.t
(** Parse a CSV document (RFC 4180 quoting) against a known schema: the
    header row must name the schema's attributes in order followed by
    ["(sn,sp)"]; each record supplies the key values, the cells (evidence
    cells in the paper notation) and the membership pair. Inverse of
    {!Render.to_csv} up to float display precision.
    @raise Io_error with the 1-based record number on malformed input. *)
