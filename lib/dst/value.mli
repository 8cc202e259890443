(** Atomic domain values.

    Attribute domains (frames of discernment) are finite sets of these
    values. Values of different runtime kinds never compare as "less" or
    "greater" in the ordered sense used by θ-predicates; doing so raises
    {!Type_mismatch}. A separate total order ({!compare}) exists solely so
    values can key sets and maps. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

exception Type_mismatch of t * t
(** Raised when two values of different kinds are compared with an ordered
    comparison ({!compare_ordered}). *)

val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t

val compare : t -> t -> int
(** Structural total order (kind rank, then natural order within a kind).
    Suitable for [Set.Make] / [Map.Make]; never raises. *)

val equal : t -> t -> bool

val compare_ordered : t -> t -> int
(** Semantic comparison for θ-predicates.
    @raise Type_mismatch if the two values are of different kinds. *)

val kind_name : t -> string
(** ["bool"], ["int"], ["float"] or ["string"]. *)

val same_kind : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints in re-parsable literal syntax: bare ints/floats/bools, strings
    bare when they are simple identifiers and quoted otherwise. *)

val to_string : t -> string
(** The string {!pp} prints, built without a formatter. *)

val of_literal : string -> t
(** Parses a literal token: [true]/[false], integer, float, quoted string,
    or a bare identifier (interpreted as a string). Inverse of {!pp} for
    all values produced by this library.
    @raise Invalid_argument on malformed quoted strings. *)
