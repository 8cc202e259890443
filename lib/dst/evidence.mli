(** Evidence sets: the uncertain attribute values of the extended
    relational model.

    An evidence set (§2.1, Def.) is a mass function over an attribute's
    domain. This module fixes the float instance {!Mass.F} and adds the
    paper's concrete syntax — [[si^0.5; {hu, si}^0.33; ~^0.17]] with [~]
    denoting Ω — as a parser/printer pair, plus constructors from raw
    counts (the group-voting model of §1.2). *)

type t = Mass.F.t
(** An evidence set is exactly a float mass function. All of {!Mass.F}'s
    operations apply. *)

exception Parse_error of string * string
(** [Parse_error (input, message)]. *)

type error =
  | Syntax of string  (** Not the notation below. *)
  | Invalid of Mass.F.violation
      (** Well-formed, but the entries break a mass-function axiom. *)

val focals : Domain.t -> string -> ((Vset.t * float) list, error) result
(** The focal entries of the notation below, as written: zero masses and
    repeated members are kept. A member [{}] (∅) is rejected as
    [Invalid (Empty_focal m)] whatever its mass [m]; {!Mass.F.validate}
    checks the other axioms. *)

val error_message : Domain.t -> error -> string

val of_string : Domain.t -> string -> t
(** Parses the paper notation. Grammar (whitespace-insensitive):
    {v
      evidence ::= '[' focal (';' focal)* ']'
      focal    ::= member '^' mass
      member   ::= '~'                      (Ω, the whole domain)
                 | literal                  (singleton)
                 | '{' literal (',' literal)* '}'
      mass     ::= float | int '/' int      (e.g. 0.25 or 1/3)
    v}
    Masses must sum to 1 (within the float tolerance). Masses are read
    with {!Num.float_of_literal}, as {!Support.of_string} reads its pair.
    @raise Parse_error on syntax errors and on mass given to [{}].
    @raise Mass.F.Invalid_mass on semantic errors (bad masses, values
    outside the domain). *)

val to_string : t -> string
(** Inverse of {!of_string} (modulo float formatting). *)

val pp : Format.formatter -> t -> unit

val of_counts : Domain.t -> (Vset.t * int) list -> t
(** [of_counts frame tallies] normalizes integer tallies into masses:
    the paper's vote-statistics consolidation ([d1 ↦ 3 votes, d2 ↦ 2,
    d3 ↦ 1] becomes [[d1^0.5; d2^0.33; d3^0.17]]). Entries with an empty
    set denote abstentions and contribute mass to Ω.
    @raise Mass.F.Invalid_mass if counts are negative or all zero. *)

val of_value_counts : Domain.t -> (Value.t * int) list -> t
(** {!of_counts} restricted to singleton votes. *)

val definite : Domain.t -> Value.t -> t
(** Alias of {!Mass.F.certain}: a certain value as an evidence set. *)
