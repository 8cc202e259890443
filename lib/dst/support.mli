(** Support pairs [(sn, sp)] — tuple membership and predicate support.

    A support pair is the compact form of a mass function over the boolean
    frame Ψ = [{true, false}] (§2.3 of the paper):
    [sn = m({true})] and [sp = m({true}) + m(Ψ) = 1 − m({false})],
    with invariant [0 ≤ sn ≤ sp ≤ 1]. [sn] is the {e necessary} and [sp]
    the {e possible} degree of support. *)

type t = private { sn : float; sp : float }

exception Invalid_support of float * float
(** Raised by {!make} when the invariant [0 ≤ sn ≤ sp ≤ 1] fails. *)

val make : sn:float -> sp:float -> t
(** @raise Invalid_support on out-of-range pairs (beyond the float
    tolerance; values within tolerance are clamped). *)

val sn : t -> float
val sp : t -> float

val certain : t
(** [(1, 1)]: membership with full certainty. *)

val impossible : t
(** [(0, 0)]: believed not to exist with full certainty. *)

val unknown : t
(** [(0, 1)]: complete ignorance about membership. *)

val of_bool : bool -> t
(** [true ↦ (1,1)], [false ↦ (0,0)] — classical logic embedding. *)

val f_tm : t -> t -> t
(** The tuple-membership derivation function F_TM of §3.1.2: treats the
    two supports as independent events and multiplies componentwise,
    [(sn1·sn2, sp1·sp2)]. Used by extended selection, cartesian product
    and join. *)

val combine : t -> t -> t
(** Dempster combination on the boolean frame — the function [F] of §3.2
    used by extended union to merge the membership evidence of matched
    tuples. E.g. [(0.5,0.5) ⊕ (0.8,1) = (0.833…, 0.833…)] (Table 4's
    [mehl] row).
    @raise Mass.F.Total_conflict when one operand is {!certain} and the
    other {!impossible} (κ = 1). *)

val conflict : t -> t -> float
(** κ of {!combine}: [sn1·(1−sp2) + (1−sp1)·sn2]. *)

val conjunction : t -> t -> t
(** Multiplicative support of a conjunction of independent predicates
    (§3.1.1): identical to {!f_tm}; provided under the predicate-algebra
    name for call-site clarity. *)

val disjunction : t -> t -> t
(** Extension beyond the paper: support of an independent disjunction,
    [(sn1 + sn2 − sn1·sn2, sp1 + sp2 − sp1·sp2)]. *)

val negation : t -> t
(** Extension: support-logic negation [(1 − sp, 1 − sn)]. Involutive. *)

val to_mass : t -> Mass.F.t
(** The underlying mass function over {!Domain.boolean}. *)

val of_mass : Mass.F.t -> t
(** Inverse of {!to_mass}. @raise Invalid_argument if the mass function's
    frame is not {!Domain.boolean}. *)

val ignorance : t -> float
(** [sp − sn]. *)

val positive : t -> bool
(** [sn > 0]: the CWA_ER storage criterion for extended relations. *)

val is_certain : t -> bool
val equal : t -> t -> bool
(** Tolerance-based componentwise equality. *)

val compare : t -> t -> int
(** Lexicographic on [(sn, sp)] — a total order for sorting query
    results by certainty. *)

val pp : Format.formatter -> t -> unit
(** Paper notation: [(0.5, 0.75)]. *)

val to_string : t -> string

val of_string : string -> t
(** Parses ["(sn, sp)"], each component read with
    {!Num.float_of_literal} (a float or [a/b], as evidence masses).
    @raise Invalid_argument on malformed input.
    @raise Invalid_support when the pair is out of range. *)
