(** Mass functions (basic probability assignments) over a finite frame.

    A mass function [m] assigns belief mass to subsets of a frame of
    discernment Ω such that [m(∅) = 0] and [Σ m(A) = 1] (§2.1 of the
    paper). Subsets with positive mass are the {e focal elements}.

    The module is a functor over the numeric representation: instantiate
    with {!Num.Float} for the runtime library (see {!F}) or with
    {!Num.Rational} for exact verification of combination results. *)

module type S = sig
  type num
  (** The numeric type masses are expressed in. *)

  type t
  (** A validated mass function. Immutable. *)

  exception Invalid_mass of string
  (** Raised by constructors when focal elements are empty, outside the
      frame, negative, or do not sum to one. *)

  exception Total_conflict
  (** Raised by {!combine} when the two operands are completely
      contradictory (κ = 1): Dempster's rule is undefined. The paper (§2.2)
      prescribes alerting the integrator in this case. *)

  exception Quarantined_cell of float
  (** Raised by {!combine_policy_exn} (carrying κ) when the active
      {!Rule.policy} quarantines the combination instead of running a
      rule — the merge paths catch it and drop or report the pair. *)

  exception Frame_mismatch of Domain.t * Domain.t
  (** Raised when combining mass functions over different frames. *)

  type outcome =
    | Combined of { result : t; kappa : num; rule : Rule.t; escalated : bool }
        (** [rule] is the rule that actually ran (the fallback when
            [escalated]); [kappa] is the conflict it measured. *)
    | Quarantined of { kappa : num }
        (** The policy refused the merge: κ reached κ₀ and the fallback
            is {!Rule.Quarantine}. *)
    | Conflicted
        (** Total conflict under a normalizing rule with no escalation
            configured — the typed form of {!Total_conflict}. *)
  (** The typed result of a policy-driven combination. *)

  type violation =
    | Negative of num * Vset.t  (** A negative mass on that set. *)
    | Empty_focal of num  (** Mass on ∅. *)
    | Outside_frame of { focal : Vset.t; outside : Vset.t }
        (** A focal element with values ([outside]) not in the frame. *)
    | Not_normalised of num  (** The masses sum to this, not 1. *)
  (** The mass-function axiom an entry list breaks, checked in this
      order: per entry (negative, then ∅, then outside the frame), then
      the sum. Zero-mass entries are dropped before the ∅ and frame
      checks. *)

  val validate : Domain.t -> (Vset.t * num) list -> (t, violation) result
  (** [make] with the first violated axiom as a value. *)

  val violation_message : Domain.t -> violation -> string
  (** The message {!make} raises {!Invalid_mass} with. *)

  val make : Domain.t -> (Vset.t * num) list -> t
  (** [make frame focals] validates and builds a mass function. Zero-mass
      entries are dropped; duplicate focal elements are summed.
      @raise Invalid_mass per the conditions above. *)

  val make_normalized : Domain.t -> (Vset.t * num) list -> t
  (** Like {!make} but rescales the masses to sum to one (they must be
      non-negative with a positive total). Useful for building evidence
      from raw counts, e.g. the paper's reviewer votes. *)

  val vacuous : Domain.t -> t
  (** Total ignorance: [m(Ω) = 1]. *)

  val certain : Domain.t -> Value.t -> t
  (** A definite value: [m({v}) = 1]. @raise Invalid_mass if [v ∉ Ω]. *)

  val certain_set : Domain.t -> Vset.t -> t
  (** Categorical evidence: [m(A) = 1]. *)

  val simple_support : Domain.t -> Vset.t -> num -> t
  (** Shafer's simple support function: [m(A) = w], [m(Ω) = 1 - w]. *)

  val bayesian : Domain.t -> (Value.t * num) list -> t
  (** All focal elements are singletons — an ordinary discrete
      distribution. *)

  (** {1 Accessors} *)

  val frame : t -> Domain.t

  val focals : t -> (Vset.t * num) list
  (** Focal elements with their masses, in increasing {!Vset.compare}
      order. All masses are positive and sum to one. *)

  val focal_count : t -> int

  val mass : t -> Vset.t -> num
  (** [mass m a] is [m(A)], zero when [A] is not focal. *)

  (** {1 Belief measures} *)

  val bel : t -> Vset.t -> num
  (** Belief: [Bel(A) = Σ_{X ⊆ A} m(X)] — minimum committed support. *)

  val pls : t -> Vset.t -> num
  (** Plausibility: [Pls(A) = Σ_{X ∩ A ≠ ∅} m(X) = 1 - Bel(Ā)] — the degree
      to which the evidence fails to refute [A]. *)

  val doubt : t -> Vset.t -> num
  (** [doubt m a = bel m (Ω \ a)]. *)

  val commonality : t -> Vset.t -> num
  (** [Q(A) = Σ_{X ⊇ A} m(X)]. *)

  val interval : t -> Vset.t -> num * num
  (** [(bel, pls)]; the belief interval. Invariant: [bel ≤ pls]. *)

  val ignorance : t -> Vset.t -> num
  (** [pls - bel]: how undecided the evidence is about [A]. *)

  (** {1 Classification} *)

  val is_vacuous : t -> bool
  val is_bayesian : t -> bool

  val is_definite : t -> bool
  (** True iff a single singleton focal element carries mass one. *)

  val definite_value : t -> Value.t option
  (** [Some v] iff {!is_definite} with focal [{v}]. *)

  val is_consonant : t -> bool
  (** True iff the focal elements are totally ordered by inclusion. *)

  (** {1 Combination} *)

  val conflict : t -> t -> num
  (** κ: the total mass assigned by the two operands to disjoint pairs of
      focal elements. [κ = 1] means total contradiction.
      @raise Frame_mismatch if the frames differ. *)

  val combine : t -> t -> t
  (** Dempster's rule of combination: conjunctive consensus followed by
      normalization by [1 - κ]. Commutative and associative.
      @raise Total_conflict when κ = 1.
      @raise Frame_mismatch if the frames differ. *)

  val combine_opt : t -> t -> (t * num) option
  (** [Some (m, κ)] or [None] on total conflict — the non-raising form,
      reporting the amount of conflict that was normalized away.
      Equivalent to [combine_rule_opt ~rule:Rule.Dempster]. *)

  val combine_rule_opt :
    ?rule:Rule.t -> ?prov:(string * string) list -> t -> t -> (t * num) option
  (** One combination under the given rule (default {!Rule.Dempster}).
      [Some (m, κ)] where κ is the conjunctive conflict the rule
      measured between its operands; [None] only when the (possibly
      discounted) Dempster leg hits total conflict — Yager,
      Dubois-Prade and averaging are total. Emits [dst.combine.calls],
      [dst.combine.conflict_kappa] and the per-rule
      [dst.combine.rule.*] counter; when provenance is on, records a
      Combine node tagged with the rule (and any [prov] annotations).
      @raise Frame_mismatch if the frames differ. *)

  val combine_policy : ?policy:Rule.policy -> t -> t -> outcome
  (** The escalation engine: the uncached policy-honoring entry point
      every merge path (and {!Combine_cache} on a miss) uses. Below κ₀
      (or with no escalation configured) the primary rule runs through
      {!combine_rule_opt}; at or exactly on κ₀ the policy escalates —
      incrementing [dst.combine.escalations] and either running the
      fallback rule (its Combine node carries [escalated_from]/[kappa0]
      annotations) or quarantining (recording a ["(quarantined)"]
      node). [policy] defaults to {!Rule.current}. The threshold κ is
      always the operands' raw conjunctive conflict ({!conflict}),
      independent of the primary rule. *)

  val combine_policy_exn : ?policy:Rule.policy -> t -> t -> t
  (** Like {!combine_policy} but raising: {!Total_conflict} on
      [Conflicted], {!Quarantined_cell} on [Quarantined]. *)

  val relink : ?policy:Rule.policy -> t -> t -> outcome -> unit
  (** Cache-hit lineage reconstruction: if the outcome's result digest
      is not yet bound in the live arena, record the same Combine node
      (rule, κ, norm, escalation annotations — and for the discount
      rule, the same discounted operands) the cold miss recorded. The
      memo-cache calls this so warm-hit lineage is indistinguishable
      from the cold derivation for every rule. *)

  val combine_yager : t -> t -> t
  (** Yager's rule (extension beyond the paper): conflict mass is moved to
      Ω instead of being normalized away. Total conflict yields the
      vacuous mass function. Commutative but not associative. *)

  val combine_dubois_prade : t -> t -> t
  (** Dubois-Prade's rule (extension): disjoint pairs contribute to the
      union [X ∪ Y] instead of being discarded. *)

  val combine_average : t -> t -> t
  (** Mixing (extension): the pointwise average of the two assignments.
      Idempotent; retains conflict rather than resolving it. *)

  val combine_disjunctive : t -> t -> t
  (** Disjunctive consensus (extension): products accumulate on [X ∪ Y].
      Appropriate when only one of the two sources is known reliable. *)

  val combine_many : ?rule:Rule.t -> t list -> t
  (** N-ary combination under [rule] (default {!Rule.Dempster}). For
      every rule but averaging this is the left fold of the pairwise
      rule — associative for Dempster, order-sensitive (documented, not
      hidden) for Yager and Dubois-Prade. For {!Rule.Averaging} it is
      the uniform n-ary mixture (each source weighted 1/n), {e not} the
      pairwise fold, which would weight source i by 2^-(n-i) because
      averaging is not associative. @raise Invalid_mass on the empty
      list (no frame to build a result on, whatever the rule).
      @raise Total_conflict if a Dempster (or discount-at-α=1) step
      hits κ = 1; the non-normalizing rules never raise it. *)

  (** {1 Transformations} *)

  val discount : float -> t -> t
  (** [discount alpha m]: Shafer's discounting by source reliability
      [alpha ∈ \[0,1\]]: masses are scaled by [alpha] and the remainder
      moves to Ω. [discount 1.0] is the identity; [discount 0.0] is
      vacuous. @raise Invalid_argument if [alpha] is outside [0,1]. *)

  val condition : t -> Vset.t -> t
  (** Dempster conditioning: combination with the categorical mass on the
      given set. @raise Total_conflict if the set is implausible. *)

  val pignistic : t -> (Value.t * num) list
  (** Smets' pignistic transform BetP: each focal's mass is split equally
      among its elements. Sums to one; suitable for decision making. *)

  val approximate : max_focals:int -> t -> t
  (** Focal-set summarization in the spirit of Tessem's k-l-x: keep the
      [max_focals - 1] heaviest focal elements and move the remaining
      mass to Ω. A {e conservative} approximation — belief can only
      shrink and plausibility only grow ([Bel' ≤ Bel ≤ Pls ≤ Pls'] on
      every set), so thresholded query answers can gain may-be tuples
      but never lose definite ones. Bounds the O(|F₁|·|F₂|) cost of
      chained combinations. Identity when the function already has at
      most [max_focals] focal elements.
      @raise Invalid_argument if [max_focals < 1]. *)

  val max_bel : t -> Value.t
  (** The singleton hypothesis with maximal belief (ties broken by value
      order) — a simple decision rule over the evidence. *)

  val max_pls : t -> Value.t
  (** The singleton hypothesis with maximal plausibility. *)

  (** {1 Comparison and printing} *)

  val equal : t -> t -> bool
  (** Same frame and same assignment, masses compared with [num]
      equality. *)

  val compare : t -> t -> int
  (** A structural total order (frame, then focal assignment with exact
      [num] comparison) suitable for [Map.Make]. Finer than {!equal} for
      the float instance: two functions within tolerance but not
      bit-equal compare as different, which only costs a duplicate cache
      entry, never a wrong result. *)

  val pp : Format.formatter -> t -> unit
  (** Paper notation: [[si^0.5; {hu, si}^0.33; ~^0.17]] where [~]
      denotes Ω. *)

  val to_string : t -> string

  val digest : t -> string
  (** A canonical value digest (MD5 hex over the frame name and the
      ordered focal assignment with hex-float masses): bit-identical
      mass functions digest equally, so the provenance arena can give
      every distinct evidence value one lineage identity. Exact for
      the float instance; instances whose [num] loses precision under
      [to_float] may alias distinct values (the rational instance is
      test-only and runs with provenance off).

      Each focal set appears in the pre-image exactly as
      [Format.asprintf "%a" Vset.pp_compact] prints it, line breaks of
      sets past the formatter margin included, so digests are stable
      across releases. It is built without a formatter
      ({!Vset.to_string_compact}). *)
end

module Make (N : Num.S) : S with type num = N.t

module F : S with type num = float
(** The float instance used throughout the library. *)
