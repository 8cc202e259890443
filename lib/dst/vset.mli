(** Finite sets of domain values — the focal elements of mass functions.

    A thin wrapper over [Set.Make (Value)] with printing in the paper's
    brace notation ([{hu, si}], braces dropped for singletons in evidence
    sets) and the handful of extra operations mass arithmetic needs. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Value.t -> t
val of_list : Value.t list -> t
val of_strings : string list -> t
(** Convenience: [of_strings l] is [of_list (List.map Value.string l)]. *)

val to_list : t -> Value.t list
(** Elements in increasing {!Value.compare} order. *)

val cardinal : t -> int
val mem : Value.t -> t -> bool
val add : Value.t -> t -> t
val remove : Value.t -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
(** [inter a b] is [a ∩ b], and physically shares an operand when it
    can: it returns [a] itself when [a ⊆ b] and otherwise [b] itself
    when [b ⊆ a]. Only in the remaining case is a new set built. The
    result is always structurally equal to [Set.Make (Value).inter]. *)

val diff : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] is true iff [a ⊆ b]. *)

val disjoint : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val choose : t -> Value.t
(** @raise Not_found on the empty set. *)

val for_all : (Value.t -> bool) -> t -> bool
val exists : (Value.t -> bool) -> t -> bool
val fold : (Value.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Value.t -> unit) -> t -> unit
val filter : (Value.t -> bool) -> t -> t
val map : (Value.t -> Value.t) -> t -> t

val forall_pairs : (Value.t -> Value.t -> bool) -> t -> t -> bool
(** [forall_pairs p a b] is true iff [p x y] holds for every [x ∈ a],
    [y ∈ b]. Used for the "is TRUE" side of θ-predicates. Vacuously true
    when either set is empty. *)

val exists_pair : (Value.t -> Value.t -> bool) -> t -> t -> bool
(** [exists_pair p a b] is true iff [p x y] holds for some [x ∈ a],
    [y ∈ b]. Used for the "may be TRUE" side of θ-predicates. *)

val pp : Format.formatter -> t -> unit
(** Always-braced form: [{hu, si}], [{si}], [{}]. *)

val pp_compact : Format.formatter -> t -> unit
(** Paper notation: braces dropped for singletons ([si]), kept
    otherwise. *)

val to_string : t -> string

val to_string_compact : t -> string
(** [Format.asprintf "%a" pp_compact s], byte for byte. Sets whose
    one-line rendering fits the formatter margin are built without a
    formatter; longer ones go through {!pp_compact}, whose line breaks
    they keep. *)
