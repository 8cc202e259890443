(** Extended relation schemas.

    A schema names the relation, its key attributes (always definite —
    the paper assumes definite keys, §2.3 footnote 3) and its non-key
    attributes (definite or evidential). The implicit tuple-membership
    attribute [(sn, sp)] is not listed; every extended tuple carries it. *)

type t

exception Schema_error of string

type violation =
  | Empty_key
  | Evidential_key of string  (** The first evidential key attribute. *)
  | Duplicate_attribute of string  (** A name declared twice. *)
(** The rule a schema breaks, checked in this order. *)

val validate :
  name:string -> key:Attr.t list -> nonkey:Attr.t list -> (t, violation) result

val violation_message : name:string -> violation -> string
(** The message {!make} raises {!Schema_error} with. *)

val make : name:string -> key:Attr.t list -> nonkey:Attr.t list -> t
(** @raise Schema_error if the key is empty, a key attribute is
    evidential, or attribute names collide. *)

val name : t -> string
val key : t -> Attr.t list
val nonkey : t -> Attr.t list

val attrs : t -> Attr.t list
(** Key attributes followed by non-key attributes. *)

val arity : t -> int
(** Number of attributes, key and non-key, excluding membership. *)

val key_arity : t -> int

val find : t -> string -> Attr.t
(** @raise Not_found when no attribute has that name. *)

val find_opt : t -> string -> Attr.t option

val nonkey_index : t -> string -> int
(** Position of a non-key attribute within the non-key list.
    @raise Not_found for key attributes or unknown names. *)

val key_index : t -> string -> int
(** Position of a key attribute within the key list. @raise Not_found. *)

val mem : t -> string -> bool
val is_key : t -> string -> bool

val union_compatible : t -> t -> bool
(** Per §3.2 (footnote 5): same attributes — names, kinds and domains —
    including the key attributes. Relation names may differ. *)

val equal : t -> t -> bool
(** {!union_compatible} and same relation name. *)

val project : t -> string list -> t
(** Schema of [π̂] onto the named attributes. Per §3.3 the projection list
    must contain every key attribute (membership is always kept).
    @raise Schema_error if a name is unknown or a key attribute is
    missing. *)

val product : t -> t -> t
(** Schema of [×̂]: concatenated keys and non-keys.
    @raise Schema_error if attribute names collide; rename first. *)

val rename_relation : string -> t -> t

val rename_attrs : (string -> string) -> t -> t
(** Applies the function to every attribute name.
    @raise Schema_error if the renaming introduces a collision. *)

val pp : Format.formatter -> t -> unit
