(** Provenance recording for extended-relation operators.

    Thin glue between the tuple layer and [Obs.Provenance]: computes
    value digests for membership supports and evidence cells, and
    records the lineage of the three derivation shapes the algebra
    performs — source registration, key-matched merges (∪̂) and
    selection/join support evaluations.

    Everything here assumes the caller already checked
    [Obs.Provenance.on ()]; none of these functions are compiled into
    a hot path unguarded. Identity is value-level: bit-identical
    values (same digest) share one node, first derivation wins. Node
    labels are recorded as thunks and rendered only when a reader of
    the arena asks for them. *)

val key_string : Etuple.t -> string
(** Comma-joined key values — the string [.why] accepts. *)

val tm_digest : Etuple.t -> string
(** Digest of a tuple's membership support: key plus hex-float
    [(sn, sp)]. *)

val register_relation : name:string -> Relation.t -> unit
(** Bind every evidence cell and membership support of a stored
    relation to a [Source] leaf (skipping digests already bound), so
    later combination hooks resolve their operands to source tuples
    instead of anonymous leaves. *)

val record_merge : Etuple.t -> Etuple.t -> Etuple.t -> unit
(** [record_merge x y merged]: one membership combination node
    (κ from [Dst.Support.conflict], rule [support]) plus a [Merge]
    node grouping it with the merged tuple's per-attribute evidence
    nodes (which the [Dst.Mass] hook already derived). *)

val record_support :
  label:string ->
  support:Dst.Support.t ->
  inputs:Etuple.t list ->
  Etuple.t ->
  unit
(** [record_support ~label ~support ~inputs out]: a [Support] node for
    the F_TM step that produced [out]'s membership from the input
    tuples and the predicate support [(sn, sp)]. The inputs are each
    tuple's membership node plus all its evidence cells — deliberately
    {e not} the predicate text, so a physical plan's rewritten
    predicate (e.g. an index residual) records the same lineage as
    naive evaluation. *)

val record_discount : alpha:float -> Relation.t -> Relation.t -> unit
(** [record_discount ~alpha original discounted]: one [Discount] node
    per tuple whose membership support changed (evidence cells are
    covered by the [Dst.Mass.discount] hook). *)
