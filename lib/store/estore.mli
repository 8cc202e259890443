(** The crash-safe, versioned evidence store.

    A store directory holds append-only segment files ({!Segment}) and
    a manifest ({!Manifest}) that is the single atomic commit point.
    Every commit writes one new segment, verifies its on-disk size
    (catching silent short/torn writes before anything is
    acknowledged), and then renames a fresh manifest into place; a
    fault at any point leaves the previous version intact. Opening
    always runs the {!Recovery} state machine. *)

type t

val generation : unit -> int
(** Process-global commit counter: bumped whenever {e any} store
    commits. Caches derived from stored relations (e.g. the execution
    engine's per-shard indexes) key on this to invalidate on delta
    application. *)

val create : ?io:Io.t -> dir:string -> name:string -> Erm.Relation.t -> t
(** Materialize a relation as version 1 of a new store.
    @raise Recovery.Store_error if a store already exists at [dir] or
    the initial segment cannot be verified; @raise Io.Fault on injected
    or real I/O failure. *)

val open_store : ?io:Io.t -> ?verify:bool -> string -> t * Recovery.report
(** Open via {!Recovery.recover}. [~verify:false] skips CRC/digest
    verification (benchmark baseline only). *)

val relation : t -> Erm.Relation.t
(** The current merged relation (replayed at open, maintained
    incrementally by {!Delta.apply}). *)

val version : t -> int
val name : t -> string
val dir : t -> string

val segments : t -> (string * int) list
(** The committed segments in manifest (= commit) order, as
    [(file, bytes)] pairs — the read-only view batch auditors iterate.
    Never touches the disk; this is the manifest's own list. *)

val lineage_mark : t -> int
(** The [Obs.Provenance.generation] at which every value digest of
    {!relation} was last known to be bound in the provenance arena, or
    [-1] if never: a fresh handle from {!create} or {!open_store}, and
    any handle after {!append_commit}. {!Delta.apply} reads it to skip
    re-registering the stored relation, and sets it. *)

val set_lineage_mark : t -> int -> unit

val segment_records : t -> string -> Segment.record list
(** Re-read one committed segment through the store's I/O seam and
    return its verified records. The segment was CRC-checked when the
    manifest acknowledged it, so a dirty tail here means the file
    changed underneath a live store.
    @raise Recovery.Store_error on a missing or corrupt segment;
    @raise Io.Fault on injected or real I/O failure. *)

val fold_segments :
  t -> init:'a -> f:('a -> string -> Segment.record list -> 'a) -> 'a
(** Fold {!segment_records} over {!segments} in commit order. *)

val append_commit : t -> Segment.record list -> Erm.Relation.t -> unit
(** Commit one delta's write set as a new segment + manifest version
    and install [new_relation] as the current relation. Clears
    {!lineage_mark}. Exposed for {!Delta}; not a general mutation
    API.
    @raise Recovery.Store_error / @raise Io.Fault as {!create}. *)
