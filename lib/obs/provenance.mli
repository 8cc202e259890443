(** Arena-allocated lineage DAG for evidential derivations.

    Every value the system derives by Dempster's rule — an attribute's
    combined evidence, a tuple's membership support after selection, a
    merged tuple — can be traced back to the stored source tuples it
    came from. The arena records one {!node} per derivation step;
    edges always point from a node to {e earlier} nodes (inputs), so
    the structure is acyclic by construction and depth is computable
    in one forward pass.

    The store follows the same guard discipline as {!Trace} and
    {!Metrics}: one process-wide {!default} arena that starts
    {e disabled}, with every instrumentation site testing {!on} before
    computing digests or labels. A run that never enables provenance
    pays one boolean load per call site and nothing else.

    Nodes are keyed by {e value digests} (see [Dst.Mass.digest]): two
    derivations producing bit-identical values share one node, which
    is what lets [Dst.Combine_cache] hits link to the original
    derivation instead of re-deriving, and what makes the lineage of a
    physical plan meet the naive evaluator's on every shared value.
    Registration is first-wins: once a digest resolves to a node, later
    derivations of the same value reuse it.

    Recording is kept cheap in two ways. Node labels are lazy: a hook
    hands in a thunk over the (immutable) value it recorded, and only
    readers — [Why], [Export], [federate --audit], [Analysis.Sweep] —
    force it, through {!label}. Forcing is not domain-safe, which is
    fine because provenance-on execution runs on one domain. And the
    arena has a {!generation}: a caller that registered a value set
    once may skip re-registering it for as long as the generation is
    unchanged, because bindings are never dropped in between. *)

type kind =
  | Source  (** a stored source tuple's cell or membership support *)
  | Operand  (** a value first seen as a combination input (no history) *)
  | Combine  (** one Dempster combination: κ, normalization, operands *)
  | Discount  (** α-discounting of a mass function or support pair *)
  | Support  (** a selection/join support evaluation (F_SS then F_TM) *)
  | Merge  (** a key-matched tuple merge (∪̂) grouping its per-cell steps *)
  | Step  (** a pipeline step marker (e.g. one source absorbed) *)

type node = {
  id : int;
  kind : kind;
  label : string Lazy.t;
      (** human-readable value or step description, rendered on first
          {!label} *)
  kappa : float option;  (** conflict mass κ for combination nodes *)
  norm : float option;  (** normalization factor 1 − κ *)
  alpha : float option;  (** discount rate for {!Discount} nodes *)
  args : (string * string) list;  (** extra key/value detail *)
  inputs : int array;  (** ids of operand nodes; all strictly [< id] *)
}

type t
(** A lineage arena: a growable node array plus a digest index. *)

val create : unit -> t
(** A fresh, enabled arena (explicit arenas are always live). *)

val default : t
(** The arena the compiled-in hooks write to. Starts disabled. *)

val on : unit -> bool
(** Is the default arena recording? The guard every instrumentation
    site tests before doing any work. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : ?store:t -> unit -> unit
(** Drop every node and digest binding. *)

val generation : unit -> int
(** A counter bumped by {!reset}, {!enable} and {!disable}. Between two
    bumps the default arena only grows and every digest binding stays,
    so a value set registered at generation [g] is still fully bound
    while [generation () = g]. The store uses it to register its stored
    relation once per generation instead of on every delta. *)

val count : ?store:t -> unit -> int
(** Number of nodes allocated so far (also the next node id). *)

val add :
  ?store:t ->
  ?kappa:float ->
  ?norm:float ->
  ?alpha:float ->
  ?args:(string * string) list ->
  ?inputs:int list ->
  kind ->
  string Lazy.t ->
  int
(** [add kind label] allocates a node and returns its id. [label] is
    not forced here. Input ids
    must already be allocated ([Invalid_argument] otherwise — that is
    a bug in the instrumentation, not a runtime condition). Returns
    [-1] without recording when the store is disabled; call sites are
    expected to guard with {!on} first. *)

val node : ?store:t -> int -> node
(** The node with the given id. @raise Invalid_argument if out of
    range. *)

val nodes : ?store:t -> unit -> node list
(** All nodes in allocation (= topological) order. *)

val register : ?store:t -> string -> int -> unit
(** Bind a value digest to the node that derived it. First-wins: a
    digest already bound keeps its original derivation. *)

val find : ?store:t -> string -> int option
(** The node currently bound to a digest, if any. *)

val label : node -> string
(** The node's label, rendered (once) on first call. *)

val find_or_leaf :
  ?store:t -> ?kind:kind -> string -> label:string Lazy.t -> int
(** Resolve a digest to its node, or allocate a leaf (default kind
    {!Operand}) with the given label and bind the digest to it. The
    label is forced only if a reader later asks for it. This
    is how combination hooks pick up operands whose history predates
    provenance being enabled. Returns [-1] when the store is
    disabled. *)

val max_depth : ?store:t -> unit -> int
(** Longest input chain in the arena: leaves have depth 0, a node is
    1 + the deepest of its inputs. 0 for an empty arena. *)

val leaves : ?store:t -> int -> node list
(** The leaf nodes (no inputs) reachable from a node, deduplicated,
    in id order. *)

val kind_name : kind -> string
(** Lower-case name ([source], [combine], …) used by exports. *)

val publish : ?store:t -> unit -> unit
(** Push [provenance.nodes] and [provenance.max_depth] gauges into
    the default {!Metrics} registry. *)
