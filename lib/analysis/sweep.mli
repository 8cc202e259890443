(** Whole-store data-quality sweeps: the S-check family.

    Where {!Erd_lint} audits one [.erd] source file and {!Check} one
    query plan, the sweep audits the {e stored, merged} state the
    integration pipeline actually leaves behind — the pathologies
    PAPERS.md's high-conflict literature (Zadeh, Yen) warns accumulate
    silently in a merged store:

    - {b S001} dangling cross-relation key references;
    - {b S002} dormant domain values ([Bel = 0] ∧ [Pls ≤ ε] in every
      stored tuple, read with {!Dst.Mass.F.bel} and {!Dst.Mass.F.pls});
    - {b S003} CWA_ER violations in stored tuples;
    - {b S004} per-source disagreement from the
      [dst.combine.kappa_by_source.*] rollups;
    - {b S005} individual high-κ cell merges, read from provenance
      [Step] ranges;
    - {b S006}/{b S007} duplicate-entity suspicion (normalized-key
      collisions; bit-identical value digests under distinct keys);
    - {b S008} deletes of never-upserted digests in committed segments;
    - {b S009} segment bloat (dead records worth compacting);
    - {b S010} empty relations.

    Every finding is an ordinary {!Diagnostic} whose severity derives
    from the check's {!Checkdef.priority}, so the whole report pipeline
    (text, JSON, exit codes) applies unchanged. *)

val checks : Checkdef.check list
(** The S-checks, ascending by code. *)

val kappa_rollups :
  ?registry:Obs.Metrics.registry -> unit -> Checkdef.kappa_rollup list
(** Read the [dst.combine.kappa_by_source.*] histograms back from the
    metrics registry (default: the ambient one), sorted by source. *)

val merge_records : unit -> Checkdef.merge_record list
(** Every [Combine] node inside an absorption [Step] range of the
    default provenance arena, attributed to the absorbed source. Empty
    when provenance is off. *)

val subject :
  ?thresholds:Checkdef.thresholds ->
  ?telemetry:bool ->
  ?store:Store.Estore.t ->
  (string * Erm.Relation.t) list ->
  Checkdef.store_subject
(** Assemble a sweep subject. [telemetry] (default [true]) harvests
    {!kappa_rollups} and {!merge_records} from the ambient
    observability layer; the store's committed segments are re-read
    through its I/O seam ({!Store.Estore.fold_segments}).
    @raise Store.Recovery.Store_error if a committed segment fails
    re-verification. *)

val run : Checkdef.store_subject -> Diagnostic.t list
(** Run every S-check over the subject, under an [analysis.sweep] span
    with [analysis.sweep.*] metrics (runs, checks, relations, tuples,
    findings) when recording is enabled. Findings are sorted with
    {!Diagnostic.compare}; {!Report} re-sorts by priority. *)
