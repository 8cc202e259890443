(** The sharded evaluation engine behind
    [Query.Physical.Sharded].

    Each physical operator is evaluated as [shards] independent
    sub-evaluations over a content-addressed partition of its inputs
    ({!Shard}), run through the deterministic task {!Pool}, and folded
    back together by a canonical ordered merge — so the result is
    bit-identical to the inline executor's for {e any} shard count and
    {e any} worker count (the 5th conformance leg in
    test/test_conformance.ml). Per-shard Dempster combination always
    runs through a fresh per-shard {!Dst.Combine_cache} — at every
    worker count, so cache hit/miss counters cannot depend on
    [domains].

    {b Determinism contract} (see DESIGN.md §6–7 for the full
    argument):

    - provenance recording on, or [shards ≤ 1] → the engine stands
      aside entirely and runs [Query.Physical.execute], so lineage is
      plan- and shard-invariant by construction (lineage ids are
      allocation-ordered and have no buffered mode);
    - metrics, tracing and the flight recorder run at {e full}
      parallelism: the {!Pool} forks a per-task telemetry buffer
      triple and merges at the barrier in task-index order, so metric
      dumps, span forests and the event journal are byte-identical to
      a single-worker run ([dst.*], [combine_cache.*],
      [integration.*], [exec.*] — everything);
    - counter rollups are worker-count-invariant at a fixed shard
      count; across {e shard} counts the [exec.*] diagnostics and the
      per-shard cache hit/miss split legitimately differ (the
      partition itself changes).

    The engine emits [exec.shards], [exec.shard.rows] and
    [exec.merge.ns] metrics, [exec.*] spans, and [Shard_spawn] /
    [Shard_merge] flight-recorder events through the default tracer's
    clock, so a virtual clock keeps them deterministic. *)

val install : unit -> unit
(** Register {!execute} as [Query.Physical]'s sharded runner. Idempotent;
    call once at program start (the binaries and test harnesses do). *)

val reset_scan_cache : unit -> unit
(** Drop every cached per-shard partition and index. The cache already
    self-invalidates — entries are keyed on the physical relation and
    the process-wide store generation ({!Store.Estore.generation}) —
    so this is for harnesses that compare cold-start metric rollups
    ([exec.index.build] vs [exec.index.reuse]) across repeated runs. *)

val execute :
  Query.Physical.sharded ->
  ?ctx:Query.Physical.ctx ->
  Query.Eval.env ->
  Query.Physical.t ->
  Erm.Relation.t
(** Evaluate a physical plan shard-wise. Raises exactly the inline
    executor's exceptions ({!Query.Eval.Eval_error}, evidence
    conflicts); when several shards fail, the lowest-numbered shard's
    exception wins deterministically. *)

val integrate :
  Query.Physical.sharded ->
  ?policy:Dst.Rule.policy ->
  ?discount:bool ->
  ?alpha_floor:float ->
  ?prior:(string * float) list ->
  Integration.Multi.source list ->
  Integration.Multi.report
(** Sharded {!Integration.Multi.integrate}: the conflict matrix and
    per-source reliabilities are computed {e globally} (a per-shard
    matrix would change discount rates), sources are discounted whole,
    and only the per-key absorption folds are partitioned. The report —
    integrated relation, conflict list order, matrix, reliabilities —
    is identical to the unsharded one — for any combination rule:
    evidence cells combine under [?policy] (default {!Dst.Rule.current},
    which worker domains read but never write — set the session rule
    before integrating). Delegates to the unsharded path only when
    provenance recording is on or [shards ≤ 1]; metrics and tracing
    ride the pool's per-task buffers at full parallelism. *)
