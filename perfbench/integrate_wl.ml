(* integrate-store and integrate-audit: the [federate --store] path in
   cycles. Each cycle integrates four sources with discounting, commits
   the result into a fresh store directory, applies a fixed number of
   seeded deltas and reopens the store with verification. integrate-audit does
   the same with provenance recording on (reset at the start of every
   cycle, as a fresh [federate --audit] process would) and answers
   [.why] for a seeded sample of cells after every delta. *)

let keys = 2_500
let deltas_per_cycle = 20
let whys_per_delta = 4
let sources = 4

type data = {
  schema : Erm.Schema.t;
  base : Erm.Relation.t;
  sources : Integration.Multi.source list;
  integrated : Erm.Relation.t;  (** the provenance-off reference *)
  input_tuples : int;
}

let source source_name source_relation =
  { Integration.Multi.source_name; source_relation }

(* A base relation plus three re-observations of the same keys (so every
   key merges four ways with κ > 0), and their provenance-off
   integration as the reference. *)
let generate seed =
  let rng = Workload.Rng.create seed in
  let schema = Workload.Gen.schema "src" in
  let base = Workload.Gen.relation rng ~size:keys schema in
  let sources =
    source "s0" base
    :: List.init (sources - 1) (fun i ->
           source
             (Printf.sprintf "s%d" (i + 1))
             (Workload.Gen.reobserve rng base))
  in
  let integrated =
    (Integration.Multi.integrate ~discount:true sources).integrated
  in
  { schema; base; sources; integrated; input_tuples = List.length sources * keys }

(* One cycle's deltas, each re-observing a seeded 1% of the keys, and
   the provenance-off relation after each is folded in. Every cycle
   draws fresh deltas, so the latency tail comes from many distinct
   deltas rather than the same twenty. *)
type deltas = {
  deltas : (string * Erm.Relation.t) array;
  delta_keys : string array array;
  after : Erm.Relation.t array;
}

let cycle_deltas data rng =
  let all = List.init keys Fun.id in
  let delta_keys =
    Array.init deltas_per_cycle (fun _ ->
        Array.of_list
          (List.map
             (fun i -> "key" ^ string_of_int i)
             (Workload.Rng.sample rng (keys / 100) all)))
  in
  let deltas =
    Array.mapi
      (fun d ks ->
        let sub =
          Erm.Relation.of_tuples data.schema
            (Array.to_list
               (Array.map
                  (fun k -> Erm.Relation.find data.base [ Dst.Value.string k ])
                  ks))
        in
        (Printf.sprintf "d%d" d, Workload.Gen.reobserve rng sub))
      delta_keys
  in
  let cur = ref data.integrated in
  let after =
    Array.map
      (fun (name, rel) ->
        let r, _, _ =
          Integration.Multi.absorb_delta ~into:!cur (source name rel)
        in
        cur := r;
        r)
      deltas
  in
  { deltas; delta_keys; after }

(* The delta-folded relation must equal a from-scratch integration of
   the committed relation followed by every delta. *)
let from_scratch_check data d =
  let srcs =
    source "committed" data.integrated
    :: Array.to_list (Array.map (fun (name, rel) -> source name rel) d.deltas)
  in
  let scratch = (Integration.Multi.integrate ~discount:false srcs).integrated in
  Measure.check "delta folds equal a from-scratch Multi.integrate"
    (Erm.Relation.equal scratch d.after.(deltas_per_cycle - 1))

type samples = {
  mutable deltas_run : Measure.sample list;
  mutable load_ms : float list;  (** integrate + initial commit *)
  mutable cycles : Measure.sample list;
  mutable reopens : Measure.sample list;
  mutable bytes_per_tuple : float list;
  mutable whys : Measure.sample list;
  (* traced runs only *)
  mutable commit_ms : float list;
  mutable combine_calls : int;
  mutable commit_bytes : int list;
  mutable commit_records : int list;
  mutable recovery_segments : int list;
  mutable recovery_records : int list;
  mutable nodes_per_tuple : float list;
  mutable max_depth : int;
}

let empty_samples () =
  {
    deltas_run = [];
    load_ms = [];
    cycles = [];
    reopens = [];
    bytes_per_tuple = [];
    whys = [];
    commit_ms = [];
    combine_calls = 0;
    commit_bytes = [];
    commit_records = [];
    recovery_segments = [];
    recovery_records = [];
    nodes_per_tuple = [];
    max_depth = 0;
  }

type t = {
  audit : bool;
  seed : int;
  workdir : string;
  data : data;
  mutable s : samples;
}

let prepare ~audit ~setups ~workdir seed =
  let last = ref None in
  let setup_s =
    List.init setups (fun _ ->
        last := None;
        Gc.full_major ();
        let t0 = Measure.now () in
        last := Some (generate seed);
        Measure.now () -. t0)
  in
  ( setup_s,
    { audit; seed; workdir; data = Option.get !last; s = empty_samples () } )

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let counter name = Obs.Metrics.counter name

(* [.why] for one cell: the tuple's evidence digest resolves to a
   lineage node, and its derivation tree unfolds from that node. *)
let why tr (m : Measure.t) ~add t store rng ks =
  let key = ks.(Workload.Rng.int rng (Array.length ks)) in
  let attr = if Workload.Rng.bool rng then "e0" else "e1" in
  Measure.op m "why" (fun () ->
      let rel = Store.Estore.relation store in
      let (tree : Obs.Why.tree option), x =
        Measure.timed m (fun () ->
            match
              Erm.Etuple.cell (Erm.Relation.schema rel)
                (Erm.Relation.find rel [ Dst.Value.string key ])
                attr
            with
            | Erm.Etuple.Definite _ -> None
            | Erm.Etuple.Evidence e -> (
                let digest = Dst.Mass.F.digest e in
                match
                  Spans.span tr "why.find" (fun () -> Obs.Provenance.find digest)
                with
                | None -> None
                | Some id ->
                    Some (Spans.span tr "why.tree" (fun () -> Obs.Why.tree id))))
      in
      add x;
      t.s.whys <- x :: t.s.whys;
      match tree with
      | None -> Measure.check ("lineage recorded for " ^ key ^ "." ^ attr) false
      | Some tree ->
          Measure.check "derivation has inputs" (tree.children <> []))

let run_op t (m : Measure.t) tr i =
  let dir =
    Filename.concat t.workdir
      (Printf.sprintf "%s-%d-%d"
         (if t.audit then "audit" else "store")
         (Unix.getpid ()) i)
  in
  rm_rf dir;
  let rng = Workload.Rng.create (t.seed + (7919 * (i + 1))) in
  (* The references are checking apparatus: keep them out of the
     program counters a traced step reads. *)
  let metrics_on = Obs.Metrics.on () in
  Obs.Metrics.disable ();
  let d = cycle_deltas t.data rng in
  Measure.op m "from-scratch integrate" (fun () -> from_scratch_check t.data d);
  if metrics_on then Obs.Metrics.enable ();
  (* An audit cycle starts like a fresh [federate --audit] process: an
     empty lineage arena, and the previous cycle's arena collected, so
     that no cycle pays for the garbage of the one before. *)
  if t.audit then begin
    Obs.Provenance.reset ();
    Gc.full_major ();
    Obs.Provenance.enable ()
  end;
  let mark = Measure.mark () and parts = ref [] in
  let add x = parts := x :: !parts in
  Fun.protect
    ~finally:(fun () ->
      if t.audit then Obs.Provenance.disable ();
      rm_rf dir)
    (fun () ->
      Measure.op m "cycle" (fun () ->
          if tr <> None && not t.audit then
            ignore
              (Spans.span tr "integration.conflict_matrix" (fun () ->
                   Integration.Multi.conflict_matrix t.data.sources));
          let calls0 = counter "dst.combine.calls" in
          let report, integrate =
            Measure.timed m (fun () ->
                Spans.span tr "integration.integrate" (fun () ->
                    Integration.Multi.integrate ~discount:true t.data.sources))
          in
          t.s.combine_calls <-
            t.s.combine_calls + counter "dst.combine.calls" - calls0;
          if t.audit && tr <> None then
            t.s.nodes_per_tuple <-
              (float_of_int (Obs.Provenance.count ())
              /. float_of_int t.data.input_tuples)
              :: t.s.nodes_per_tuple;
          Measure.check "integrated relation equals the provenance-off reference"
            (Erm.Relation.equal report.integrated t.data.integrated);
          let store, create =
            Measure.timed m (fun () ->
                Spans.span tr "store.create" (fun () ->
                    Store.Estore.create ~dir ~name:"merged" report.integrated))
          in
          add integrate;
          add create;
          t.s.load_ms <- (integrate.ms +. create.ms) :: t.s.load_ms;
          Array.iteri
            (fun k (name, rel) ->
              let absorb_ms =
                if tr <> None && not t.audit then begin
                  let t0 = Measure.now () in
                  ignore
                    (Spans.span tr "integration.absorb_delta" (fun () ->
                         Integration.Multi.absorb_delta
                           ~into:(Store.Estore.relation store)
                           (source name rel)));
                  Measure.ms_between t0 (Measure.now ())
                end
                else 0.0
              in
              let bytes0 = counter "store.commit.bytes"
              and records0 = counter "store.commit.records" in
              let outcome, x =
                Measure.timed m (fun () ->
                    Spans.span tr "store.delta_apply" (fun () ->
                        Store.Delta.apply store ~name rel))
              in
              add x;
              t.s.deltas_run <- x :: t.s.deltas_run;
              if tr <> None then begin
                t.s.commit_ms <- (x.ms -. absorb_ms) :: t.s.commit_ms;
                t.s.commit_bytes <-
                  (counter "store.commit.bytes" - bytes0) :: t.s.commit_bytes;
                t.s.commit_records <-
                  (counter "store.commit.records" - records0)
                  :: t.s.commit_records
              end;
              Measure.check
                (Printf.sprintf "relation after delta %d equals the reference" k)
                (Erm.Relation.equal outcome.relation d.after.(k));
              if t.audit then
                for _ = 1 to whys_per_delta do
                  why tr m ~add t store rng d.delta_keys.(k)
                done)
            d.deltas;
          if t.audit && tr <> None then
            t.s.max_depth <- max t.s.max_depth (Obs.Provenance.max_depth ());
          let seg0 = counter "store.recovery.segments"
          and rec0 = counter "store.recovery.records" in
          let (reopened, _), reopen =
            Measure.timed m (fun () ->
                Spans.span tr "store.open" (fun () ->
                    Store.Estore.open_store ~verify:true dir))
          in
          add reopen;
          if tr <> None then begin
            t.s.recovery_segments <-
              (counter "store.recovery.segments" - seg0) :: t.s.recovery_segments;
            t.s.recovery_records <-
              (counter "store.recovery.records" - rec0) :: t.s.recovery_records
          end;
          t.s.reopens <- reopen :: t.s.reopens;
          let final = Store.Estore.relation reopened in
          Measure.check "reopened store equals the delta-folded relation"
            (Erm.Relation.equal final d.after.(deltas_per_cycle - 1));
          t.s.bytes_per_tuple <-
            (float_of_int (dir_bytes dir)
            /. float_of_int (Erm.Relation.cardinal final))
            :: t.s.bytes_per_tuple;
          t.s.cycles <- Measure.span_sample ~mark !parts :: t.s.cycles))

let reset_samples t = t.s <- empty_samples ()

let end_to_end t =
  let s = t.s in
  let d = Measure.cal s.deltas_run in
  let n = List.length d in
  let open Measure in
  [
    metric ~n "op_p50_cal" "cal" (median d);
    metric ~n:(List.length s.cycles) "cycle_cal" "cal" (median (cal s.cycles));
  ]

(* The workload table's figures, in wall-clock units. *)
let named t =
  let s = t.s in
  let d = Measure.ms s.deltas_run in
  let n = List.length d and c = List.length s.cycles in
  let tuples_per_s ms = float_of_int t.data.input_tuples /. (ms /. 1000.) in
  let open Measure in
  [
    metric ~n:c "load_tuples_per_s" "1/s"
      (median (List.map tuples_per_s s.load_ms));
    metric ~n "delta_p50_ms" "ms" (median d);
    metric ~n "delta_p90_ms" "ms" (percentile 0.9 d);
    metric ~n:c "reopen_ms" "ms" (median (ms s.reopens));
    metric ~n:c "store_bytes_per_tuple" "B" (median s.bytes_per_tuple);
  ]
  @
  if t.audit then
    [ metric ~n:(List.length s.whys) "why_p50_ms" "ms" (median (ms s.whys)) ]
  else []

let per_layer t tracer =
  let s = t.s in
  let med span name = Spans.median_metric tracer ~span name in
  let imed name unit_ xs =
    Measure.metric ~n:(List.length xs) name unit_
      (Measure.median (List.map float_of_int xs))
  in
  let integrate_total = Spans.total tracer "integration.integrate" in
  [
    Measure.metric "dst.combine.ns_per_call" "ns"
      (if s.combine_calls = 0 then 0.0
       else integrate_total *. 1e6 /. float_of_int s.combine_calls);
    med "integration.conflict_matrix" "integration.conflict_matrix_ms";
    med "integration.integrate" "integration.integrate_ms";
    med "integration.absorb_delta" "integration.absorb_delta_ms";
    med "store.create" "store.create_ms";
    Measure.metric ~n:(List.length s.commit_ms) "store.commit_ms" "ms"
      (Measure.median s.commit_ms);
    imed "store.commit.bytes" "B" s.commit_bytes;
    imed "store.commit.records" "count" s.commit_records;
    med "store.open" "store.open_ms";
    imed "store.recovery.segments" "count" s.recovery_segments;
    imed "store.recovery.records" "count" s.recovery_records;
    Measure.metric ~n:(List.length s.nodes_per_tuple) "provenance.nodes_per_tuple"
      "count" (Measure.median s.nodes_per_tuple);
    Measure.metric "provenance.max_depth" "count" (float_of_int s.max_depth);
    med "why.find" "why.find_ms";
    med "why.tree" "why.tree_ms";
  ]
