(* The repository benchmark: one command, four workloads.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every run first checks the paper's artifacts, then sets the workload
   up several times (the median is setup_s), then measures a closed loop
   with one client for S seconds, checking every output against a
   reference. With --trace 0 it prints the end-to-end metrics; with
   --trace 1 it runs every step twice, untraced and then under the
   benchmark's own tracer, and prints the per-layer metrics. The last
   line of standard output is one JSON object; a failed operation or
   check makes the exit code 1. *)

let setups = 5
let workdir = "_perfbench"

type workload = {
  setup_s : float list;
  run_op : Spans.t -> int -> unit;
  ops_per_step : int;  (** workload operations in one [run_op] *)
  reset : unit -> unit;
  end_to_end : unit -> Measure.metric list;
  named : unit -> Measure.metric list;
  layers : Obs.Trace.t -> Measure.metric list;
  probe_spans : string list;
      (** spans around calls the traced run adds (not in the untraced
          loop), excluded from the trace overhead *)
}

let query ~strategy m seed =
  (match strategy with
  | Query.Physical.Sharded c -> Measure.calibration_domains := c.domains
  | Inline -> ());
  let setup_s, q = Query_wl.prepare ~strategy ~setups seed in
  {
    setup_s;
    run_op = (fun tr i -> Query_wl.run_op q m tr i);
    ops_per_step = Array.length Query_wl.templates;
    reset = (fun () -> Query_wl.reset_samples q);
    end_to_end = (fun () -> Query_wl.end_to_end q);
    named = (fun () -> Query_wl.named q);
    layers = Query_wl.per_layer q;
    probe_spans = [];
  }

let integrate ~audit m seed =
  let tmp = Filename.concat workdir "tmp" in
  let setup_s, t = Integrate_wl.prepare ~audit ~setups ~workdir:tmp seed in
  {
    setup_s;
    run_op = (fun tr i -> Integrate_wl.run_op t m tr i);
    ops_per_step = 1;
    reset = (fun () -> Integrate_wl.reset_samples t);
    end_to_end = (fun () -> Integrate_wl.end_to_end t);
    named = (fun () -> Integrate_wl.named t);
    layers = Integrate_wl.per_layer t;
    probe_spans = [ "integration.conflict_matrix"; "integration.absorb_delta" ];
  }

let workloads =
  [
    ("query-inline", query ~strategy:Query.Physical.Inline);
    ("query-sharded", query ~strategy:(Query.Physical.Sharded Query_wl.sharded));
    ("integrate-store", integrate ~audit:false);
    ("integrate-audit", integrate ~audit:true);
  ]

(* Every per-layer metric, in report order, with its unit. A workload
   that leaves a layer idle reports 0 for it. *)
let per_layer_names =
  let each prefix suffixes unit_ =
    List.map (fun s -> (prefix ^ s, unit_)) suffixes
  in
  let templates = Array.to_list Query_wl.templates in
  [ ("query.parse_ms", "ms"); ("query.plan_ms", "ms") ]
  @ each "query.execute_ms." templates "ms"
  @ each "physical.self_ms." Query_wl.operators "ms"
  @ [
      ("combine_cache.hit_ratio", "ratio");
      ("combine_cache.entries", "count");
      ("dst.combine.calls", "count/op");
      ("dst.combine.ns_per_call", "ns");
    ]
  @ each "exec.execute_ms." templates "ms"
  @ [
      ("exec.merge.ns", "ns");
      ("exec.shard.rows", "count");
      ("exec.index.build", "count/op");
      ("exec.index.reuse", "count/op");
      ("exec.workers", "count");
      ("integration.conflict_matrix_ms", "ms");
      ("integration.integrate_ms", "ms");
      ("integration.absorb_delta_ms", "ms");
      ("store.create_ms", "ms");
      ("store.commit_ms", "ms");
      ("store.commit.bytes", "B");
      ("store.commit.records", "count");
      ("store.open_ms", "ms");
      ("store.recovery.segments", "count");
      ("store.recovery.records", "count");
      ("provenance.nodes_per_tuple", "count");
      ("provenance.max_depth", "count");
      ("why.find_ms", "ms");
      ("why.tree_ms", "ms");
      ("gc.minor_words_per_op", "words/op");
      ("gc.major_words_per_op", "words/op");
      ("gc.major_collections_per_op", "count/op");
      ("trace.overhead_frac", "ratio");
    ]

(* --- run metadata ------------------------------------------------ *)

let read_file f = String.trim (In_channel.with_open_text f In_channel.input_all)

let commit () =
  let git = ".git" in
  match read_file (Filename.concat git "HEAD") with
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      try read_file (Filename.concat git r) with Sys_error _ -> "unknown")
  | sha -> sha
  | exception Sys_error _ -> "unknown"

let rec line_count path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + line_count (Filename.concat path f))
      0 (Sys.readdir path)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then
    List.length
      (String.split_on_char '\n'
         (In_channel.with_open_bin path In_channel.input_all))
    - 1
  else 0

(* --- output ------------------------------------------------------ *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (x : Measure.metric) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
           x.value x.unit_)
       metrics)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (x : Measure.metric) ->
      Printf.printf "  %-34s %16.6g %-9s (n=%d)\n" x.name x.value x.unit_ x.n)
    metrics

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* --- the two kinds of run ---------------------------------------- *)

let untraced w ~seconds =
  ignore (Measure.repeat_for ~seconds (w.run_op None));
  ( Measure.metric ~n:setups "setup_s" "s" (Measure.median w.setup_s)
    :: w.end_to_end ()
    @ [ Measure.metric "heap_peak_mb" "MB" (Measure.heap_peak_mb ()) ],
    w.named ()
    @ [ Measure.metric "calibration_ms" "ms" (Measure.calibration_ms ()) ] )

(* Every step runs twice, untraced and traced, in alternating order so
   that neither side always gets the warmer caches; only the traced run
   records spans, program counters and GC deltas. *)
let traced w (m : Measure.t) ~seconds ~dump =
  w.reset ();
  Obs.Metrics.reset ();
  let tracer = Obs.Trace.create () in
  let gc = Measure.gc_totals () in
  let untraced_ms = ref 0.0 and traced_ms = ref 0.0 in
  let plain i =
    m.gc <- None;
    let t0 = Measure.now () in
    w.run_op None i;
    untraced_ms := !untraced_ms +. Measure.ms_between t0 (Measure.now ())
  in
  let with_trace i =
    m.gc <- Some gc;
    Obs.Metrics.enable ();
    let t0 = Measure.now () in
    Obs.Trace.with_span ~tracer ~cat:"perfbench" "perfbench.step" (fun () ->
        w.run_op (Some tracer) i);
    traced_ms := !traced_ms +. Measure.ms_between t0 (Measure.now ());
    Obs.Metrics.disable ()
  in
  let steps =
    Measure.repeat_for ~seconds (fun i ->
        if i mod 2 = 0 then begin
          plain i;
          with_trace i
        end
        else begin
          with_trace i;
          plain i
        end)
  in
  m.gc <- None;
  let traced_ms = !traced_ms and untraced_ms = !untraced_ms in
  let snapshot = Obs.Metrics.snapshot () in
  Obs.Export.write_chrome tracer dump;
  Measure.op m "trace reconciliation" (fun () ->
      let self_sum, root_sum = Spans.reconcile tracer in
      Measure.check "self times add up to the root spans"
        (Float.abs (self_sum -. root_sum) <= 1e-6 *. root_sum);
      Measure.check "root spans cover the traced wall time"
        (Float.abs (root_sum -. traced_ms) <= 0.01 *. traced_ms));
  let ops = float_of_int (steps * w.ops_per_step) in
  let stat name = List.assoc_opt name snapshot in
  let per_op name =
    match stat name with
    | Some (Obs.Metrics.Counter c) -> float_of_int c /. ops
    | _ -> 0.0
  in
  let mean name =
    match stat name with
    | Some (Obs.Metrics.Histogram h) when h.count > 0 ->
        h.sum /. float_of_int h.count
    | _ -> 0.0
  in
  let gauge name =
    match stat name with Some (Obs.Metrics.Gauge g) -> g | _ -> 0.0
  in
  let probes =
    Measure.sum (List.map (Spans.total tracer) w.probe_spans)
  in
  let found =
    w.layers tracer
    @ Measure.
        [
          metric "dst.combine.calls" "count/op" (per_op "dst.combine.calls");
          metric "exec.merge.ns" "ns" (mean "exec.merge.ns");
          metric "exec.shard.rows" "count" (mean "exec.shard.rows");
          metric "exec.index.build" "count/op" (per_op "exec.index.build");
          metric "exec.index.reuse" "count/op" (per_op "exec.index.reuse");
          metric "exec.workers" "count" (gauge "exec.workers");
          metric "gc.minor_words_per_op" "words/op" (gc.minor_words /. ops);
          metric "gc.major_words_per_op" "words/op" (gc.major_words /. ops);
          metric "gc.major_collections_per_op" "count/op"
            (float_of_int gc.major_collections /. ops);
          metric "trace.overhead_frac" "ratio"
            (((traced_ms -. probes) /. untraced_ms) -. 1.0);
        ]
  in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Measure.metric) -> x.name = name) found with
      | Some x -> x
      | None -> Measure.metric ~n:0 name unit_ 0.0)
    per_layer_names

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> usage ()
  in
  Exec.Engine.install ();
  mkdir_p (Filename.concat workdir "tmp");
  let meta =
    Printf.sprintf
      "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
       \"commit\": \"%s\", \"nproc\": %d, \"lib_lines\": %d}"
      !workload !seed !seconds !trace (commit ())
      (Domain.recommended_domain_count ())
      (try line_count "lib" with Sys_error _ -> 0)
  in
  Printf.printf "run %s\n%!" meta;
  let m = Measure.create () in
  Paper_checks.run m;
  let w = make m !seed in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let metrics, named =
    if !trace = 0 then untraced w ~seconds:!seconds
    else
      ( traced w m ~seconds:!seconds
          ~dump:(Filename.concat workdir ("spans-" ^ tag ^ ".json")),
        [] )
  in
  List.iter
    (fun (x : Measure.metric) ->
      Measure.op m ("metric " ^ x.name) (fun () ->
          Measure.check "finite" (Float.is_finite x.value)))
    metrics;
  let failed_frac =
    float_of_int m.failed /. float_of_int (max 1 m.attempted)
  in
  let named =
    named @ [ Measure.metric ~n:m.attempted "failed_frac" "ratio" failed_frac ]
  in
  print_table
    (if !trace = 0 then "end-to-end metrics:" else "per-layer metrics:")
    metrics;
  if named <> [] then print_table "workload metrics:" named;
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) (List.rev m.failures);
  let correct = m.failed = 0 in
  let result =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct m.attempted m.failed (json_metrics metrics)
  in
  Out_channel.with_open_text
    (Filename.concat workdir ("result-" ^ tag ^ ".json"))
    (fun oc ->
      Printf.fprintf oc
        "{\"run\": %s,\n \"result\": %s,\n \"workload_metrics\": {%s}}\n" meta
        result (json_metrics named));
  print_endline result;
  if not correct then exit 1
