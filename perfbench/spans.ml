(* The benchmark's own tracer. Spans are recorded here, around calls
   into each layer's public functions; library code is not touched.
   Untraced runs pass [None] and pay nothing but the call. *)

type t = Obs.Trace.t option

let span (tr : t) name f =
  match tr with
  | None -> f ()
  | Some tracer -> Obs.Trace.with_span ~tracer ~cat:"perfbench" name f

(* Self time of every span: its duration minus the part of its interval
   that its children cover (children intervals are merged first, so
   overlapping children are not counted twice). *)
let self_times tracer =
  let events = Obs.Trace.events tracer in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.parent with
      | Some p -> Hashtbl.add children p e
      | None -> ())
    events;
  let covered (e : Obs.Trace.event) =
    let lo = e.ts_ms and hi = e.ts_ms +. e.dur_ms in
    let ivs =
      Hashtbl.find_all children e.id
      |> List.map (fun (c : Obs.Trace.event) ->
             (Float.max lo c.ts_ms, Float.min hi (c.ts_ms +. c.dur_ms)))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (acc, cur) (a, b) ->
          match cur with
          | None -> (acc, Some (a, b))
          | Some (ca, cb) ->
              if a <= cb then (acc, Some (ca, Float.max cb b))
              else (acc +. (cb -. ca), Some (a, b)))
        (0.0, None) ivs
    in
    match last with None -> total | Some (a, b) -> total +. (b -. a)
  in
  List.map (fun (e : Obs.Trace.event) -> (e, e.dur_ms -. covered e)) events

(* Durations (ms) of every span with the given name. *)
let durations tracer name =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if String.equal e.name name then Some e.dur_ms else None)
    (Obs.Trace.events tracer)

let total tracer name = Measure.sum (durations tracer name)

(* The median duration of a span as a metric, with its sample count. *)
let median_metric tracer ~span name =
  let d = durations tracer span in
  Measure.metric ~n:(List.length d) name "ms" (Measure.median d)

(* Reconciliation: the self times of all spans add up to the root
   spans' durations, and the roots cover the externally measured wall
   time of the traced phase. Returns (sum of self, sum of roots). *)
let reconcile tracer =
  let selfs = self_times tracer in
  let self_sum = Measure.sum (List.map snd selfs) in
  let root_sum =
    Measure.sum
      (List.filter_map
         (fun ((e : Obs.Trace.event), _) ->
           if e.parent = None then Some e.dur_ms else None)
         selfs)
  in
  (self_sum, root_sum)
