type source = { source_name : string; source_relation : Erm.Relation.t }

type report = {
  integrated : Erm.Relation.t;
  conflicts : (string * Erm.Ops.conflict) list;
  conflict_matrix : (string * string * float) list;
  reliabilities : (string * float) list;
}

exception No_sources

let conflict_matrix sources =
  let rec pairs = function
    | a :: rest ->
        List.map
          (fun b ->
            let assessment =
              Reliability.assess a.source_relation b.source_relation
            in
            (a.source_name, b.source_name, assessment.Reliability.mean_conflict))
          rest
        @ pairs rest
    | [] -> []
  in
  pairs sources

let reliability_from_matrix matrix name =
  let kappas =
    List.filter_map
      (fun (a, b, k) ->
        if String.equal a name || String.equal b name then Some k else None)
      matrix
  in
  match kappas with
  | [] -> 1.0
  | _ ->
      let mean =
        List.fold_left ( +. ) 0.0 kappas /. float_of_int (List.length kappas)
      in
      Float.max 0.0 (Float.min 1.0 (1.0 -. mean))

let reliabilities ?(discount = false) ?(alpha_floor = 0.0) ?(prior = [])
    matrix sources =
  if alpha_floor < 0.0 || alpha_floor > 1.0 then
    invalid_arg "Multi.integrate: alpha_floor outside [0,1]";
  List.iter
    (fun (name, a) ->
      if a < 0.0 || a > 1.0 then
        invalid_arg
          (Printf.sprintf "Multi.integrate: prior for %s outside [0,1]" name))
    prior;
  List.map
    (fun s ->
      let conflict_alpha =
        if discount then reliability_from_matrix matrix s.source_name
        else 1.0
      in
      let prior_alpha =
        match List.assoc_opt s.source_name prior with
        | Some a -> a
        | None -> 1.0
      in
      (s.source_name, Float.max alpha_floor (prior_alpha *. conflict_alpha)))
    sources

let integrate_inner ?policy ?discount ?alpha_floor ?prior sources =
  match sources with
  | [] ->
      (* Validate the knobs even when there is nothing to fold, keeping
         the historical error precedence (Invalid_argument before
         No_sources is not observable: both were raised before any
         work). *)
      ignore (reliabilities ?discount ?alpha_floor ?prior [] []);
      raise No_sources
  | first :: rest ->
      (* Knob validation precedes any observable work (provenance
         registration included), as it always has. *)
      ignore (reliabilities ?discount ?alpha_floor ?prior [] []);
      (* Sources register before any discounting or merging so that
         discount and combination hooks resolve their operands to
         Source leaves instead of anonymous operands. *)
      if Obs.Provenance.on () then
        List.iter
          (fun s ->
            Erm.Lineage.register_relation ~name:s.source_name
              s.source_relation)
          sources;
      let matrix = conflict_matrix sources in
      let reliabilities =
        reliabilities ?discount ?alpha_floor ?prior matrix sources
      in
      let prepared s =
        let alpha = List.assoc s.source_name reliabilities in
        if alpha >= 1.0 then s.source_relation
        else begin
          let d = Reliability.discount_relation alpha s.source_relation in
          (* Evidence cells get Discount nodes from the Mass hook; the
             membership support is discounted arithmetically, so its
             lineage is recorded here. *)
          if Obs.Provenance.on () then
            Erm.Lineage.record_discount ~alpha s.source_relation d;
          d
        end
      in
      let conflicts = ref [] in
      (* One absorption step per source: the [from, to) node range lets
         the audit attribute every combination's κ to the source whose
         absorption produced it. *)
      let absorb acc s =
        let mark =
          if Obs.Provenance.on () then Obs.Provenance.count () else 0
        in
        let merged, cs = Erm.Ops.union_report ?policy acc (prepared s) in
        conflicts := !conflicts @ List.map (fun c -> (s.source_name, c)) cs;
        if Obs.Provenance.on () then begin
          let upto = Obs.Provenance.count () in
          ignore
            (Obs.Provenance.add Obs.Provenance.Step
               (lazy ("absorb " ^ s.source_name))
               ~args:
                 [ ("source", s.source_name);
                   ("from", string_of_int mark);
                   ("to", string_of_int upto) ]);
          if Obs.Metrics.on () then
            for i = mark to upto - 1 do
              let n = Obs.Provenance.node i in
              match (n.Obs.Provenance.kind, n.Obs.Provenance.kappa) with
              | Obs.Provenance.Combine, Some k ->
                  Obs.Metrics.observe
                    ("dst.combine.kappa_by_source." ^ s.source_name)
                    k
              | _ -> ()
            done
        end;
        merged
      in
      let integrated = List.fold_left absorb (prepared first) rest in
      let report =
        { integrated; conflicts = !conflicts; conflict_matrix = matrix;
          reliabilities }
      in
      if Obs.Metrics.on () then begin
        Obs.Metrics.incr ~by:(List.length sources) "integration.sources";
        Obs.Metrics.incr ~by:(List.length !conflicts) "integration.conflicts";
        List.iter
          (fun (_, _, k) -> Obs.Metrics.observe "integration.mean_kappa" k)
          matrix
      end;
      report

type change = Changed of Erm.Etuple.t | Dropped of Erm.Etuple.t

(* One absorption step in O(changed entities): only the delta's keys are
   visited, every untouched tuple of [into] rides along structurally.
   Per-key outcomes go through Erm.Ops.merge_report — the exact function
   union_report applies — so folding a delta into a stored merge is
   bit-identical to re-integrating all sources from scratch (Dempster's
   rule is associative and integrate folds left-to-right). *)
let absorb_delta ?policy ~into s =
  let schema = Erm.Relation.schema into in
  if not (Erm.Schema.union_compatible schema (Erm.Relation.schema s.source_relation))
  then
    raise
      (Erm.Ops.Incompatible_schemas
         (Format.asprintf "%s and %s are not union-compatible"
            (Erm.Schema.name schema)
            (Erm.Schema.name (Erm.Relation.schema s.source_relation))));
  if Obs.Provenance.on () then
    Erm.Lineage.register_relation ~name:s.source_name s.source_relation;
  let mark = if Obs.Provenance.on () then Obs.Provenance.count () else 0 in
  let conflicts = ref [] in
  let record key attr detail =
    conflicts :=
      { Erm.Ops.conflict_key = key;
        conflict_attr = attr;
        conflict_detail = detail }
      :: !conflicts
  in
  let changes = ref [] in
  let merged =
    Erm.Relation.fold
      (fun t acc ->
        match Erm.Relation.find_opt into (Erm.Etuple.key t) with
        | None ->
            changes := Changed t :: !changes;
            Erm.Relation.replace acc t
        | Some old -> (
            match Erm.Ops.merge_report ?policy schema ~record old t with
            | Some m when Dst.Support.positive (Erm.Etuple.tm m) ->
                changes := Changed m :: !changes;
                Erm.Relation.replace acc m
            | Some _ | None ->
                (* union_report omits the pair (conflict, or the merged
                   membership lost all necessary support). *)
                changes := Dropped old :: !changes;
                Erm.Relation.remove acc (Erm.Etuple.key old)))
      s.source_relation into
  in
  if Obs.Provenance.on () then begin
    let upto = Obs.Provenance.count () in
    ignore
      (Obs.Provenance.add Obs.Provenance.Step
         (lazy ("absorb " ^ s.source_name))
         ~args:
           [ ("source", s.source_name);
             ("from", string_of_int mark);
             ("to", string_of_int upto) ]);
    if Obs.Metrics.on () then
      for i = mark to upto - 1 do
        let n = Obs.Provenance.node i in
        match (n.Obs.Provenance.kind, n.Obs.Provenance.kappa) with
        | Obs.Provenance.Combine, Some k ->
            Obs.Metrics.observe
              ("dst.combine.kappa_by_source." ^ s.source_name)
              k
        | _ -> ()
      done
  end;
  (merged, List.rev !conflicts, List.rev !changes)

let integrate ?policy ?discount ?alpha_floor ?prior sources =
  let body () =
    integrate_inner ?policy ?discount ?alpha_floor ?prior sources
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"integration"
      ~args:
        [ ("detail", Printf.sprintf "%d sources" (List.length sources)) ]
      "integration.multi" body
  else body ()

let pp ppf r =
  Format.fprintf ppf "@[<v>integrated %d tuples from %d sources"
    (Erm.Relation.cardinal r.integrated)
    (List.length r.reliabilities);
  List.iter
    (fun (name, alpha) ->
      Format.fprintf ppf "@,  %s: reliability %.3f" name alpha)
    r.reliabilities;
  List.iter
    (fun (a, b, k) ->
      Format.fprintf ppf "@,  mean kappa(%s, %s) = %.3f" a b k)
    r.conflict_matrix;
  List.iter
    (fun (name, c) ->
      Format.fprintf ppf "@,  conflict absorbing %s: %a" name
        Erm.Ops.pp_conflict c)
    r.conflicts;
  Format.fprintf ppf "@]"
