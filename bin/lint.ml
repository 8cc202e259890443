(* eridb-lint — static checks for .erd files, eridb queries and stores.

     eridb-lint data/restaurants.erd examples/*.erd
     eridb-lint --json broken.erd
     eridb-lint --queries examples/queries.txt data/restaurants.erd
     eridb-lint --list-checks
     eridb-lint --sweep STORE --delta feed.erd --min-priority Medium

   Lints every named .erd file without loading it into the runtime
   (Analysis.Erd_lint); with --queries, additionally loads the .erd
   files and runs the plan checker (Analysis.Check) over each
   non-comment line of the query file. With --sweep, opens a store (an
   Estore directory or a .erd catalog directory) and runs the
   whole-store S-checks (Analysis.Sweep) over its merged relations;
   each --delta is absorbed in memory only, so the sweep sees the
   merge-conflict telemetry without committing anything.

   Exit codes (file/query mode): 0 clean, 1 warnings only, 2 errors,
   124 usage error. Missing or unreadable files are E017 error
   diagnostics — reported in the selected format (including --json) and
   exiting 2, never a usage error.

   Exit codes (sweep mode): 0 when no finding above Info survives the
   --min-priority filter, 1 when findings are reported, 2 on
   operational errors (unreadable store or delta). *)

open Cmdliner

exception Load_failed of Analysis.Diagnostic.t

let lint_queries ~files ~queries_file =
  match
    List.concat_map
      (fun path ->
        match Erm.Io.load path with
        | rels ->
            List.map
              (fun r -> (Erm.Schema.name (Erm.Relation.schema r), r))
              rels
        | exception Erm.Io.Io_error { line; col; message } ->
            raise
              (Load_failed
                 (Analysis.Diagnostic.error ~file:path ~line ~col
                    ~code:"Q001" "%s" message)))
      files
  with
  | exception Load_failed d -> [ d ]
  | exception Sys_error m ->
      [ Analysis.Diagnostic.error ~code:"Q001" "%s" m ]
  | env -> (
      match
        let ic = open_in queries_file in
        let n = in_channel_length ic in
        let content = really_input_string ic n in
        close_in ic;
        content
      with
      | exception Sys_error m ->
          [ Analysis.Diagnostic.error ~file:queries_file ~code:"E017"
              "cannot read file: %s" m ]
      | content ->
          String.split_on_char '\n' content
          |> List.mapi (fun i l -> (i + 1, String.trim l))
          |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
          |> List.concat_map (fun (lineno, l) ->
                 List.map
                   (fun d ->
                     (* The checker positions findings within the query
                        text; re-anchor them to the corpus line. *)
                     { d with Analysis.Diagnostic.line = lineno; col = 0 })
                   (Analysis.Check.check_string ~file:queries_file env l)))

let emit ~json diags =
  if json then print_string (Analysis.Report.to_json diags ^ "\n")
  else Analysis.Report.print diags

let run_lint ~json ~queries files =
  let erd_diags = List.concat_map Analysis.Erd_lint.lint_file files in
  let query_diags =
    match queries with
    | None -> []
    | Some qf -> lint_queries ~files ~queries_file:qf
  in
  let diags = erd_diags @ query_diags in
  emit ~json diags;
  Analysis.Report.exit_code diags

(* ------------------------------------------------------------------ *)
(* Store sweeps                                                        *)

exception Sweep_failed of string

let open_subject dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sweep_failed (Printf.sprintf "%s: no such store directory" dir));
  if Sys.file_exists (Filename.concat dir "CATALOG") then
    match Store.Catalog.load dir with
    | catalog -> (Store.Catalog.env catalog, None)
    | exception Store.Catalog.Catalog_error m ->
        raise (Sweep_failed (Printf.sprintf "%s: %s" dir m))
    | exception Sys_error m -> raise (Sweep_failed m)
  else
    match Store.Estore.open_store dir with
    | t, _report -> ([ (Store.Estore.name t, Store.Estore.relation t) ], Some t)
    | exception Store.Recovery.Store_error e ->
        raise
          (Sweep_failed
             (Printf.sprintf "%s: %s" dir (Store.Recovery.error_to_string e)))

(* In-memory absorption: the sweep needs the κ rollups and provenance
   Step ranges a real absorption records, but must not commit — a lint
   never mutates what it checks. *)
let absorb_delta env path =
  let rel =
    match Erm.Io.load path with
    | [ r ] -> r
    | _ ->
        raise
          (Sweep_failed
             (Printf.sprintf "%s: delta file must hold exactly one relation"
                path))
    | exception Erm.Io.Io_error { line; message; _ } ->
        raise (Sweep_failed (Printf.sprintf "%s:%d: %s" path line message))
    | exception Sys_error m -> raise (Sweep_failed m)
  in
  let source = Erm.Schema.name (Erm.Relation.schema rel) in
  let compatible (_, r) =
    Erm.Schema.union_compatible (Erm.Relation.schema r)
      (Erm.Relation.schema rel)
  in
  match List.find_opt compatible env with
  | None ->
      raise
        (Sweep_failed
           (Printf.sprintf "%s: delta %s is union-compatible with no swept \
                            relation"
              path source))
  | Some (name, into) -> (
      match
        Integration.Multi.absorb_delta ~into
          { Integration.Multi.source_name = source; source_relation = rel }
      with
      | merged, _conflicts, _changes ->
          List.map
            (fun (n, r) -> if String.equal n name then (n, merged) else (n, r))
            env
      | exception Dst.Mass.F.Total_conflict ->
          raise
            (Sweep_failed
               (Printf.sprintf "%s: total conflict absorbing %s" path source))
      | exception Erm.Ops.Incompatible_schemas m -> raise (Sweep_failed m))

let run_sweep ~json ~min_priority dir deltas =
  (* The S004/S005 telemetry comes from the ambient metrics registry
     and provenance arena; recording must be on before any delta is
     absorbed. *)
  Obs.Metrics.enable ();
  Obs.Provenance.enable ();
  match
    let env, store = open_subject dir in
    let env = List.fold_left absorb_delta env deltas in
    Analysis.Sweep.run (Analysis.Sweep.subject ?store env)
  with
  | exception Sweep_failed m ->
      if json then
        Printf.printf "{\"error\": \"%s\"}\n" (Analysis.Diagnostic.json_escape m)
      else Printf.eprintf "eridb-lint: %s\n" m;
      2
  | diags ->
      let floor = Analysis.Checkdef.priority_rank min_priority in
      let rank d =
        match Analysis.Catalog.priority_for d.Analysis.Diagnostic.code with
        | Some p -> Analysis.Checkdef.priority_rank p
        | None -> -1
      in
      let kept = List.filter (fun d -> rank d >= floor) diags in
      emit ~json kept;
      if List.exists (fun d -> rank d > 0) kept then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let run json queries list_checks sweep deltas min_priority flight_out files =
  (match flight_out with
  | Some path ->
      (* Deterministic journal timestamps, and a flush that runs on
         every exit path — including the error exits (2/124). *)
      Obs.Metrics.enable ();
      Obs.Log.set_clock (Obs.Clock.simulated ());
      Obs.Log.enable ();
      Obs.Export.on_exit_flush (fun () -> Obs.Export.write_flight path)
  | None -> ());
  if list_checks then begin
    print_string
      (if json then Analysis.Catalog.to_json () ^ "\n"
       else Analysis.Catalog.to_tsv ());
    0
  end
  else
    match sweep with
    | Some dir -> run_sweep ~json ~min_priority dir deltas
    | None ->
        if files = [] then begin
          prerr_endline
            "eridb-lint: no .erd files given (and neither --sweep nor \
             --list-checks)";
          124
        end
        else run_lint ~json ~queries files

let priority_conv =
  let parse s =
    match Analysis.Checkdef.priority_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid priority %S (expected Blocker, High, Medium, Low or \
                 Info)"
                s))
  in
  Arg.conv
    (parse, fun ppf p ->
      Format.pp_print_string ppf (Analysis.Checkdef.priority_to_string p))

(* Positional and --queries arguments are plain strings, not
   Arg.file: a missing path must surface as an E017 diagnostic in the
   selected output format with exit 2, not as a usage error. *)
let files_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"FILE" ~doc:"The $(b,.erd) files to lint.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the diagnostics as a JSON array instead of text.")

let queries_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:
          "Also load the $(b,.erd) files and run the static plan checker \
           over each non-comment line of $(docv). An empty corpus is a \
           no-op.")

let list_checks_arg =
  Arg.(
    value & flag
    & info [ "list-checks" ]
        ~doc:
          "Print the data-quality check catalog (code, display name, \
           priority, description) as a TSV table — or JSON with \
           $(b,--json) — and exit.")

let sweep_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sweep" ] ~docv:"STORE"
        ~doc:
          "Run the whole-store S-checks over $(docv): an evidence store \
           directory, or a catalog directory of $(b,.erd) relations.")

let delta_arg =
  Arg.(
    value & opt_all string []
    & info [ "delta" ] ~docv:"FILE"
        ~doc:
          "With $(b,--sweep), absorb the single-relation $(b,.erd) delta \
           in memory (never committed) before sweeping, so per-source \
           conflict telemetry is populated. Repeatable.")

let flight_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder and write its event journal plus a \
           metrics snapshot to $(docv) as JSONL on exit — including error \
           exits. Sweeps over a recovering store journal the recovery \
           anomalies it repaired.")

let min_priority_arg =
  Arg.(
    value
    & opt priority_conv Analysis.Checkdef.Info
    & info [ "min-priority" ] ~docv:"PRIORITY"
        ~doc:
          "With $(b,--sweep), report only findings at or above $(docv) \
           (Blocker, High, Medium, Low, Info; default Info).")

let cmd =
  let doc = "statically check .erd relation files, eridb queries and stores" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Validates evidential relation files without loading them: mass \
         normalization, no mass on the empty set, values within declared \
         domains, key uniqueness, and CWA_ER admissibility ($(b,sn > 0)), \
         with file:line:col positions. With $(b,--queries) it also runs \
         the abstract-interpretation plan checker over a query corpus. \
         With $(b,--sweep) it runs the whole-store checks — dangling \
         cross-relation references, dormant domain values, per-source \
         disagreement, duplicate-entity suspicion, segment hygiene — over \
         an opened store, prioritized Blocker to Info. $(b,--list-checks) \
         prints the full catalog.";
      `S Manpage.s_exit_status;
      `P "0 on a clean run, 1 when the worst finding is a warning (file \
          mode) or any finding above Info is reported (sweep mode), 2 on \
          errors." ]
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on warnings (file mode) or findings (sweep mode)."
    :: Cmd.Exit.info 2 ~doc:"on errors."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "eridb-lint" ~version:"1.0" ~doc ~man ~exits)
    Term.(
      const run $ json_arg $ queries_arg $ list_checks_arg $ sweep_arg
      $ delta_arg $ min_priority_arg $ flight_out_arg $ files_arg)

let () = exit (Cmd.eval' cmd)
