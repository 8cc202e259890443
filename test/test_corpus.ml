(* Fuzz-ish corpus of malformed inputs: every file under
   fixtures/malformed/ must be rejected through the TYPED error channel
   of its layer — [Erm.Io.Io_error] with a positive line number for
   .erd sources, [Query.Parser.Parse_error] for .query sources — and
   never through any other exception (Failure, Match_failure,
   Invalid_argument, Not_found, ...). A generic exception escaping the
   parser is itself the bug these fixtures exist to catch. *)

(* dune runtest runs with cwd = the test build dir; `dune exec` from the
   project root needs the test/ prefix. *)
let corpus_dir =
  let local = Filename.concat "fixtures" "malformed" in
  if Sys.file_exists local then local else Filename.concat "test" local

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus ext =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort String.compare

(* --- .erd corpus ------------------------------------------------------ *)

let check_erd name =
  let path = Filename.concat corpus_dir name in
  let text = read_file path in
  match Erm.Io.relations_of_string text with
  | _ -> Alcotest.failf "%s: malformed input was accepted" name
  | exception Erm.Io.Io_error { line; message; _ } ->
      if line < 1 then
        Alcotest.failf "%s: Io_error carries non-positive line %d (%s)" name
          line message
  | exception e ->
      Alcotest.failf "%s: escaped through %s, not Io_error" name
        (Printexc.to_string e)

(* [load] must report through the same channel as [relations_of_string]
   — a file-based caller sees the identical positioned error. *)
let check_erd_load name =
  let path = Filename.concat corpus_dir name in
  match Erm.Io.load path with
  | _ -> Alcotest.failf "%s: load accepted malformed input" name
  | exception Erm.Io.Io_error { line; _ } ->
      if line < 1 then
        Alcotest.failf "%s: load's Io_error has line %d" name line
  | exception e ->
      Alcotest.failf "%s: load escaped through %s" name
        (Printexc.to_string e)

(* The static checker rejects what the loader rejects: each fixture draws
   at least one error-severity diagnostic from [eridb-lint]'s engine. *)
let check_erd_lint name =
  let path = Filename.concat corpus_dir name in
  let diags = Analysis.Erd_lint.lint_string ~file:path (read_file path) in
  if not (List.exists Analysis.Diagnostic.is_error diags) then
    Alcotest.failf "%s: the loader rejects it but lint reports no error" name

(* The loader and the linter agree in both directions on lines that
   split differently under a quote-aware splitter: the loader accepts
   exactly when lint reports no error. Each is data/restaurants.erd's
   [m_a] with one quote deleted or added. *)
let agreement_inputs =
  let m_a ?(domain = "head-chef, manager, owner") row =
    "relation m_a\nkey mname : string\nattr phone : string\n\
     attr position : evidence {" ^ domain ^ "}\n" ^ row ^ "\n"
  in
  let row = {|tuple anand | "555-2222" | [owner^1] | (1, 1)|} in
  [ ("m_a opening quote deleted",
     m_a {|tuple anand | 555-2222" | [owner^1] | (1, 1)|});
    ("m_a closing quote deleted",
     m_a {|tuple anand | "555-2222 | [owner^1] | (1, 1)|});
    ("m_a quote added to a domain value",
     m_a ~domain:{|head-chef, manager", owner|} row);
    ("m_a domain value quote unterminated",
     m_a ~domain:{|head-chef, "manager, owner|} row) ]

let check_agreement text () =
  let accepted =
    match Erm.Io.relations_of_string text with
    | _ -> true
    | exception Erm.Io.Io_error _ -> false
  in
  let lint_errors =
    List.filter Analysis.Diagnostic.is_error
      (Analysis.Erd_lint.lint_string text)
  in
  if accepted && lint_errors <> [] then
    Alcotest.failf "the loader accepts it but lint reports %d error(s)"
      (List.length lint_errors)
  else if (not accepted) && lint_errors = [] then
    Alcotest.fail "the loader rejects it but lint reports no error"

(* --- .query corpus ---------------------------------------------------- *)

let check_query name =
  let path = Filename.concat corpus_dir name in
  let text = String.trim (read_file path) in
  match Query.Parser.parse text with
  | _ -> Alcotest.failf "%s: malformed query was accepted" name
  | exception Query.Parser.Parse_error msg ->
      if String.length msg = 0 then
        Alcotest.failf "%s: Parse_error with empty message" name
  | exception e ->
      Alcotest.failf "%s: escaped through %s, not Parse_error" name
        (Printexc.to_string e)

(* --- registration ----------------------------------------------------- *)

let () =
  let t check name = Alcotest.test_case name `Quick (fun () -> check name) in
  let erds = corpus ".erd" and queries = corpus ".query" in
  if List.length erds < 7 then
    failwith "malformed corpus lost .erd fixtures (expected at least 7)";
  if List.length queries < 5 then
    failwith "malformed corpus lost .query fixtures (expected at least 5)";
  Alcotest.run "corpus"
    [ ("erd string channel", List.map (t check_erd) erds);
      ("erd load channel", List.map (t check_erd_load) erds);
      ( "erd lint channel",
        List.map (t check_erd_lint) erds
        @ List.map
            (fun (name, text) ->
              Alcotest.test_case name `Quick (check_agreement text))
            agreement_inputs );
      ("query channel", List.map (t check_query) queries) ]
