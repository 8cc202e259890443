(* The registry: every E/Q/S check as a first-class value. The E and Q
   runners delegate to the existing engines and keep only their own
   code's findings, so a single registered check is independently
   runnable; batch consumers use run_all, which invokes each engine
   once. *)

let keep code diags =
  List.filter (fun d -> String.equal d.Diagnostic.code code) diags

let file_check ~code ~name ~priority ~description =
  {
    Checkdef.code;
    name;
    priority;
    scope = Checkdef.File;
    description;
    run =
      (function
      | Checkdef.File_subject { path; content } ->
          keep code (Erd_lint.lint_string ~file:path content)
      | Checkdef.Query_subject _ | Checkdef.Store_subject _ -> []);
  }

let query_check ~code ~name ~priority ~description =
  {
    Checkdef.code;
    name;
    priority;
    scope = Checkdef.Query;
    description;
    run =
      (function
      | Checkdef.Query_subject { env; file; text } ->
          keep code (Check.check_string ?file env text)
      | Checkdef.File_subject _ | Checkdef.Store_subject _ -> []);
  }

let file_checks =
  [
    file_check ~code:"E001" ~name:"Malformed_Declaration"
      ~priority:Checkdef.Blocker
      ~description:
        "Structurally unparseable lines: missing `name : kind`, unnamed \
         relations, unknown directives.";
    file_check ~code:"E002" ~name:"Duplicate_Relation_Name"
      ~priority:Checkdef.Medium
      ~description:
        "Two relation blocks sharing one name; queries silently see only \
         one of them.";
    file_check ~code:"E003" ~name:"Invalid_Key" ~priority:Checkdef.High
      ~description:
        "Evidential or empty relation keys; the paper requires definite, \
         non-empty keys.";
    file_check ~code:"E004" ~name:"Duplicate_Attribute"
      ~priority:Checkdef.Blocker
      ~description:"One attribute name declared twice in a relation block.";
    file_check ~code:"E005" ~name:"Malformed_Domain"
      ~priority:Checkdef.Blocker
      ~description:
        "Empty or malformed evidence domains, or unknown attribute kinds.";
    file_check ~code:"E006" ~name:"Arity_Mismatch" ~priority:Checkdef.Blocker
      ~description:
        "Tuple rows whose field count disagrees with the declared schema.";
    file_check ~code:"E007" ~name:"Bad_Definite_Value"
      ~priority:Checkdef.High
      ~description:
        "Key or definite cell values that do not parse at the declared \
         kind.";
    file_check ~code:"E008" ~name:"Malformed_Evidence"
      ~priority:Checkdef.Blocker
      ~description:
        "Evidence cells that do not parse as [member^mass; ...].";
    file_check ~code:"E009" ~name:"Mass_Not_Normalized"
      ~priority:Checkdef.High
      ~description:
        "Evidence masses that do not sum to 1 within the float tolerance.";
    file_check ~code:"E010" ~name:"Mass_On_Empty_Set" ~priority:Checkdef.High
      ~description:
        "Mass assigned to the empty set, violating the mass-function \
         axioms.";
    file_check ~code:"E011" ~name:"Mass_Out_Of_Range" ~priority:Checkdef.High
      ~description:"Negative masses, or masses exceeding 1.";
    file_check ~code:"E012" ~name:"Value_Outside_Domain"
      ~priority:Checkdef.High
      ~description:
        "Focal elements containing values outside the attribute's \
         declared frame.";
    file_check ~code:"E013" ~name:"Duplicate_Key" ~priority:Checkdef.High
      ~description:"Two tuples of one relation sharing a key.";
    file_check ~code:"E014" ~name:"Malformed_Membership"
      ~priority:Checkdef.Blocker
      ~description:"Membership pairs that do not parse as (sn, sp).";
    file_check ~code:"E015" ~name:"Membership_Out_Of_Range"
      ~priority:Checkdef.High
      ~description:"Membership pairs violating 0 <= sn <= sp <= 1.";
    file_check ~code:"E016" ~name:"CWA_Inadmissible_Tuple"
      ~priority:Checkdef.High
      ~description:
        "Stored tuples with sn <= 0 — inadmissible under CWA_ER.";
    file_check ~code:"E017" ~name:"Unreadable_File"
      ~priority:Checkdef.Blocker
      ~description:"The file cannot be read at all.";
    file_check ~code:"E019" ~name:"Zero_Mass_Focal" ~priority:Checkdef.Low
      ~description:"Zero-mass focal elements the loader silently drops.";
    file_check ~code:"E020" ~name:"Duplicate_Focal_Element"
      ~priority:Checkdef.Low
      ~description:
        "Repeated focal elements whose masses the loader sums together.";
  ]

let query_checks =
  [
    query_check ~code:"Q000" ~name:"Parse_Error" ~priority:Checkdef.Blocker
      ~description:"The query text does not parse.";
    query_check ~code:"Q001" ~name:"Unknown_Relation"
      ~priority:Checkdef.Blocker
      ~description:
        "A referenced relation is not bound in the environment.";
    query_check ~code:"Q002" ~name:"Unknown_Attribute"
      ~priority:Checkdef.Blocker
      ~description:
        "A referenced attribute does not exist in the operand schema.";
    query_check ~code:"Q003" ~name:"Theta_Type_Mismatch"
      ~priority:Checkdef.High
      ~description:
        "Theta-predicate operands with no common value kind — raises at \
         runtime.";
    query_check ~code:"Q004" ~name:"Statically_False_Predicate"
      ~priority:Checkdef.Medium
      ~description:
        "Predicates that can never yield definitely-true mass: disjoint \
         kinds or out-of-domain constants.";
    query_check ~code:"Q005" ~name:"Empty_IS_Selection"
      ~priority:Checkdef.High
      ~description:
        "IS selections statically empty under CWA_ER: the constant set is \
         disjoint from the attribute's domain or kind.";
    query_check ~code:"Q006" ~name:"Vacuous_Predicate"
      ~priority:Checkdef.Medium
      ~description:
        "IS constant sets covering the whole domain — the predicate always \
         holds with certainty.";
    query_check ~code:"Q007" ~name:"Unsatisfiable_Threshold"
      ~priority:Checkdef.High
      ~description:
        "Membership thresholds no derived (sn, sp) interval can meet, \
         including contradictory AND-ed bounds.";
    query_check ~code:"Q008" ~name:"Key_Dropping_Projection"
      ~priority:Checkdef.High
      ~description:
        "Projections dropping key attributes, forcing unsound merges of \
         distinct entities.";
    query_check ~code:"Q010" ~name:"Statically_Empty_Selection"
      ~priority:Checkdef.Medium
      ~description:
        "Selections guaranteed empty under CWA_ER closure of the \
         membership bounds.";
    query_check ~code:"Q011" ~name:"Total_Conflict_Join"
      ~priority:Checkdef.Medium
      ~description:
        "Theta-joins whose predicate can never yield definitely-true mass \
         — Zadeh's total-conflict case; every joined tuple is dropped.";
    query_check ~code:"Q012" ~name:"Union_Incompatible"
      ~priority:Checkdef.Blocker
      ~description:
        "Extended union or difference over non-union-compatible operands.";
    query_check ~code:"Q013" ~name:"Product_Name_Collision"
      ~priority:Checkdef.High
      ~description:
        "Products whose operand schemas collide on attribute names \
         (PREFIX one side first).";
    query_check ~code:"Q015" ~name:"Bad_Evidence_Literal"
      ~priority:Checkdef.High
      ~description:
        "Evidence literals that are malformed or compared against \
         definite attributes.";
    query_check ~code:"Q016" ~name:"Threshold_Out_Of_Range"
      ~priority:Checkdef.Medium
      ~description:"Threshold bounds lying outside [0, 1].";
    query_check ~code:"Q017" ~name:"Nonpositive_Limit"
      ~priority:Checkdef.Medium
      ~description:"LIMIT clauses that statically yield an empty result.";
    query_check ~code:"Q018" ~name:"Empty_Relation_Scan"
      ~priority:Checkdef.Info
      ~description:"Scanning a relation that currently holds no tuples.";
  ]

let checks =
  List.sort
    (fun a b -> String.compare a.Checkdef.code b.Checkdef.code)
    (file_checks @ query_checks @ Sweep.checks)

let () =
  (* Codes are the catalog's primary key; a collision is a programming
     error worth failing fast on at module init. *)
  ignore
    (List.fold_left
       (fun prev c ->
         (match prev with
         | Some p when String.equal p c.Checkdef.code ->
             invalid_arg ("Catalog: duplicate check code " ^ p)
         | _ -> ());
         Some c.Checkdef.code)
       None checks)

let find code =
  List.find_opt (fun c -> String.equal c.Checkdef.code code) checks

let priority_for code =
  Option.map (fun c -> c.Checkdef.priority) (find code)

let run_all subject =
  let diags =
    match subject with
    | Checkdef.File_subject { path; content } ->
        Erd_lint.lint_string ~file:path content
    | Checkdef.Query_subject { env; file; text } ->
        Check.check_string ?file env text
    | Checkdef.Store_subject s -> Sweep.run s
  in
  List.sort Diagnostic.compare diags

let to_tsv () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Display Name\tPriority\tDescription\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\t%s\t%s\n" c.Checkdef.code c.Checkdef.name
           (Checkdef.priority_to_string c.Checkdef.priority)
           c.Checkdef.description))
    checks;
  Buffer.contents buf

let to_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf
        (Printf.sprintf
           {|{"code": "%s", "name": "%s", "priority": "%s", "scope": "%s", "description": "%s"}|}
           c.Checkdef.code c.Checkdef.name
           (Checkdef.priority_to_string c.Checkdef.priority)
           (Checkdef.scope_to_string c.Checkdef.scope)
           (Diagnostic.json_escape c.Checkdef.description)))
    checks;
  if checks <> [] then Buffer.add_string buf "\n";
  Buffer.add_string buf "]";
  Buffer.contents buf
