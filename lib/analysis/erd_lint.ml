module Io = Erm.Io

let tol = Dst.Num.float_tolerance

let values vs = String.concat ", " (List.map Dst.Value.to_string vs)

(* The E-code of a loader rejection, and the message the linter prints
   for it: the loader's own, unless the rule's payload says more. *)
let diagnose (f : Io.finding) =
  match f.rule with
  | Io.Malformed_declaration -> ("E001", f.message)
  | Io.Bad_schema (Erm.Schema.Empty_key | Erm.Schema.Evidential_key _) ->
      ("E003", f.message)
  | Io.Bad_schema (Erm.Schema.Duplicate_attribute _) -> ("E004", f.message)
  | Io.Malformed_domain -> ("E005", f.message)
  | Io.Arity -> ("E006", f.message)
  | Io.Bad_value { attr; key = true } ->
      ("E007", Printf.sprintf "key %s: %s" attr f.message)
  | Io.Bad_value { attr; key = false } ->
      ("E007", Printf.sprintf "bad value for %s: %s" attr f.message)
  | Io.Bad_evidence (Dst.Evidence.Syntax m) -> ("E008", m)
  | Io.Bad_evidence (Dst.Evidence.Invalid v) -> (
      match v with
      | Dst.Mass.F.Not_normalised total ->
          ( "E009",
            Printf.sprintf
              "masses sum to %.12g, not 1 (beyond the %.0e tolerance)" total
              tol )
      | Dst.Mass.F.Empty_focal x ->
          ("E010", Printf.sprintf "mass %g assigned to the empty set" x)
      | Dst.Mass.F.Negative (x, _) ->
          ("E011", Printf.sprintf "negative mass %g" x)
      | Dst.Mass.F.Outside_frame { outside; _ } ->
          ( "E012",
            Printf.sprintf "value(s) %s lie outside the declared domain"
              (values (Dst.Vset.to_list outside)) ))
  | Io.Duplicate_key { relation; key } ->
      ( "E013",
        Printf.sprintf "duplicate key (%s) in relation %s" (values key) relation
      )
  | Io.Malformed_membership -> ("E014", f.message)
  | Io.Membership_range (sn, sp) ->
      ( "E015",
        Printf.sprintf "membership (%g, %g) violates 0 ≤ sn ≤ sp ≤ 1" sn sp )
  | Io.Cwa_inadmissible (sn, sp) ->
      ( "E016",
        Printf.sprintf
          "membership (%g, %g) is inadmissible under CWA_ER: stored tuples \
           need sn > 0"
          sn sp )

(* The loader-silent warnings on one evidence cell's entries as written:
   zero masses it drops (E019) and repeated members it sums (E020). *)
let focal_warnings ?file ~line ~col focals =
  let member set = Format.asprintf "%a" Dst.Vset.pp_compact set in
  let warn = Diagnostic.warning ?file ~line ~col in
  snd
    (List.fold_left
       (fun (seen, acc) (set, m) ->
         let acc =
           if m = 0.0 then
             warn ~code:"E019" "zero mass on %s (the loader drops it)"
               (member set)
             :: acc
           else acc
         in
         if List.exists (Dst.Vset.equal set) seen then
           ( seen,
             warn ~code:"E020"
               "duplicate focal element %s (the loader sums its masses)"
               (member set)
             :: acc )
         else (set :: seen, acc))
       ([], []) focals)

let lint_string ?file input =
  let diags = ref [] and relations = ref [] in
  Io.scan
    (function
      | Io.Rejected f ->
          let code, message = diagnose f in
          diags :=
            Diagnostic.error ?file ~line:f.line ~col:f.col ~code "%s" message
            :: !diags
      | Io.Relation_header { line; col; name } ->
          if List.mem name !relations then
            diags :=
              Diagnostic.warning ?file ~line ~col ~code:"E002"
                "duplicate relation name %s" name
              :: !diags
          else relations := name :: !relations
      | Io.Evidence_cell { line; col; focals } ->
          diags := focal_warnings ?file ~line ~col focals @ !diags)
    input;
  List.sort Diagnostic.compare !diags

let lint_file path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    content
  with
  | content -> lint_string ~file:path content
  | exception Sys_error m ->
      [ Diagnostic.error ~file:path ~code:"E017" "cannot read file: %s" m ]
