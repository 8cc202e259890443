let tol = Dst.Num.float_tolerance

(* What the linter knows about a declared attribute. [K_broken] marks a
   declaration that already produced a diagnostic: cells under it get
   structural checks only. *)
type kindinfo =
  | K_definite of string
  | K_evidential of Dst.Vset.t
  | K_broken

type block = {
  b_name : string;
  b_line : int;
  mutable b_keys : (string * kindinfo) list;  (* reversed *)
  mutable b_attrs : (string * kindinfo) list;  (* reversed *)
  mutable b_keyvals : Dst.Value.t list list;
}

(* ------------------------------------------------------------------ *)
(* Small parsers (diagnostic-friendly variants of the runtime's)       *)

let parse_literal raw =
  match Dst.Value.of_literal raw with
  | v -> Ok v
  | exception Invalid_argument m -> Error m

(* Mirrors Io.parse_definite: the value a definite cell of [kind] must
   hold. *)
let check_definite kind raw =
  let raw = String.trim raw in
  match kind with
  | "string" ->
      if String.length raw >= 2 && raw.[0] = '"' then
        Result.map (fun _ -> ()) (parse_literal raw)
      else Ok ()
  | "int" -> (
      match int_of_string_opt raw with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "expected an int, got %s" raw))
  | "float" -> (
      match float_of_string_opt raw with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "expected a float, got %s" raw))
  | "bool" -> (
      match bool_of_string_opt raw with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "expected a bool, got %s" raw))
  | _ -> Error (Printf.sprintf "unknown value kind %s" kind)

let parse_mass raw =
  match String.index_opt raw '/' with
  | Some k -> (
      let a = String.sub raw 0 k
      and b = String.sub raw (k + 1) (String.length raw - k - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b <> 0 -> Some (float_of_int a /. float_of_int b)
      | _ -> None)
  | None -> float_of_string_opt raw

(* [split_top s sep] splits [s] on [sep] outside quoted strings,
   returning each piece with the offset of its first character. *)
let split_top s sep =
  let n = String.length s in
  let pieces = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        incr i;
        while !i < n && s.[!i] <> '"' do
          if s.[!i] = '\\' then incr i;
          incr i
        done
    | c when c = sep ->
        pieces := (!start, String.sub s !start (!i - !start)) :: !pieces;
        start := !i + 1
    | _ -> ());
    incr i
  done;
  pieces := (!start, String.sub s !start (n - !start)) :: !pieces;
  List.rev !pieces

(* Offset of the first non-blank character of [s], or 0. *)
let lead s =
  let n = String.length s in
  let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
  go 0

(* ------------------------------------------------------------------ *)
(* The linter                                                          *)

let lint_string ?file input =
  let diags = ref [] in
  let error ~line ?(col = 0) ~code fmt =
    Format.kasprintf
      (fun m -> diags := Diagnostic.error ?file ~line ~col ~code "%s" m :: !diags)
      fmt
  in
  let warning ~line ?(col = 0) ~code fmt =
    Format.kasprintf
      (fun m ->
        diags := Diagnostic.warning ?file ~line ~col ~code "%s" m :: !diags)
      fmt
  in

  (* --- evidence cells ------------------------------------------------ *)
  let lint_evidence ~line ~col domain raw =
    let raw = String.trim raw in
    let n = String.length raw in
    if n < 2 || raw.[0] <> '[' || raw.[n - 1] <> ']' then
      error ~line ~col ~code:"E008" "expected an evidence set [member^mass; …], got %s"
        raw
    else begin
      let body = String.sub raw 1 (n - 2) in
      let total = ref 0.0 in
      let parse_ok = ref true in
      let seen = ref [] in
      List.iter
        (fun (_, focal) ->
          let focal = String.trim focal in
          match String.index_opt focal '^' with
          | None ->
              parse_ok := false;
              error ~line ~col ~code:"E008"
                "focal element %s is missing ^mass" focal
          | Some k ->
              let member = String.trim (String.sub focal 0 k) in
              let mass_raw =
                String.trim (String.sub focal (k + 1) (String.length focal - k - 1))
              in
              let mn = String.length member in
              (* The member: Ω, a set, or a singleton literal. *)
              let values =
                if member = "~" then Some (Dst.Vset.to_list domain)
                else if mn >= 1 && member.[0] = '{' then begin
                  if mn < 2 || member.[mn - 1] <> '}' then begin
                    parse_ok := false;
                    error ~line ~col ~code:"E008" "malformed set %s" member;
                    None
                  end
                  else
                    let inner = String.sub member 1 (mn - 2) in
                    let elems =
                      List.filter_map
                        (fun (_, e) ->
                          let e = String.trim e in
                          if e = "" then None else Some e)
                        (split_top inner ',')
                    in
                    if elems = [] then begin
                      error ~line ~col ~code:"E010"
                        "mass %s assigned to the empty set" mass_raw;
                      None
                    end
                    else
                      let parsed = List.map parse_literal elems in
                      if
                        List.exists (function Error _ -> true | Ok _ -> false)
                          parsed
                      then begin
                        parse_ok := false;
                        error ~line ~col ~code:"E008" "malformed set %s" member;
                        None
                      end
                      else
                        Some
                          (List.filter_map
                             (function Ok v -> Some v | Error _ -> None)
                             parsed)
                end
                else if member = "" then begin
                  parse_ok := false;
                  error ~line ~col ~code:"E008" "empty focal element";
                  None
                end
                else
                  match parse_literal member with
                  | Ok v -> Some [ v ]
                  | Error m ->
                      parse_ok := false;
                      error ~line ~col ~code:"E008" "bad focal element %s: %s"
                        member m;
                      None
              in
              (match values with
              | None -> ()
              | Some vs ->
                  let set = Dst.Vset.of_list vs in
                  let outside =
                    Dst.Vset.filter (fun v -> not (Dst.Vset.mem v domain)) set
                  in
                  if not (Dst.Vset.is_empty outside) then
                    error ~line ~col ~code:"E012"
                      "value(s) %s lie outside the declared domain"
                      (String.concat ", "
                         (List.map Dst.Value.to_string
                            (Dst.Vset.to_list outside)));
                  if List.exists (Dst.Vset.equal set) !seen then
                    warning ~line ~col ~code:"E020"
                      "duplicate focal element %s (the loader sums its masses)"
                      member
                  else seen := set :: !seen);
              (match parse_mass mass_raw with
              | None ->
                  parse_ok := false;
                  error ~line ~col ~code:"E008" "expected a mass, got %s"
                    mass_raw
              | Some m ->
                  if m < 0.0 then
                    error ~line ~col ~code:"E011" "negative mass %g" m
                  else if m > 1.0 +. tol then
                    error ~line ~col ~code:"E011" "mass %g exceeds 1" m
                  else if m = 0.0 then
                    warning ~line ~col ~code:"E019"
                      "zero mass on %s (the loader drops it)" member;
                  total := !total +. m))
        (split_top body ';');
      if !parse_ok && Float.abs (!total -. 1.0) > tol then
        error ~line ~col ~code:"E009"
          "masses sum to %.12g, not 1 (beyond the %.0e tolerance)" !total tol
    end
  in

  (* --- membership pairs ---------------------------------------------- *)
  let lint_membership ~line ~col raw =
    let raw = String.trim raw in
    let n = String.length raw in
    let components =
      if n < 2 || raw.[0] <> '(' || raw.[n - 1] <> ')' then None
      else
        match String.split_on_char ',' (String.sub raw 1 (n - 2)) with
        | [ a; b ] -> (
            match (parse_mass (String.trim a), parse_mass (String.trim b)) with
            | Some sn, Some sp -> Some (sn, sp)
            | _ -> None)
        | _ -> None
    in
    match components with
    | None ->
        error ~line ~col ~code:"E014" "bad membership pair %s" raw
    | Some (sn, sp) ->
        if sn < -.tol || sp > 1.0 +. tol || sn > sp +. tol then
          error ~line ~col ~code:"E015"
            "membership (%g, %g) violates 0 ≤ sn ≤ sp ≤ 1" sn sp
        else if sn <= 0.0 then
          error ~line ~col ~code:"E016"
            "membership (%g, %g) is inadmissible under CWA_ER: stored \
             tuples need sn > 0"
            sn sp
  in

  (* --- attribute declarations ---------------------------------------- *)
  let parse_attr_decl ~line ~col ~is_key block body =
    match String.index_opt body ':' with
    | None ->
        error ~line ~col ~code:"E001"
          "expected `name : kind` in attribute declaration";
        ()
    | Some i ->
        let name = String.trim (String.sub body 0 i) in
        let kind_raw =
          String.trim (String.sub body (i + 1) (String.length body - i - 1))
        in
        if name = "" then error ~line ~col ~code:"E001" "empty attribute name";
        let declared =
          List.map fst (block.b_keys @ block.b_attrs)
        in
        if name <> "" && List.mem name declared then
          error ~line ~col ~code:"E004" "duplicate attribute name %s" name;
        let kind =
          if
            String.length kind_raw >= 8 && String.sub kind_raw 0 8 = "evidence"
          then begin
            let spec =
              String.trim (String.sub kind_raw 8 (String.length kind_raw - 8))
            in
            let sn = String.length spec in
            if sn < 2 || spec.[0] <> '{' || spec.[sn - 1] <> '}' then begin
              error ~line ~col ~code:"E001" "expected evidence {v1, v2, …}";
              K_broken
            end
            else
              (* Split like the loader: on every ',', quoted or not. *)
              let values =
                List.filter_map
                  (fun v ->
                    let v = String.trim v in
                    if v = "" then None else Some v)
                  (String.split_on_char ',' (String.sub spec 1 (sn - 2)))
              in
              if values = [] then begin
                error ~line ~col ~code:"E005" "empty evidence domain";
                K_broken
              end
              else
                let parsed = List.map parse_literal values in
                if List.exists (function Error _ -> true | Ok _ -> false) parsed
                then begin
                  error ~line ~col ~code:"E005" "malformed domain value";
                  K_broken
                end
                else
                  K_evidential
                    (Dst.Vset.of_list
                       (List.filter_map
                          (function Ok v -> Some v | Error _ -> None)
                          parsed))
          end
          else
            match kind_raw with
            | "string" | "int" | "float" | "bool" -> K_definite kind_raw
            | _ ->
                error ~line ~col ~code:"E005" "unknown attribute kind %s"
                  kind_raw;
                K_broken
        in
        if is_key then begin
          (match kind with
          | K_evidential _ ->
              error ~line ~col ~code:"E003"
                "key attribute %s must be definite" name
          | K_definite _ | K_broken -> ());
          block.b_keys <- (name, kind) :: block.b_keys
        end
        else block.b_attrs <- (name, kind) :: block.b_attrs
  in

  (* --- tuples --------------------------------------------------------- *)
  let lint_tuple ~line ~base_col block body =
    let fields = Erm.Io.split_fields body in
    let nkeys = List.length block.b_keys
    and nattrs = List.length block.b_attrs in
    let expected = nkeys + nattrs + 1 in
    if List.length fields <> expected then
      error ~line ~col:base_col ~code:"E006"
        "expected %d |-separated fields, got %d" expected (List.length fields)
    else begin
      let keys = List.rev block.b_keys and attrs = List.rev block.b_attrs in
      let at i =
        let off, f = List.nth fields i in
        (base_col + off + lead f, String.trim f)
      in
      (* Key fields: definite literals of the declared kinds. *)
      let keyvals =
        List.mapi
          (fun i (name, kind) ->
            let col, raw = at i in
            match kind with
            | K_definite k -> (
                match check_definite k raw with
                | Ok () ->
                    if k = "string" && not (String.length raw >= 2 && raw.[0] = '"')
                    then Some (Dst.Value.string raw)
                    else Result.to_option (parse_literal raw)
                | Error m ->
                    error ~line ~col ~code:"E007" "key %s: %s" name m;
                    None)
            | K_evidential _ | K_broken -> None)
          keys
      in
      (* Non-key cells. *)
      List.iteri
        (fun i (name, kind) ->
          let col, raw = at (nkeys + i) in
          match kind with
          | K_definite k -> (
              match check_definite k raw with
              | Ok () -> ()
              | Error m ->
                  error ~line ~col ~code:"E007" "bad value for %s: %s" name m)
          | K_evidential domain -> lint_evidence ~line ~col domain raw
          | K_broken -> ())
        attrs;
      (* Membership pair. *)
      let col, raw = at (expected - 1) in
      lint_membership ~line ~col raw;
      (* Key uniqueness, on parsed values (matching the runtime's
         comparison, so 353 and "353" collide exactly when load says
         they do). *)
      if List.for_all Option.is_some keyvals && keyvals <> [] then begin
        let kv = List.map Option.get keyvals in
        if
          List.exists
            (fun seen ->
              List.length seen = List.length kv
              && List.for_all2 (fun a b -> Dst.Value.compare a b = 0) seen kv)
            block.b_keyvals
        then
          error ~line ~col:base_col ~code:"E013"
            "duplicate key (%s) in relation %s"
            (String.concat ", " (List.map Dst.Value.to_string kv))
            block.b_name
        else block.b_keyvals <- kv :: block.b_keyvals
      end
    end
  in

  (* --- main loop ------------------------------------------------------ *)
  let current = ref None in
  let seen_relations = ref [] in
  let finish () =
    match !current with
    | None -> ()
    | Some b ->
        if b.b_keys = [] then
          error ~line:b.b_line ~code:"E003" "relation %s has an empty key"
            b.b_name;
        current := None
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let indent = lead raw in
      let text = String.trim raw in
      if text = "" || text.[0] = '#' then ()
      else
        let word, body_off =
          match String.index_opt text ' ' with
          | None -> (text, String.length text)
          | Some k -> (String.sub text 0 k, k)
        in
        let rest = String.sub text body_off (String.length text - body_off) in
        let body = String.trim rest in
        (* 1-based column of the body's first character in the raw line. *)
        let base_col = indent + body_off + lead rest + 1 in
        match word with
        | "relation" ->
            finish ();
            if body = "" then
              error ~line ~col:(indent + 1) ~code:"E001"
                "relation needs a name"
            else begin
              if List.mem body !seen_relations then
                warning ~line ~col:base_col ~code:"E002"
                  "duplicate relation name %s" body
              else seen_relations := body :: !seen_relations;
              current :=
                Some
                  { b_name = body;
                    b_line = line;
                    b_keys = [];
                    b_attrs = [];
                    b_keyvals = [] }
            end
        | "key" | "attr" | "tuple" -> (
            match !current with
            | None ->
                error ~line ~col:(indent + 1) ~code:"E001"
                  "expected `relation <name>` first"
            | Some b -> (
                match word with
                | "key" ->
                    parse_attr_decl ~line ~col:base_col ~is_key:true b body
                | "attr" ->
                    parse_attr_decl ~line ~col:base_col ~is_key:false b body
                | _ -> lint_tuple ~line ~base_col b body))
        | other ->
            error ~line ~col:(indent + 1) ~code:"E001"
              "unknown directive %s" other)
    (String.split_on_char '\n' input);
  finish ();

  (* Safety net for the lint/load agreement guarantee: if the structural
     pass found no errors, replay the real loader — any surprise it
     raises (a validation this linter models imperfectly) still becomes
     a diagnostic instead of a silent false acceptance. *)
  if not (List.exists Diagnostic.is_error !diags) then
    (match Erm.Io.relations_of_string input with
    | _ -> ()
    | exception Erm.Io.Io_error { line; col; message } ->
        error ~line ~col ~code:"E099" "%s" message
    | exception e ->
        error ~line:0 ~code:"E099" "loader rejected the file: %s"
          (Printexc.to_string e));
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
