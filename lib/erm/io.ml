exception Io_error of { line : int; col : int; message : string }

let fail ?(col = 0) line fmt =
  Format.kasprintf (fun message -> raise (Io_error { line; col; message })) fmt

(* Offset of the first character of [s] that is not a blank, or
   [String.length s] when all are. *)
let lead s =
  let n = String.length s in
  let rec go i =
    if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i
  in
  go 0

let string_mentions haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n > 0 && go 0

(* "name : string" or "name : evidence {a, b, c}". [col] is the 1-based
   column of the declaration body in its source line. *)
let parse_attr_decl ?(col = 0) line body =
  match String.index_opt body ':' with
  | None -> fail ~col line "expected `name : kind` in attribute declaration"
  | Some i ->
      let name = String.trim (String.sub body 0 i) in
      let kind_raw = String.sub body (i + 1) (String.length body - i - 1) in
      let kcol = if col = 0 then 0 else col + i + 1 + lead kind_raw in
      let kind = String.trim kind_raw in
      if name = "" then fail ~col line "empty attribute name"
      else if String.length kind >= 8 && String.sub kind 0 8 = "evidence" then
        let spec = String.trim (String.sub kind 8 (String.length kind - 8)) in
        let inner =
          if String.length spec >= 2 && spec.[0] = '{'
             && spec.[String.length spec - 1] = '}'
          then String.sub spec 1 (String.length spec - 2)
          else fail ~col:kcol line "expected evidence {v1, v2, …}"
        in
        let values =
          String.split_on_char ',' inner
          |> List.map String.trim
          |> List.filter (fun v -> v <> "")
          |> List.map (fun v ->
                 try Dst.Value.of_literal v
                 with Invalid_argument m -> fail ~col:kcol line "%s" m)
        in
        if values = [] then fail ~col:kcol line "empty evidence domain"
        else Attr.evidential name (Dst.Domain.of_values name values)
      else
        try Attr.definite name kind
        with Invalid_argument _ ->
          fail ~col:kcol line "unknown attribute kind %s" kind

let parse_definite ?(col = 0) line kind raw =
  let raw = String.trim raw in
  match kind with
  | "string" ->
      if String.length raw >= 2 && raw.[0] = '"' then
        (try Dst.Value.of_literal raw
         with Invalid_argument m -> fail ~col line "%s" m)
      else Dst.Value.string raw
  | "int" -> (
      match int_of_string_opt raw with
      | Some n -> Dst.Value.int n
      | None -> fail ~col line "expected an int, got %s" raw)
  | "float" -> (
      match float_of_string_opt raw with
      | Some f -> Dst.Value.float f
      | None -> fail ~col line "expected a float, got %s" raw)
  | "bool" -> (
      match bool_of_string_opt raw with
      | Some b -> Dst.Value.bool b
      | None -> fail ~col line "expected a bool, got %s" raw)
  | _ -> fail ~col line "unknown value kind %s" kind

let parse_cell ?(col = 0) line attr raw =
  match Attr.kind attr with
  | Attr.Definite kind -> Etuple.Definite (parse_definite ~col line kind raw)
  | Attr.Evidential domain -> (
      try Etuple.Evidence (Dst.Evidence.of_string domain (String.trim raw))
      with
      | Dst.Evidence.Parse_error (_, m) ->
          fail ~col line "bad evidence for %s: %s" (Attr.name attr) m
      | Dst.Mass.F.Invalid_mass m ->
          fail ~col line "bad evidence for %s: %s" (Attr.name attr) m)

let split_fields body =
  let n = String.length body in
  let pieces = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '|' then begin
        pieces := (!start, String.sub body !start (i - !start)) :: !pieces;
        start := i + 1
      end)
    body;
  pieces := (!start, String.sub body !start (n - !start)) :: !pieces;
  List.rev !pieces

(* [base_col] is the 1-based column of [body]'s first character, so each
   field's own column can be derived from the positions of the '|'
   separators. *)
let parse_tuple ?(base_col = 0) line schema body =
  let fields =
    List.map
      (fun (off, f) ->
        let col = if base_col = 0 then 0 else base_col + off + lead f in
        (col, String.trim f))
      (split_fields body)
  in
  let expected = Schema.arity schema + 1 in
  if List.length fields <> expected then
    fail ~col:base_col line "expected %d |-separated fields, got %d" expected
      (List.length fields);
  let key_attrs = Schema.key schema in
  let rec split n l =
    if n = 0 then ([], l)
    else
      match l with
      | x :: rest ->
          let a, b = split (n - 1) rest in
          (x :: a, b)
      | [] -> assert false
  in
  let key_raw, rest = split (List.length key_attrs) fields in
  let cell_raw, tm_raw = split (List.length (Schema.nonkey schema)) rest in
  let key =
    List.map2
      (fun attr (col, raw) ->
        match Attr.kind attr with
        | Attr.Definite kind -> parse_definite ~col line kind raw
        | Attr.Evidential _ -> fail ~col line "evidential key attribute")
      key_attrs key_raw
  in
  let cells =
    List.map2
      (fun attr (col, raw) -> parse_cell ~col line attr raw)
      (Schema.nonkey schema) cell_raw
  in
  let tm =
    match tm_raw with
    | [ (col, raw) ] -> (
        try Dst.Support.of_string raw
        with Invalid_argument _ | Dst.Support.Invalid_support _ ->
          fail ~col line "bad membership pair %s" raw)
    | _ -> assert false
  in
  try Etuple.make schema ~key ~cells ~tm
  with Etuple.Tuple_error m -> fail ~col:base_col line "%s" m

type block = {
  rname : string;
  rline : int;
  mutable keys : Attr.t list;
  mutable attrs : Attr.t list;
  mutable rows : (int * int * string) list;  (* line, column, body *)
}

let relations_of_string input =
  let lines = String.split_on_char '\n' input in
  Obs.Metrics.incr ~by:(List.length lines) "io.parse.lines";
  let blocks = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some b ->
        blocks := b :: !blocks;
        current := None
    | None -> ()
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let indent = lead raw in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else begin
        let word, word_len =
          match String.index_opt line ' ' with
          | None -> (line, String.length line)
          | Some k -> (String.sub line 0 k, k)
        in
        let rest = String.sub line word_len (String.length line - word_len) in
        let body = String.trim rest in
        (* 1-based column of the body's first character in the raw line. *)
        let body_col = indent + word_len + lead rest + 1 in
        match word with
        | "relation" ->
            flush ();
            if body = "" then
              fail ~col:(indent + 1) lineno "relation needs a name"
            else
              current :=
                Some
                  { rname = body;
                    rline = lineno;
                    keys = [];
                    attrs = [];
                    rows = [] }
        | _ -> (
            match (!current, word) with
            | None, _ ->
                fail ~col:(indent + 1) lineno "expected `relation <name>` first"
            | Some b, "key" ->
                b.keys <- b.keys @ [ parse_attr_decl ~col:body_col lineno body ]
            | Some b, "attr" ->
                b.attrs <- b.attrs @ [ parse_attr_decl ~col:body_col lineno body ]
            | Some b, "tuple" -> b.rows <- b.rows @ [ (lineno, body_col, body) ]
            | Some _, other ->
                fail ~col:(indent + 1) lineno "unknown directive %s" other)
      end)
    lines;
  flush ();
  List.rev_map
    (fun b ->
      let schema =
        try Schema.make ~name:b.rname ~key:b.keys ~nonkey:b.attrs
        with Schema.Schema_error m ->
          fail b.rline "relation %s: %s" b.rname m
      in
      List.fold_left
        (fun r (lineno, col, body) ->
          let tuple = parse_tuple ~base_col:col lineno schema body in
          try Relation.add r tuple
          with
          | Relation.Duplicate_key _ -> fail ~col lineno "duplicate key"
          | Relation.Relation_error m -> fail ~col lineno "%s" m)
        (Relation.empty schema) b.rows)
    !blocks

let relation_of_string input =
  match relations_of_string input with
  | [ r ] -> r
  | l -> fail 0 "expected exactly one relation, found %d" (List.length l)

(* Serialization prints masses losslessly but readably: the shortest of
   %.15g/%.16g/%.17g that parses back to the same double (%.17g is always
   exact; most masses round-trip at 15 digits already). *)
let exact_float x =
  let try_digits d =
    let s = Printf.sprintf "%.*g" d x in
    match float_of_string_opt s with
    | Some y when Float.equal y x -> Some s
    | Some _ | None -> None
  in
  match (try_digits 15, try_digits 16) with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> Printf.sprintf "%.17g" x

let exact_evidence e =
  let omega = Dst.Domain.values (Dst.Mass.F.frame e) in
  let focal (set, x) =
    let member =
      if Dst.Vset.equal set omega then "~"
      else Format.asprintf "%a" Dst.Vset.pp_compact set
    in
    member ^ "^" ^ exact_float x
  in
  "[" ^ String.concat "; " (List.map focal (Dst.Mass.F.focals e)) ^ "]"

let exact_support s =
  Printf.sprintf "(%s, %s)"
    (exact_float (Dst.Support.sn s))
    (exact_float (Dst.Support.sp s))

let attr_decl a =
  match Attr.kind a with
  | Attr.Definite k -> Format.asprintf "%s : %s" (Attr.name a) k
  | Attr.Evidential d ->
      Format.asprintf "%s : evidence {%s}" (Attr.name a)
        (String.concat ", "
           (List.map Dst.Value.to_string
              (Dst.Vset.to_list (Dst.Domain.values d))))

let schema_to_string schema =
  let buf = Buffer.create 128 in
  let add fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  add "relation %s\n" (Schema.name schema);
  List.iter (fun a -> add "key %s\n" (attr_decl a)) (Schema.key schema);
  List.iter (fun a -> add "attr %s\n" (attr_decl a)) (Schema.nonkey schema);
  Buffer.contents buf

let schema_of_string s =
  match relations_of_string s with
  | [ r ] -> Relation.schema r
  | l -> fail 0 "expected exactly one relation header, found %d" (List.length l)

let tuple_to_string t =
  let fields =
    List.map Dst.Value.to_string (Etuple.key t)
    @ List.map
        (function
          | Etuple.Definite v -> Dst.Value.to_string v
          | Etuple.Evidence e -> exact_evidence e)
        (Etuple.cells t)
    @ [ exact_support (Etuple.tm t) ]
  in
  String.concat " | " fields

let tuple_of_string schema s = parse_tuple 0 schema s

let to_string r =
  let schema = Relation.schema r in
  let buf = Buffer.create 256 in
  let add fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (schema_to_string schema);
  Relation.iter (fun t -> add "tuple %s\n" (tuple_to_string t)) r;
  Buffer.contents buf

(* Sys_error names the file (open_in's message already does). A parse
   error carries only its position: the caller asked for [path] and
   prints it once, in front of line:col. *)
let load path =
  let body () =
    let ic =
      try open_in path
      with Sys_error m ->
        raise (Sys_error (if string_mentions m path then m else path ^ ": " ^ m))
    in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    let rels = relations_of_string content in
    Obs.Metrics.incr "io.load.files";
    Obs.Metrics.incr ~by:(List.length rels) "io.load.relations";
    rels
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"io" ~args:[ ("detail", path) ] "io.load" body
  else body ()

let save path rels =
  let oc = open_out path in
  List.iter (fun r -> output_string oc (to_string r ^ "\n")) rels;
  close_out oc

(* RFC 4180: fields separated by commas, quoted fields may contain
   commas/newlines, doubled quotes escape a quote. Returns records of
   fields; empty trailing line ignored. *)
let csv_records input =
  let records = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length input in
  let rec plain i =
    if i >= n then (if Buffer.length buf > 0 || !fields <> [] then flush_record ())
    else
      match input.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\n' ->
          flush_record ();
          plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted i =
    if i >= n then fail 0 "unterminated quoted CSV field"
    else
      match input.[i] with
      | '"' when i + 1 < n && input.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  plain 0;
  List.rev !records

let relation_of_csv schema input =
  match csv_records input with
  | [] -> fail 0 "empty CSV document"
  | header :: rows ->
      let expected_header =
        List.map Attr.name (Schema.attrs schema) @ [ "(sn,sp)" ]
      in
      if header <> expected_header then
        fail 1 "CSV header does not match the schema (expected %s)"
          (String.concat "," expected_header);
      List.fold_left
        (fun (r, lineno) fields ->
          let expected = Schema.arity schema + 1 in
          if List.length fields <> expected then
            fail lineno "expected %d fields, got %d" expected
              (List.length fields);
          List.iter
            (fun f ->
              if String.contains f '|' then
                fail lineno "CSV field contains '|', which the cell syntax reserves")
            fields;
          let tuple = parse_tuple lineno schema (String.concat "|" fields) in
          match Relation.add r tuple with
          | r -> (r, lineno + 1)
          | exception Relation.Duplicate_key _ -> fail lineno "duplicate key"
          | exception Relation.Relation_error m -> fail lineno "%s" m)
        (Relation.empty schema, 2)
        rows
      |> fst
