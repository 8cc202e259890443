exception Io_error of { line : int; col : int; message : string }

type rule =
  | Malformed_declaration
  | Malformed_domain
  | Bad_schema of Schema.violation
  | Arity
  | Bad_value of { attr : string; key : bool }
  | Bad_evidence of Dst.Evidence.error
  | Malformed_membership
  | Membership_range of float * float
  | Cwa_inadmissible of float * float
  | Duplicate_key of { relation : string; key : Dst.Value.t list }

type finding = { line : int; col : int; rule : rule; message : string }

type event =
  | Rejected of finding
  | Relation_header of { line : int; col : int; name : string }
  | Evidence_cell of {
      line : int;
      col : int;
      focals : (Dst.Vset.t * float) list;
    }

(* The pass runs without a sink when loading: the first rejection raises
   [Io_error]. With one, each rejection is emitted and counted, and
   [Skip] resumes the pass at the next cell, row, declaration or line. *)
type sink = { emit : event -> unit; mutable rejected : int }

exception Skip

let reject sink ?(col = 0) line rule fmt =
  Format.kasprintf
    (fun message ->
      match sink with
      | None -> raise (Io_error { line; col; message })
      | Some s ->
          s.rejected <- s.rejected + 1;
          s.emit (Rejected { line; col; rule; message });
          raise Skip)
    fmt

let rejected = function None -> 0 | Some s -> s.rejected

let fail line fmt =
  Format.kasprintf
    (fun message -> raise (Io_error { line; col = 0; message }))
    fmt

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
let parse_attr_decl sink ~col line body =
  match String.index_opt body ':' with
  | None ->
      reject sink ~col line Malformed_declaration
        "expected `name : kind` in attribute declaration"
  | Some i ->
      let name = String.trim (String.sub body 0 i) in
      let kind_raw = String.sub body (i + 1) (String.length body - i - 1) in
      let kcol = if col = 0 then 0 else col + i + 1 + lead kind_raw in
      let kind = String.trim kind_raw in
      if name = "" then
        reject sink ~col line Malformed_declaration "empty attribute name"
      else if String.length kind >= 8 && String.sub kind 0 8 = "evidence" then
        let spec = String.trim (String.sub kind 8 (String.length kind - 8)) in
        let inner =
          if String.length spec >= 2 && spec.[0] = '{'
             && spec.[String.length spec - 1] = '}'
          then String.sub spec 1 (String.length spec - 2)
          else
            reject sink ~col:kcol line Malformed_declaration
              "expected evidence {v1, v2, …}"
        in
        let values =
          String.split_on_char ',' inner
          |> List.map String.trim
          |> List.filter (fun v -> v <> "")
          |> List.map (fun v ->
                 try Dst.Value.of_literal v
                 with Invalid_argument m ->
                   reject sink ~col:kcol line Malformed_domain "%s" m)
        in
        if values = [] then
          reject sink ~col:kcol line Malformed_domain "empty evidence domain"
        else Attr.evidential name (Dst.Domain.of_values name values)
      else
        try Attr.definite name kind
        with Invalid_argument _ ->
          reject sink ~col line Malformed_domain "unknown attribute kind %s"
            kind

let bad_value sink ~col line ~key attr fmt =
  reject sink ~col line (Bad_value { attr = Attr.name attr; key }) fmt

let read_as sink ~col line ~key attr what conv make raw =
  match conv raw with
  | Some x -> make x
  | None -> bad_value sink ~col line ~key attr "expected %s, got %s" what raw

let parse_definite sink ~col line ~key attr kind raw =
  match kind with
  | "string" ->
      if String.length raw >= 2 && raw.[0] = '"' then
        (try Dst.Value.of_literal raw with Invalid_argument m ->
           bad_value sink ~col line ~key attr "%s" m)
      else Dst.Value.string raw
  | "int" ->
      read_as sink ~col line ~key attr "an int" int_of_string_opt
        Dst.Value.int raw
  | "float" ->
      read_as sink ~col line ~key attr "a float" float_of_string_opt
        Dst.Value.float raw
  | "bool" ->
      read_as sink ~col line ~key attr "a bool" bool_of_string_opt
        Dst.Value.bool raw
  | _ -> bad_value sink ~col line ~key attr "unknown value kind %s" kind

let bad_evidence sink ~col line attr frame e =
  reject sink ~col line (Bad_evidence e) "bad evidence for %s: %s"
    (Attr.name attr)
    (Dst.Evidence.error_message frame e)

let parse_cell sink ~col line attr raw =
  match Attr.kind attr with
  | Attr.Definite kind ->
      Etuple.Definite (parse_definite sink ~col line ~key:false attr kind raw)
  | Attr.Evidential frame -> (
      match Dst.Evidence.focals frame raw with
      | Error e -> bad_evidence sink ~col line attr frame e
      | Ok focals -> (
          (match sink with
          | Some s -> s.emit (Evidence_cell { line; col; focals })
          | None -> ());
          match Dst.Mass.F.validate frame focals with
          | Ok m -> Etuple.Evidence m
          | Error v -> bad_evidence sink ~col line attr frame (Invalid v)))

let parse_support sink ~col line raw =
  try Dst.Support.of_string raw with
  | Invalid_argument _ ->
      reject sink ~col line Malformed_membership "bad membership pair %s" raw
  | Dst.Support.Invalid_support (sn, sp) ->
      reject sink ~col line (Membership_range (sn, sp))
        "bad membership pair %s" raw

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

(* Stand-ins for a rejected cell, so the rest of its row is still
   checked; a row with a rejection is never built. *)
let skipped_value = Dst.Value.bool false
let skipped_cell = Etuple.Definite skipped_value

(* [base_col] is the 1-based column of [body]'s first character, so each
   field's own column can be derived from the positions of the '|'
   separators. *)
let parse_tuple sink ~base_col line schema body =
  let fields =
    Array.of_list
      (List.map
         (fun (off, f) ->
           let col = if base_col = 0 then 0 else base_col + off + lead f in
           (col, String.trim f))
         (split_fields body))
  in
  let expected = Schema.arity schema + 1 in
  if Array.length fields <> expected then
    reject sink ~col:base_col line Arity
      "expected %d |-separated fields, got %d" expected (Array.length fields);
  let before = rejected sink in
  let nkey = Schema.key_arity schema in
  let key =
    List.mapi
      (fun i attr ->
        let col, raw = fields.(i) in
        (* [Schema.validate] keeps evidential attributes out of keys. *)
        match Attr.kind attr with
        | Attr.Definite kind -> (
            try parse_definite sink ~col line ~key:true attr kind raw
            with Skip -> skipped_value)
        | Attr.Evidential _ -> assert false)
      (Schema.key schema)
  in
  let cells =
    List.mapi
      (fun i attr ->
        let col, raw = fields.(nkey + i) in
        try parse_cell sink ~col line attr raw with Skip -> skipped_cell)
      (Schema.nonkey schema)
  in
  let tm =
    let col, raw = fields.(expected - 1) in
    try parse_support sink ~col line raw with Skip -> Dst.Support.certain
  in
  if rejected sink > before then raise Skip;
  (* The cells were parsed at their attributes' kinds and frames, which
     is all [Etuple.make] checks. *)
  Etuple.make schema ~key ~cells ~tm

type block = {
  rname : string;
  rline : int;
  mutable decls : (bool * Attr.t * int * int) list;
      (* reversed: is-key, attribute, line, column *)
  mutable broken : bool;  (* a declaration was rejected *)
  mutable rows : (int * int * string) list;  (* reversed: line, column, body *)
}

(* Where a schema violation is reported: at the declaration it names
   (the first evidential key, the second of two same-named attributes),
   or at the relation header. *)
let violation_position b v =
  let at decls p =
    match List.find_opt p decls with
    | Some (_, _, line, col) -> (line, col)
    | None -> (b.rline, 0)
  in
  match v with
  | Schema.Empty_key -> (b.rline, 0)
  | Schema.Evidential_key n ->
      at (List.rev b.decls) (fun (is_key, a, _, _) -> is_key && Attr.name a = n)
  | Schema.Duplicate_attribute n ->
      at b.decls (fun (_, a, _, _) -> Attr.name a = n)

let relation_of_block sink b =
  let decls = List.rev b.decls in
  let pick k =
    List.filter_map
      (fun (is_key, a, _, _) -> if is_key = k then Some a else None)
      decls
  in
  match
    Schema.validate ~name:b.rname ~key:(pick true) ~nonkey:(pick false)
  with
  | Error v ->
      let line, col = violation_position b v in
      reject sink ~col line (Bad_schema v) "%s"
        (Schema.violation_message ~name:b.rname v)
  | Ok schema ->
      List.fold_left
        (fun r (line, col, body) ->
          try
            let tuple = parse_tuple sink ~base_col:col line schema body in
            match Relation.add r tuple with
            | r -> r
            | exception Relation.Duplicate_key key ->
                reject sink ~col line
                  (Duplicate_key { relation = b.rname; key })
                  "duplicate key"
            | exception Relation.Relation_error m ->
                (* The CWA_ER check, reported at the membership pair. *)
                let off, f =
                  List.nth (split_fields body) (Schema.arity schema)
                in
                let tm = Etuple.tm tuple in
                reject sink ~col:(col + off + lead f) line
                  (Cwa_inadmissible (Dst.Support.sn tm, Dst.Support.sp tm))
                  "%s" m
          with Skip -> r)
        (Relation.empty schema) (List.rev b.rows)

let parse sink input =
  let lines = String.split_on_char '\n' input in
  (match sink with
  | None -> Obs.Metrics.incr ~by:(List.length lines) "io.parse.lines"
  | Some _ -> ());
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
      else
        let word, word_len =
          match String.index_opt line ' ' with
          | None -> (line, String.length line)
          | Some k -> (String.sub line 0 k, k)
        in
        let rest = String.sub line word_len (String.length line - word_len) in
        let body = String.trim rest in
        (* 1-based column of the body's first character in the raw line. *)
        let body_col = indent + word_len + lead rest + 1 in
        try
          match (word, !current) with
          | "relation", _ ->
              flush ();
              if body = "" then
                reject sink ~col:(indent + 1) lineno Malformed_declaration
                  "relation needs a name";
              (match sink with
              | Some s ->
                  s.emit
                    (Relation_header
                       { line = lineno; col = body_col; name = body })
              | None -> ());
              current :=
                Some
                  { rname = body;
                    rline = lineno;
                    decls = [];
                    broken = false;
                    rows = [] }
          | _, None ->
              reject sink ~col:(indent + 1) lineno Malformed_declaration
                "expected `relation <name>` first"
          | ("key" | "attr"), Some b -> (
              try
                let a = parse_attr_decl sink ~col:body_col lineno body in
                b.decls <- (word = "key", a, lineno, body_col) :: b.decls
              with Skip -> b.broken <- true)
          | "tuple", Some b -> b.rows <- (lineno, body_col, body) :: b.rows
          | other, Some _ ->
              reject sink ~col:(indent + 1) lineno Malformed_declaration
                "unknown directive %s" other
        with Skip -> ())
    lines;
  flush ();
  (* A block with a rejected declaration has no schema to check rows
     against; only a sink ever sees one. *)
  List.filter_map
    (fun b ->
      if b.broken then None
      else try Some (relation_of_block sink b) with Skip -> None)
    (List.rev !blocks)

let relations_of_string input = parse None input

let scan emit input = ignore (parse (Some { emit; rejected = 0 }) input)

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

let tuple_of_string schema s = parse_tuple None ~base_col:0 0 schema s

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
