type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

exception Type_mismatch of t * t

let bool b = Bool b
let int n = Int n
let float f = Float f
let string s = String s

let kind_rank = function
  | Bool _ -> 0
  | Int _ -> 1
  | Float _ -> 2
  | String _ -> 3

let kind_name = function
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"

let same_kind a b = kind_rank a = kind_rank b

let compare a b =
  match (a, b) with
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | _ -> Stdlib.compare (kind_rank a) (kind_rank b)

let equal a b = compare a b = 0

let compare_ordered a b =
  if same_kind a b then compare a b else raise (Type_mismatch (a, b))

(* A string prints bare iff it re-parses as itself: an identifier-like
   token that is not a number or boolean literal. *)
let is_bare_string s =
  let ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.' || c = '/' || c = '@'
  in
  s <> ""
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all ident_char s
  && s <> "true" && s <> "false"

(* The one renderer: [pp] prints this string, and the provenance digests
   and lineage keys call it directly, without a formatter. *)
let to_string = function
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f ->
      (* Keep a trailing ".": distinguishes Float 2. from Int 2 on reparse. *)
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%g" f
  | String s -> if is_bare_string s then s else Printf.sprintf "%S" s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_literal raw =
  let s = String.trim raw in
  if s = "" then invalid_arg "Value.of_literal: empty literal"
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else if s.[0] = '"' then
    try Scanf.sscanf s "%S%!" (fun u -> String u)
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      invalid_arg ("Value.of_literal: malformed string literal " ^ s)
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
        (* Only treat as float when it looks numeric: avoids capturing
           identifiers like "infinity-grill" or "nan". *)
        let numericish =
          s.[0] = '-' || s.[0] = '+' || (s.[0] >= '0' && s.[0] <= '9')
        in
        match (numericish, float_of_string_opt s) with
        | true, Some f -> Float f
        | _ -> String s)
