type t = Mass.F.t

exception Parse_error of string * string

type error = Syntax of string | Invalid of Mass.F.violation

(* The parser's own failure; [focals] returns it as [Error]. *)
exception Reject of error

let syntax msg = raise (Reject (Syntax msg))

(* ------------------------------------------------------------------ *)
(* Lexer for the paper's evidence-set notation.                        *)

type token =
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Semi
  | Comma
  | Caret
  | Omega
  | Lit of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let lex input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = input.[i] in
      if is_space c then go (i + 1) acc
      else
        match c with
        | '[' -> go (i + 1) (Lbracket :: acc)
        | ']' -> go (i + 1) (Rbracket :: acc)
        | '{' -> go (i + 1) (Lbrace :: acc)
        | '}' -> go (i + 1) (Rbrace :: acc)
        | ';' -> go (i + 1) (Semi :: acc)
        | ',' -> go (i + 1) (Comma :: acc)
        | '^' -> go (i + 1) (Caret :: acc)
        | '~' -> go (i + 1) (Omega :: acc)
        | '"' ->
            (* Quoted string literal: scan to the closing quote, honouring
               backslash escapes. *)
            let rec close j =
              if j >= n then syntax "unterminated string literal"
              else if input.[j] = '\\' then close (j + 2)
              else if input.[j] = '"' then j
              else close (j + 1)
            in
            let j = close (i + 1) in
            go (j + 1) (Lit (String.sub input i (j - i + 1)) :: acc)
        | _ ->
            let stop_char c =
              is_space c || String.contains "[]{};,^" c
            in
            let j = ref i in
            while !j < n && not (stop_char input.[!j]) do
              incr j
            done;
            go !j (Lit (String.sub input i (!j - i)) :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser.                                           *)

let focals frame input =
  let literal s =
    try Value.of_literal s with Invalid_argument m -> syntax m
  in
  let mass = function
    | Lit s -> (
        match Num.float_of_literal s with
        | Some f -> f
        | None -> syntax ("expected a mass, got " ^ s))
    | _ -> syntax "expected a mass value"
  in
  let parse_member toks =
    match toks with
    | Omega :: rest -> (Domain.values frame, rest)
    | Lit s :: rest -> (Vset.singleton (literal s), rest)
    | Lbrace :: Rbrace :: Caret :: m :: _ ->
        (* The notation's ∅: it can carry no mass, whatever is written. *)
        raise (Reject (Invalid (Mass.F.Empty_focal (mass m))))
    | Lbrace :: rest ->
        let rec elems acc toks =
          match toks with
          | Lit s :: Comma :: rest -> elems (literal s :: acc) rest
          | Lit s :: Rbrace :: rest -> (Vset.of_list (literal s :: acc), rest)
          | Rbrace :: rest when acc <> [] -> (Vset.of_list acc, rest)
          | _ -> syntax "malformed set {…}"
        in
        elems [] rest
    | _ -> syntax "expected a focal element"
  in
  let parse_focal toks =
    let set, rest = parse_member toks in
    match rest with
    | Caret :: m :: rest -> ((set, mass m), rest)
    | _ -> syntax "expected ^mass after focal element"
  in
  let rec parse_focals acc toks =
    let focal, rest = parse_focal toks in
    match rest with
    | Semi :: rest -> parse_focals (focal :: acc) rest
    | Rbracket :: [] -> List.rev (focal :: acc)
    | Rbracket :: _ -> syntax "trailing input after ]"
    | _ -> syntax "expected ; or ]"
  in
  match
    match lex input with
    | Lbracket :: rest -> parse_focals [] rest
    | _ -> syntax "expected ["
  with
  | entries -> Ok entries
  | exception Reject e -> Error e

let error_message frame = function
  | Syntax m -> m
  | Invalid v -> Mass.F.violation_message frame v

let of_string frame input =
  match focals frame input with
  | Ok entries -> Mass.F.make frame entries
  | Error e -> raise (Parse_error (input, error_message frame e))

let to_string = Mass.F.to_string
let pp = Mass.F.pp

let of_counts frame tallies =
  let omega = Domain.values frame in
  let entries =
    List.map
      (fun (set, count) ->
        if count < 0 then
          raise (Mass.F.Invalid_mass "negative vote count")
        else if Vset.is_empty set then (omega, float_of_int count)
        else (set, float_of_int count))
      tallies
  in
  Mass.F.make_normalized frame entries

let of_value_counts frame tallies =
  of_counts frame
    (List.map (fun (v, c) -> (Vset.singleton v, c)) tallies)

let definite = Mass.F.certain
