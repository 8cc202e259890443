module S = Set.Make (Value)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let singleton = S.singleton
let of_list = S.of_list
let of_strings l = of_list (List.map Value.string l)
let to_list = S.elements
let cardinal = S.cardinal
let mem = S.mem
let add = S.add
let remove = S.remove
let union = S.union

(* Share an operand when it already is the intersection: combination
   results then reuse their operands' focal sets instead of allocating
   a fresh copy of each. *)
let inter a b =
  if S.subset a b then a else if S.subset b a then b else S.inter a b

let diff = S.diff
let subset = S.subset
let disjoint = S.disjoint
let equal = S.equal
let compare = S.compare
let choose s = match S.choose_opt s with Some v -> v | None -> raise Not_found
let for_all = S.for_all
let exists = S.exists
let fold = S.fold
let iter = S.iter
let filter = S.filter
let map = S.map
let forall_pairs p a b = S.for_all (fun x -> S.for_all (fun y -> p x y) b) a
let exists_pair p a b = S.exists (fun x -> S.exists (fun y -> p x y) b) a

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    (to_list s)

let pp_compact ppf s =
  match to_list s with [ v ] -> Value.pp ppf v | _ -> pp ppf s

let to_string s = Format.asprintf "%a" pp s

(* The margin [Format.asprintf] lays out to. A rendering shorter than it
   never reaches a break hint, so it is the plain one-line string. *)
let margin = Format.pp_get_margin (Format.formatter_of_buffer (Buffer.create 0)) ()

let to_string_compact s =
  match to_list s with
  | [ v ] -> Value.to_string v
  | vs ->
      let flat = "{" ^ String.concat ", " (List.map Value.to_string vs) ^ "}" in
      if String.length flat < margin then flat
      else Format.asprintf "%a" pp_compact s
