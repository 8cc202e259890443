type t = { name : string; key : Attr.t list; nonkey : Attr.t list }

exception Schema_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

type violation =
  | Empty_key
  | Evidential_key of string
  | Duplicate_attribute of string

let violation_message ~name = function
  | Empty_key -> Printf.sprintf "relation %s has an empty key" name
  | Evidential_key a -> Printf.sprintf "key attribute %s must be definite" a
  | Duplicate_attribute a -> Printf.sprintf "duplicate attribute name %s" a

let check ~key ~nonkey =
  let sorted = List.sort String.compare (List.map Attr.name (key @ nonkey)) in
  let rec dup = function
    | a :: b :: _ when String.equal a b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  if key = [] then Some Empty_key
  else
    match List.find_opt Attr.is_evidential key with
    | Some a -> Some (Evidential_key (Attr.name a))
    | None -> Option.map (fun a -> Duplicate_attribute a) (dup sorted)

let validate ~name ~key ~nonkey =
  match check ~key ~nonkey with
  | None -> Ok { name; key; nonkey }
  | Some v -> Error v

let make ~name ~key ~nonkey =
  match check ~key ~nonkey with
  | None -> { name; key; nonkey }
  | Some v -> raise (Schema_error (violation_message ~name v))

let name s = s.name
let key s = s.key
let nonkey s = s.nonkey
let attrs s = s.key @ s.nonkey
let arity s = List.length s.key + List.length s.nonkey
let key_arity s = List.length s.key

let find s n =
  match List.find_opt (fun a -> String.equal (Attr.name a) n) (attrs s) with
  | Some a -> a
  | None -> raise Not_found

let find_opt s n =
  List.find_opt (fun a -> String.equal (Attr.name a) n) (attrs s)

let index_in attrs n =
  let rec go i = function
    | [] -> raise Not_found
    | a :: rest ->
        if String.equal (Attr.name a) n then i else go (i + 1) rest
  in
  go 0 attrs

let nonkey_index s n = index_in s.nonkey n
let key_index s n = index_in s.key n
let mem s n = find_opt s n <> None

let is_key s n =
  List.exists (fun a -> String.equal (Attr.name a) n) s.key

let union_compatible a b =
  List.length a.key = List.length b.key
  && List.length a.nonkey = List.length b.nonkey
  && List.for_all2 Attr.equal a.key b.key
  && List.for_all2 Attr.equal a.nonkey b.nonkey

let equal a b = String.equal a.name b.name && union_compatible a b

let project s names =
  List.iter
    (fun n -> if not (mem s n) then fail "unknown attribute %s" n)
    names;
  List.iter
    (fun a ->
      if not (List.mem (Attr.name a) names) then
        fail "projection must retain key attribute %s" (Attr.name a))
    s.key;
  let nonkey =
    List.filter_map
      (fun n -> if is_key s n then None else Some (find s n))
      names
  in
  { s with nonkey }

let product a b =
  make ~name:(a.name ^ "_x_" ^ b.name) ~key:(a.key @ b.key)
    ~nonkey:(a.nonkey @ b.nonkey)

let rename_relation name s = { s with name }

let rename_attrs f s =
  let rename = List.map (fun a -> Attr.rename (f (Attr.name a)) a) in
  make ~name:s.name ~key:(rename s.key) ~nonkey:(rename s.nonkey)

let pp ppf s =
  Format.fprintf ppf "@[<v 2>relation %s" s.name;
  List.iter (fun a -> Format.fprintf ppf "@,key %a" Attr.pp a) s.key;
  List.iter (fun a -> Format.fprintf ppf "@,attr %a" Attr.pp a) s.nonkey;
  Format.fprintf ppf "@]"
