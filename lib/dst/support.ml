type t = { sn : float; sp : float }

exception Invalid_support of float * float

let tol = Num.float_tolerance
let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let make ~sn ~sp =
  if sn < -.tol || sp > 1.0 +. tol || sn > sp +. tol then
    raise (Invalid_support (sn, sp))
  else
    let sn = clamp01 sn and sp = clamp01 sp in
    { sn; sp = Float.max sn sp }

let sn t = t.sn
let sp t = t.sp
let certain = { sn = 1.0; sp = 1.0 }
let impossible = { sn = 0.0; sp = 0.0 }
let unknown = { sn = 0.0; sp = 1.0 }
let of_bool b = if b then certain else impossible
let f_tm a b = make ~sn:(a.sn *. b.sn) ~sp:(a.sp *. b.sp)

(* Dempster's rule specialized to Ψ = {true, false}. With
   t_i = sn_i, f_i = 1 − sp_i, u_i = sp_i − sn_i:
     κ = t1·f2 + f1·t2
     m({true})  = (t1·t2 + t1·u2 + u1·t2) / (1 − κ)
     m({false}) = (f1·f2 + f1·u2 + u1·f2) / (1 − κ)  *)
let conflict a b = (a.sn *. (1.0 -. b.sp)) +. ((1.0 -. a.sp) *. b.sn)

let combine a b =
  let t1 = a.sn and f1 = 1.0 -. a.sp and u1 = a.sp -. a.sn in
  let t2 = b.sn and f2 = 1.0 -. b.sp and u2 = b.sp -. b.sn in
  let kappa = (t1 *. f2) +. (f1 *. t2) in
  let norm = 1.0 -. kappa in
  if norm <= tol then raise Mass.F.Total_conflict
  else
    let tt = ((t1 *. t2) +. (t1 *. u2) +. (u1 *. t2)) /. norm in
    let ff = ((f1 *. f2) +. (f1 *. u2) +. (u1 *. f2)) /. norm in
    make ~sn:tt ~sp:(1.0 -. ff)

let conjunction = f_tm

let disjunction a b =
  make
    ~sn:(a.sn +. b.sn -. (a.sn *. b.sn))
    ~sp:(a.sp +. b.sp -. (a.sp *. b.sp))

let negation a = make ~sn:(1.0 -. a.sp) ~sp:(1.0 -. a.sn)

let vtrue = Value.bool true
let vfalse = Value.bool false

let to_mass t =
  let entries =
    [ (Vset.singleton vtrue, t.sn);
      (Vset.singleton vfalse, 1.0 -. t.sp);
      (Domain.values Domain.boolean, t.sp -. t.sn) ]
  in
  Mass.F.make Domain.boolean entries

let of_mass m =
  if not (Domain.equal (Mass.F.frame m) Domain.boolean) then
    invalid_arg "Support.of_mass: frame is not the boolean frame"
  else
    let sn = Mass.F.mass m (Vset.singleton vtrue) in
    let sp = 1.0 -. Mass.F.mass m (Vset.singleton vfalse) in
    make ~sn ~sp

let ignorance t = t.sp -. t.sn
let positive t = t.sn > 0.0
let is_certain t = t.sn >= 1.0 -. tol

let equal a b =
  Float.abs (a.sn -. b.sn) <= tol && Float.abs (a.sp -. b.sp) <= tol

let compare a b =
  match Float.compare a.sn b.sn with
  | 0 -> Float.compare a.sp b.sp
  | c -> c

let pp ppf t = Format.fprintf ppf "(%g, %g)" t.sn t.sp
let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let malformed () =
    invalid_arg ("Support.of_string: malformed support pair " ^ s)
  in
  let component c =
    match Num.float_of_literal (String.trim c) with
    | Some f -> f
    | None -> malformed ()
  in
  let s' = String.trim s in
  let n = String.length s' in
  if n < 2 || s'.[0] <> '(' || s'.[n - 1] <> ')' then malformed ()
  else
    match String.split_on_char ',' (String.sub s' 1 (n - 2)) with
    | [ a; b ] -> make ~sn:(component a) ~sp:(component b)
    | _ -> malformed ()
