(* Exact rationals over unbounded integers: the numeric instance of the
   float-vs-rational differential tests.

   [Qarith.Q] keeps native ints and raises [Overflow] on the product of
   two exact float lifts (each numerator already carries 53 significant
   bits), so an oracle that lifts float operands exactly needs unbounded
   integers. Fractions stay unreduced apart from common factors of two:
   every lifted operand is dyadic, and only a normalising division takes
   the arithmetic out of the dyadics. *)

(* Natural numbers: little-endian base-2^30 limbs, no high zero limbs. *)
module Nat = struct
  let bits = 30
  let mask = (1 lsl bits) - 1

  type t = int array

  let zero = [||]
  let is_zero a = Array.length a = 0

  let trim a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let of_int n =
    let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr bits) in
    Array.of_list (limbs n)

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec from i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
        else from (i - 1)
      in
      from (la - 1)

  let add a b =
    let n = max (Array.length a) (Array.length b) + 1 in
    let limb x i = if i < Array.length x then x.(i) else 0 in
    let r = Array.make n 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let s = limb a i + limb b i + !carry in
      r.(i) <- s land mask;
      carry := s lsr bits
    done;
    trim r

  (* [a - b] for [a >= b]. *)
  let sub a b =
    let r = Array.copy a and borrow = ref 0 in
    for i = 0 to Array.length a - 1 do
      let d = a.(i) - (if i < Array.length b then b.(i) else 0) - !borrow in
      if d < 0 then (r.(i) <- d + (1 lsl bits); borrow := 1)
      else (r.(i) <- d; borrow := 0)
    done;
    trim r

  let mul a b =
    if is_zero a || is_zero b then zero
    else begin
      let la = Array.length a and lb = Array.length b in
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (a.(i) * b.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr bits
        done;
        r.(i + lb) <- !carry
      done;
      trim r
    end

  let pow2 k =
    let r = Array.make ((k / bits) + 1) 0 in
    r.(k / bits) <- 1 lsl (k mod bits);
    r

  let trailing_zeros a =
    let rec limb i = if a.(i) = 0 then limb (i + 1) else i in
    let i = limb 0 in
    let rec bit k = if a.(i) land (1 lsl k) = 0 then bit (k + 1) else k in
    (i * bits) + bit 0

  let shift_right a k =
    let q = k / bits and r = k mod bits in
    let n = Array.length a - q in
    if n <= 0 then zero
    else
      trim
        (Array.init n (fun i ->
             let hi = if i + q + 1 < Array.length a then a.(i + q + 1) else 0 in
             (a.(i + q) lsr r) lor ((hi lsl (bits - r)) land mask)))

  let bit_length a =
    let n = Array.length a in
    if n = 0 then 0
    else
      let rec width x = if x = 0 then 0 else 1 + width (x lsr 1) in
      ((n - 1) * bits) + width a.(n - 1)

  (* [(m, e)] with [a ≈ m · 2^e] and [m] exact in at most 62 bits. *)
  let to_scaled a =
    let e = max 0 (bit_length a - 62) in
    let top = shift_right a e in
    (Array.fold_right (fun l acc -> (acc lsl bits) lor l) top 0, e)
end

type t = { neg : bool; num : Nat.t; den : Nat.t }

let zero = { neg = false; num = Nat.zero; den = Nat.of_int 1 }
let one = { zero with num = Nat.of_int 1 }

(* Lowest terms up to odd common factors; zero is unsigned. *)
let make neg num den =
  if Nat.is_zero num then zero
  else
    let k = min (Nat.trailing_zeros num) (Nat.trailing_zeros den) in
    { neg; num = Nat.shift_right num k; den = Nat.shift_right den k }

let neg x = if Nat.is_zero x.num then x else { x with neg = not x.neg }
let abs x = { x with neg = false }

let add x y =
  let a, b, d =
    if Nat.compare x.den y.den = 0 then (x.num, y.num, x.den)
    else (Nat.mul x.num y.den, Nat.mul y.num x.den, Nat.mul x.den y.den)
  in
  if x.neg = y.neg then make x.neg (Nat.add a b) d
  else if Nat.compare a b >= 0 then make x.neg (Nat.sub a b) d
  else make y.neg (Nat.sub b a) d

let sub x y = add x (neg y)
let mul x y = make (x.neg <> y.neg) (Nat.mul x.num y.num) (Nat.mul x.den y.den)

let div x y =
  if Nat.is_zero y.num then raise Division_by_zero
  else make (x.neg <> y.neg) (Nat.mul x.num y.den) (Nat.mul x.den y.num)

let compare x y =
  let d = sub x y in
  if Nat.is_zero d.num then 0 else if d.neg then -1 else 1

let equal x y = compare x y = 0

(* Exact: every finite float is [n · 2^e] with [|n| < 2^53]. *)
let of_float f =
  if not (Float.is_finite f) then invalid_arg "Bigq.of_float: not finite";
  let m, e = Float.frexp f in
  let n = Float.to_int (Float.ldexp m 53) and e = e - 53 in
  let num = Nat.of_int (Int.abs n) in
  if e >= 0 then make (n < 0) (Nat.mul num (Nat.pow2 e)) (Nat.of_int 1)
  else make (n < 0) num (Nat.pow2 (-e))

(* Within a few ulps: both terms are truncated to 62 bits first. *)
let to_float x =
  let n, en = Nat.to_scaled x.num and d, ed = Nat.to_scaled x.den in
  let f = Float.ldexp (Float.of_int n /. Float.of_int d) (en - ed) in
  if x.neg then -.f else f

let pp ppf x = Format.fprintf ppf "%.17g" (to_float x)
