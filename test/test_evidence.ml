(* Evidence-set concrete syntax (the paper's [si^0.5; ~^0.25] notation)
   and the vote-consolidation constructors of §1.2. *)

module V = Dst.Value
module Vs = Dst.Vset
module D = Dst.Domain
module M = Dst.Mass.F
module E = Dst.Evidence

let feq = Alcotest.float 1e-9
let ev = Alcotest.testable E.pp M.equal

let cuisines = D.of_strings "cuisines" [ "am"; "ca"; "hu"; "it"; "mu"; "si" ]

let test_parse_singletons () =
  let m = E.of_string cuisines "[si^0.5; hu^0.25; ca^0.25]" in
  Alcotest.check feq "si" 0.5 (M.mass m (Vs.of_strings [ "si" ]));
  Alcotest.check feq "hu" 0.25 (M.mass m (Vs.of_strings [ "hu" ]));
  Alcotest.(check int) "three focals" 3 (M.focal_count m)

let test_parse_sets_and_omega () =
  let m = E.of_string cuisines "[{hu, si}^1/3; ca^1/2; ~^1/6]" in
  Alcotest.check feq "{hu,si}" (1.0 /. 3.0)
    (M.mass m (Vs.of_strings [ "hu"; "si" ]));
  Alcotest.check feq "omega via ~" (1.0 /. 6.0)
    (M.mass m (D.values cuisines));
  Alcotest.check ev "matches the §2.1 evidence set" Paperdata.wok_m1
    (E.of_string (M.frame Paperdata.wok_m1) "[ca^1/2; {hu,si}^1/3; ~^1/6]")

let test_parse_fractions () =
  let m = E.of_string cuisines "[si^3/7; hu^4/7]" in
  Alcotest.check feq "3/7" (3.0 /. 7.0) (M.mass m (Vs.of_strings [ "si" ]))

let test_parse_whitespace_insensitive () =
  let a = E.of_string cuisines "[ si ^ 0.5 ; { hu , si } ^ 0.5 ]" in
  let b = E.of_string cuisines "[si^0.5;{hu,si}^0.5]" in
  Alcotest.check ev "whitespace irrelevant" a b

let test_parse_value_kinds () =
  let nums = D.of_values "nums" [ V.int 1; V.int 2; V.int 4; V.int 6 ] in
  let m = E.of_string nums "[{1,4}^0.6; {2,6}^0.4]" in
  Alcotest.check feq "int sets parse" 0.6
    (M.mass m (Vs.of_list [ V.int 1; V.int 4 ]));
  let quoted = D.of_values "q" [ V.string "two words"; V.string "x" ] in
  let mq = E.of_string quoted "[\"two words\"^1]" in
  Alcotest.check feq "quoted strings parse" 1.0
    (M.mass mq (Vs.singleton (V.string "two words")))

let parse_error input =
  Alcotest.(check bool)
    ("rejects " ^ input)
    true
    (match E.of_string cuisines input with
    | _ -> false
    | exception E.Parse_error _ -> true)

let test_parse_errors () =
  List.iter parse_error
    [ "si^1"; "[si^1"; "[si]"; "[si^]"; "[^1]"; "[si^1;]"; "[{}^1]";
      "[si^1] trailing"; "[si^one]"; "[si^1/0]"; "" ]

(* Evidence masses and support-pair components share one literal
   parser, so each literal is read or refused by both alike. A literal
   that reads ([-1/3]) may still break a range rule later; that is not
   a syntax error in either. *)
let test_mass_literals () =
  let evidence_reads l =
    match E.focals cuisines ("[si^" ^ l ^ "]") with
    | Ok _ | Error (E.Invalid _) -> true
    | Error (E.Syntax _) -> false
  in
  let support_reads l =
    match Dst.Support.of_string ("(" ^ l ^ ", 1)") with
    | _ | (exception Dst.Support.Invalid_support _) -> true
    | exception Invalid_argument _ -> false
  in
  List.iter
    (fun (l, reads) ->
      Alcotest.(check bool) ("literal " ^ l) reads
        (Dst.Num.float_of_literal l <> None);
      Alcotest.(check bool) ("evidence mass " ^ l) reads (evidence_reads l);
      Alcotest.(check bool) ("support component " ^ l) reads (support_reads l))
    [ ("1/2", true); ("0.5", true); ("1/0", false); ("1/", false);
      ("lots", false); ("-1/3", true) ]

let test_semantic_errors () =
  let bad input =
    Alcotest.(check bool)
      ("invalid mass in " ^ input)
      true
      (match E.of_string cuisines input with
      | _ -> false
      | exception M.Invalid_mass _ -> true)
  in
  bad "[si^0.5; hu^0.6]";
  (* sums over 1 *)
  bad "[si^0.5]";
  (* sums under 1 *)
  bad "[sushi^1]" (* outside the domain *)

let test_roundtrip () =
  let cases =
    [ "[si^1]"; "[si^0.5; hu^0.5]"; "[{hu, si}^0.25; ca^0.5; ~^0.25]";
      "[am^0.125; {ca, hu, si}^0.875]" ]
  in
  List.iter
    (fun s ->
      let parsed = E.of_string cuisines s in
      Alcotest.check ev ("roundtrip " ^ s) parsed
        (E.of_string cuisines (E.to_string parsed)))
    cases

(* --- Vote consolidation (§1.2) ------------------------------------- *)

let dishes = D.of_strings "dishes" [ "d1"; "d2"; "d3" ]

let test_of_value_counts () =
  (* The paper's vote statistics: d1:3, d2:2, d3:1. *)
  let m =
    E.of_value_counts dishes
      [ (V.string "d1", 3); (V.string "d2", 2); (V.string "d3", 1) ]
  in
  Alcotest.check feq "d1 = 0.5" 0.5 (M.mass m (Vs.of_strings [ "d1" ]));
  Alcotest.check feq "d2 = 1/3" (1.0 /. 3.0)
    (M.mass m (Vs.of_strings [ "d2" ]));
  Alcotest.check feq "d3 = 1/6" (1.0 /. 6.0)
    (M.mass m (Vs.of_strings [ "d3" ]))

let test_of_counts_with_abstention () =
  (* Empty-set tallies are abstentions: they become Ω mass. *)
  let m =
    E.of_counts dishes
      [ (Vs.of_strings [ "d1" ], 2);
        (Vs.of_strings [ "d2"; "d3" ], 1);
        (Vs.empty, 1) ]
  in
  Alcotest.check feq "d1" 0.5 (M.mass m (Vs.of_strings [ "d1" ]));
  Alcotest.check feq "{d2,d3}" 0.25 (M.mass m (Vs.of_strings [ "d2"; "d3" ]));
  Alcotest.check feq "abstention -> omega" 0.25 (M.mass m (D.values dishes))

let test_of_counts_errors () =
  let invalid f =
    Alcotest.(check bool)
      "raises Invalid_mass" true
      (match f () with _ -> false | exception M.Invalid_mass _ -> true)
  in
  invalid (fun () -> E.of_counts dishes [ (Vs.of_strings [ "d1" ], -1) ]);
  invalid (fun () -> E.of_counts dishes [ (Vs.of_strings [ "d1" ], 0) ])

let test_definite () =
  let m = E.definite dishes (V.string "d2") in
  Alcotest.(check bool) "definite" true (M.is_definite m);
  Alcotest.check feq "mass 1" 1.0 (M.mass m (Vs.of_strings [ "d2" ]))

let () =
  Alcotest.run "evidence"
    [ ( "parse",
        [ Alcotest.test_case "singletons" `Quick test_parse_singletons;
          Alcotest.test_case "sets and omega" `Quick test_parse_sets_and_omega;
          Alcotest.test_case "fractions" `Quick test_parse_fractions;
          Alcotest.test_case "whitespace" `Quick
            test_parse_whitespace_insensitive;
          Alcotest.test_case "value kinds" `Quick test_parse_value_kinds;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "mass literals" `Quick test_mass_literals;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip ] );
      ( "votes",
        [ Alcotest.test_case "value counts" `Quick test_of_value_counts;
          Alcotest.test_case "abstentions" `Quick
            test_of_counts_with_abstention;
          Alcotest.test_case "count errors" `Quick test_of_counts_errors;
          Alcotest.test_case "definite" `Quick test_definite ] ) ]
