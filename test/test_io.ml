(* The .erd serialization format: parsing, error reporting with line
   numbers, round-tripping (including the paper's relations), and file
   load/save. *)

module V = Dst.Value

let sample =
  {|# a comment
relation pets
key name : string
attr age : int
attr kind : evidence {cat, dog, fox}

tuple rex   | 3 | [dog^1]                  | (1, 1)
tuple misty | 9 | [cat^0.8; {cat,fox}^0.2] | (0.5, 0.75)
|}

let test_parse_basics () =
  let r = Erm.Io.relation_of_string sample in
  Alcotest.(check int) "two tuples" 2 (Erm.Relation.cardinal r);
  let schema = Erm.Relation.schema r in
  Alcotest.(check string) "name" "pets" (Erm.Schema.name schema);
  let misty = Erm.Relation.find r [ V.string "misty" ] in
  Alcotest.(check int) "age parsed as int" 9
    (match Erm.Etuple.definite_value schema misty "age" with
    | V.Int n -> n
    | _ -> -1);
  Alcotest.(check (float 1e-9)) "membership" 0.5
    (Dst.Support.sn (Erm.Etuple.tm misty));
  Alcotest.(check (float 1e-9)) "evidence cell" 0.2
    (Dst.Mass.F.mass
       (Erm.Etuple.evidence schema misty "kind")
       (Dst.Vset.of_strings [ "cat"; "fox" ]))

let test_multiple_relations () =
  let rs = Erm.Io.relations_of_string (sample ^ "\n" ^ sample) in
  Alcotest.(check int) "two blocks" 2 (List.length rs);
  Alcotest.(check bool)
    "relation_of_string rejects two blocks" true
    (match Erm.Io.relation_of_string (sample ^ "\n" ^ sample) with
    | _ -> false
    | exception Erm.Io.Io_error _ -> true)

let expect_error_at expected_line input =
  match Erm.Io.relations_of_string input with
  | _ -> Alcotest.failf "should reject: %s" input
  | exception Erm.Io.Io_error { line; _ } ->
      Alcotest.(check int) "error line number" expected_line line

let test_error_lines () =
  expect_error_at 1 "tuple a | b\n";
  (* directive before relation *)
  expect_error_at 2 "relation r\nbogus directive\n";
  expect_error_at 3 "relation r\nkey k : string\nattr a : uuid\n";
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | notanint | (1,1)\n";
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (2, 1)\n";
  expect_error_at 4 "relation r\nkey k : string\nattr a : int\ntuple x | 1\n";
  expect_error_at 5
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (1,1)\ntuple x \
     | 2 | (1,1)\n"

let test_cwa_on_load () =
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (0, 0.5)\n"

let test_roundtrip_sample () =
  let r = Erm.Io.relation_of_string sample in
  let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
  Alcotest.(check bool) "roundtrip" true (Erm.Relation.equal r r')

let test_roundtrip_paper_tables () =
  List.iter
    (fun (name, r) ->
      let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
      Alcotest.(check bool) (name ^ " roundtrips") true
        (Erm.Relation.equal r r'))
    [ ("r_a", Paperdata.r_a); ("r_b", Paperdata.r_b);
      ("table4", Paperdata.table4); ("table5", Paperdata.table5) ]

let test_load_save () =
  let path = Filename.temp_file "eridb" ".erd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Erm.Io.save path [ Paperdata.r_a; Paperdata.r_b ];
      match Erm.Io.load path with
      | [ a; b ] ->
          Alcotest.(check bool) "r_a loads back" true
            (Erm.Relation.equal a Paperdata.r_a);
          Alcotest.(check bool) "r_b loads back" true
            (Erm.Relation.equal b Paperdata.r_b)
      | other -> Alcotest.failf "expected 2 relations, got %d" (List.length other))

let test_value_kinds_roundtrip () =
  let input =
    {|relation kinds
key id : int
attr label : string
attr score : float
attr flag : bool
tuple 1 | "hello world" | 2.5  | true  | (1, 1)
tuple 2 | plain         | -0.5 | false | (0.3, 0.9)
|}
  in
  let r = Erm.Io.relation_of_string input in
  let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
  Alcotest.(check bool) "all kinds roundtrip" true (Erm.Relation.equal r r');
  let schema = Erm.Relation.schema r in
  let t = Erm.Relation.find r [ V.int 1 ] in
  Alcotest.(check bool) "quoted string preserved" true
    (V.equal (V.string "hello world")
       (Erm.Etuple.definite_value schema t "label"))

let () =
  Alcotest.run "io"
    [ ( "parse",
        [ Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "multiple relations" `Quick
            test_multiple_relations;
          Alcotest.test_case "error line numbers" `Quick test_error_lines;
          Alcotest.test_case "CWA enforced on load" `Quick test_cwa_on_load ]
      );
      ( "roundtrip",
        [ Alcotest.test_case "sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "paper tables" `Quick test_roundtrip_paper_tables;
          Alcotest.test_case "load/save files" `Quick test_load_save;
          Alcotest.test_case "value kinds" `Quick test_value_kinds_roundtrip ]
      ) ]
