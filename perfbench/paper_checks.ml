(* The paper's artifacts, checked before anything is timed: the §2.2
   combination in exact rationals (3/7, 1/3, 2/21, 2/21, 1/21 with
   κ = 1/8) and Tables 2-5 plus the Figure 1 query. Each check is one
   attempted operation. *)

module Mq = Dst.Mass.Make (Dst.Num.Rational)

let exact_e2 () =
  let frame = Dst.Mass.F.frame Paperdata.wok_m1 in
  let m1 = Mq.make frame Paperdata.sec22_m1_exact in
  let m2 = Mq.make frame Paperdata.sec22_m2_exact in
  let combined = Mq.combine m1 m2 in
  let masses =
    List.sort Qarith.Q.compare (List.map snd (Mq.focals combined))
  in
  let expected =
    List.sort Qarith.Q.compare
      Qarith.Q.[ make 3 7; make 1 3; make 2 21; make 2 21; make 1 21 ]
  in
  Measure.check "E2 masses are 3/7, 1/3, 2/21, 2/21, 1/21"
    (List.equal Qarith.Q.equal masses expected);
  Measure.check "E2 equals the paper's assignment"
    (Mq.equal combined (Mq.make frame Paperdata.sec22_expected_exact));
  Measure.check "E2 kappa = 1/8"
    (Qarith.Q.equal (Mq.conflict m1 m2) (Qarith.Q.make 1 8))

let tables () =
  let sel pred =
    Erm.Ops.select ~threshold:(Erm.Threshold.sn_gt 0.0) pred Paperdata.r_a
  in
  Erm.Predicate.
    [
      ("table2", Paperdata.table2, fun () -> sel (is_values "speciality" [ "si" ]));
      ( "table3",
        Paperdata.table3,
        fun () ->
          sel (is_values "speciality" [ "mu" ] &&& is_values "rating" [ "ex" ]) );
      ("table4", Paperdata.table4, fun () -> Erm.Ops.union Paperdata.r_a Paperdata.r_b);
      ( "table5",
        Paperdata.table5,
        fun () -> Erm.Ops.project Paperdata.table5_attrs Paperdata.r_a );
    ]

let figure1 () =
  let env = [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ] in
  Query.Eval.run env
    "SELECT * FROM (ra UNION rb) WHERE speciality IS {mu} AND rating IS {ex} \
     WITH SN > 0.5"

let run (m : Measure.t) =
  Measure.op m "paper E2 exact rational" exact_e2;
  List.iter
    (fun (name, expected, actual) ->
      Measure.op m ("paper " ^ name) (fun () ->
          Measure.check "relation equals the paper's"
            (Erm.Relation.equal (actual ()) expected)))
    (tables ());
  Measure.op m "paper figure1" (fun () ->
      Measure.check "two tuples" (Erm.Relation.cardinal (figure1 ()) = 2))
