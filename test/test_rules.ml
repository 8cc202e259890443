(* The pluggable combination rules and the κ-escalation policy.

   Three layers of proof, mirroring DESIGN.md's rule-selection table:

   - algebraic laws per rule (qcheck): closure, commutativity, the
     documented NON-associativity of averaging (asserted, not hidden),
     and the κ₀ = 1 degeneracy — an escalation policy with threshold 1
     is observationally pure Dempster wherever Dempster is defined;
   - the escalation boundary itself: κ = κ₀ exactly MUST fire, one ulp
     above must not, κ₀ = 0 always fires, and both fallback shapes
     (rule switch vs quarantine) produce the advertised outcome and
     counters;
   - every float rule against an exact-rational oracle over the
     adversarial scenario corpus (Zadeh, near-total, one-against-many,
     dissenter): the same focal sets, the same total-conflict verdict,
     and each mass and κ within a fixed absolute error.

   Seeds: qcheck honours QCHECK_SEED, which CI pins. *)

module R = Workload.Rng
module G = Workload.Gen
module Sc = Workload.Scenario
module F = Dst.Mass.F
module Rule = Dst.Rule

let count = 200

let prop name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000
let dom = G.domain ~size:6 "rules6"

(* All five families; discount at two alphas so the parameter is
   exercised, not just the constructor. *)
let rules =
  Rule.all
  @ [ Rule.discount_then_combine 0.9; Rule.discount_then_combine 0.5 ]

let mass_pair ?omega_floor seed =
  let rng = R.create seed in
  (G.evidence rng ?omega_floor dom, G.evidence rng ?omega_floor dom)

let close a b = Float.abs (a -. b) < 1e-9

(* A fixed Zadeh pair with a known conflict, for the boundary units. *)
let a3, b3, c3 =
  match Dst.Vset.to_list (Dst.Domain.values dom) with
  | a :: b :: c :: _ -> (a, b, c)
  | _ -> assert false

let mk entries =
  F.make dom (List.map (fun (vs, w) -> (Dst.Vset.of_list vs, w)) entries)

let zadeh_l = mk [ ([ a3 ], 0.99); ([ c3 ], 0.01) ]
let zadeh_r = mk [ ([ b3 ], 0.99); ([ c3 ], 0.01) ]
let total_l = mk [ ([ a3 ], 1.0) ]
let total_r = mk [ ([ b3 ], 1.0) ]
let agree_l = mk [ ([ a3 ], 0.6); (Dst.Vset.to_list (Dst.Domain.values dom), 0.4) ]

(* --- Algebraic laws, per rule ---------------------------------------- *)

let algebra_suite =
  List.concat_map
    (fun rule ->
      let label = Rule.to_string rule in
      [ prop (label ^ ": closure (frame kept, masses positive, sum 1)")
          seed_arb
          (fun s ->
            let m1, m2 = mass_pair ~omega_floor:0.05 s in
            match F.combine_rule_opt ~rule m1 m2 with
            | None -> false (* Ω floor rules out total conflict *)
            | Some (m, kappa) ->
                Dst.Domain.equal (F.frame m) dom
                && (0.0 <= kappa && kappa <= 1.0)
                && List.for_all (fun (_, w) -> w > 0.0) (F.focals m)
                && close
                     (List.fold_left
                        (fun acc (_, w) -> acc +. w)
                        0.0 (F.focals m))
                     1.0);
        prop (label ^ ": commutativity") seed_arb (fun s ->
            let m1, m2 = mass_pair ~omega_floor:0.05 s in
            match
              (F.combine_rule_opt ~rule m1 m2, F.combine_rule_opt ~rule m2 m1)
            with
            | Some (m, k), Some (m', k') -> F.equal m m' && close k k'
            | None, None -> true
            | _ -> false);
        prop (label ^ ": reported kappa is the conjunctive conflict")
          seed_arb
          (fun s ->
            let m1, m2 = mass_pair ~omega_floor:0.05 s in
            match F.combine_rule_opt ~rule m1 m2 with
            | None -> false
            | Some (_, kappa) ->
                (* Discount measures κ between the discounted operands;
                   every other rule between the originals. *)
                let expect =
                  match rule with
                  | Rule.Discount_then_combine alpha ->
                      F.conflict (F.discount alpha m1) (F.discount alpha m2)
                  | _ -> F.conflict m1 m2
                in
                Float.equal kappa expect) ])
    rules

let totality_suite =
  [ Alcotest.test_case "yager: total conflict goes to ignorance" `Quick
      (fun () ->
        let m = F.combine_yager total_l total_r in
        Alcotest.(check bool) "vacuous" true (F.is_vacuous m));
    Alcotest.test_case "dubois-prade: conflict lands on the union" `Quick
      (fun () ->
        let m = F.combine_dubois_prade total_l total_r in
        Alcotest.(check (float 1e-12))
          "m({a,b}) = 1"
          1.0
          (F.mass m (Dst.Vset.of_list [ a3; b3 ])));
    Alcotest.test_case "averaging: idempotent" `Quick (fun () ->
        let m = F.combine_average zadeh_l zadeh_l in
        Alcotest.(check int) "m avg m = m" 0 (F.compare m zadeh_l));
    Alcotest.test_case "dempster: total conflict is None/Total_conflict"
      `Quick
      (fun () ->
        Alcotest.(check bool)
          "combine_opt" true
          (F.combine_opt total_l total_r = None));
    Alcotest.test_case
      "discount alpha<1: total conflict becomes combinable" `Quick
      (fun () ->
        match
          F.combine_rule_opt
            ~rule:(Rule.discount_then_combine 0.9)
            total_l total_r
        with
        | None -> Alcotest.fail "discounted operands cannot totally conflict"
        | Some (m, kappa) ->
            Alcotest.(check bool) "kappa < 1" true (kappa < 1.0);
            Alcotest.(check bool)
              "some mass survives on each side" true
              (F.mass m (Dst.Vset.of_list [ a3 ]) > 0.0
              && F.mass m (Dst.Vset.of_list [ b3 ]) > 0.0)) ]

(* Averaging is NOT associative; the pairwise fold would weight source i
   by 2^-(n-i). The three categorical masses make the failure vivid:
   (a avg b) avg c = (1/4, 1/4, 1/2) but a avg (b avg c) = (1/2, 1/4,
   1/4), while the uniform mixture gives each 1/3. *)
let averaging_nonassoc =
  [ Alcotest.test_case "averaging: non-associativity (documented)" `Quick
      (fun () ->
        let ca = F.certain dom a3
        and cb = F.certain dom b3
        and cc = F.certain dom c3 in
        let left = F.combine_average (F.combine_average ca cb) cc in
        let right = F.combine_average ca (F.combine_average cb cc) in
        Alcotest.(check bool)
          "(a avg b) avg c <> a avg (b avg c)" false
          (F.equal left right);
        Alcotest.(check (float 1e-12))
          "left puts 1/2 on c" 0.5
          (F.mass left (Dst.Vset.of_list [ c3 ]));
        Alcotest.(check (float 1e-12))
          "right puts 1/2 on a" 0.5
          (F.mass right (Dst.Vset.of_list [ a3 ]))) ]

(* κ₀ = 1 degenerates to pure Dempster wherever Dempster is defined. *)
let kappa1_policy =
  Rule.make ~escalation:(Rule.escalate ~kappa0:1.0 Rule.Quarantine)
    Rule.Dempster

let degeneracy_suite =
  [ prop "kappa0=1 policy = plain Dempster on kappa<1 inputs" seed_arb
      (fun s ->
        let m1, m2 = mass_pair ~omega_floor:0.05 s in
        match (F.combine_policy ~policy:kappa1_policy m1 m2, F.combine_opt m1 m2)
        with
        | F.Combined { result; kappa; rule; escalated }, Some (m, k) ->
            F.compare result m = 0 && Float.equal kappa k
            && Rule.equal rule Rule.Dempster
            && not escalated
        | _ -> false);
    Alcotest.test_case "kappa0=1 quarantines exactly kappa=1" `Quick
      (fun () ->
        match F.combine_policy ~policy:kappa1_policy total_l total_r with
        | F.Quarantined { kappa } ->
            Alcotest.(check (float 0.0)) "kappa" 1.0 kappa
        | _ -> Alcotest.fail "expected Quarantined at total conflict") ]

(* --- The escalation boundary ----------------------------------------- *)

let policy ?(primary = Rule.Dempster) kappa0 fallback =
  Rule.make ~escalation:(Rule.escalate ~kappa0 fallback) primary

let escalation_suite =
  let kz = F.conflict zadeh_l zadeh_r in
  [ Alcotest.test_case "kappa = kappa0 exactly fires" `Quick (fun () ->
        match
          F.combine_policy ~policy:(policy kz Rule.Quarantine) zadeh_l zadeh_r
        with
        | F.Quarantined { kappa } ->
            Alcotest.(check bool) "kappa = threshold" true (Float.equal kappa kz)
        | _ -> Alcotest.fail "kappa >= kappa0 must escalate");
    Alcotest.test_case "one ulp above kappa does not fire" `Quick (fun () ->
        match
          F.combine_policy
            ~policy:(policy (Float.succ kz) Rule.Quarantine)
            zadeh_l zadeh_r
        with
        | F.Combined { escalated; rule; _ } ->
            Alcotest.(check bool) "not escalated" false escalated;
            Alcotest.(check bool) "primary ran" true
              (Rule.equal rule Rule.Dempster)
        | _ -> Alcotest.fail "kappa < kappa0 must not escalate");
    Alcotest.test_case "kappa0 = 0 escalates even agreeing operands" `Quick
      (fun () ->
        match
          F.combine_policy
            ~policy:(policy 0.0 (Rule.Fallback Rule.Averaging))
            agree_l agree_l
        with
        | F.Combined { escalated; rule; _ } ->
            Alcotest.(check bool) "escalated" true escalated;
            Alcotest.(check bool) "fallback ran" true
              (Rule.equal rule Rule.Averaging)
        | _ -> Alcotest.fail "kappa0 = 0 must always escalate");
    Alcotest.test_case "fallback rule result = running it directly" `Quick
      (fun () ->
        match
          F.combine_policy
            ~policy:(policy 0.5 (Rule.Fallback Rule.Yager))
            zadeh_l zadeh_r
        with
        | F.Combined { result; escalated = true; _ } ->
            Alcotest.(check int) "bit-equal to Yager" 0
              (F.compare result (F.combine_yager zadeh_l zadeh_r))
        | _ -> Alcotest.fail "expected escalated Combined");
    Alcotest.test_case "escalation counters tick" `Quick (fun () ->
        Obs.Metrics.enable ();
        Obs.Metrics.reset ();
        (match
           F.combine_policy
             ~policy:(policy 0.5 (Rule.Fallback Rule.Yager))
             zadeh_l zadeh_r
         with
        | F.Combined _ -> ()
        | _ -> Alcotest.fail "expected Combined");
        ignore
          (F.combine_policy ~policy:(policy 0.5 Rule.Quarantine) zadeh_l
             zadeh_r);
        Alcotest.(check int) "dst.combine.escalations" 2
          (Obs.Metrics.counter "dst.combine.escalations");
        Alcotest.(check int) "fallback family counter" 1
          (Obs.Metrics.counter "dst.combine.rule.yager");
        Obs.Metrics.reset ();
        Obs.Metrics.disable ());
    Alcotest.test_case "combine_policy_exn raises the typed exceptions"
      `Quick
      (fun () ->
        (match
           F.combine_policy_exn ~policy:(policy 0.5 Rule.Quarantine) zadeh_l
             zadeh_r
         with
        | exception F.Quarantined_cell kappa ->
            Alcotest.(check bool) "carries kappa" true (Float.equal kappa kz)
        | _ -> Alcotest.fail "expected Quarantined_cell");
        match F.combine_policy_exn ~policy:Rule.dempster total_l total_r with
        | exception F.Total_conflict -> ()
        | _ -> Alcotest.fail "expected Total_conflict");
    Alcotest.test_case "escalate rejects kappa0 outside [0,1]" `Quick
      (fun () ->
        let bad k () = ignore (Rule.escalate ~kappa0:k Rule.Quarantine) in
        Alcotest.check_raises "1.5"
          (Invalid_argument "Rule.escalate: kappa0 outside [0,1]")
          (bad 1.5);
        Alcotest.check_raises "-0.1"
          (Invalid_argument "Rule.escalate: kappa0 outside [0,1]")
          (bad (-0.1))) ]

(* --- combine_many, per rule (satellite: the n-ary folds) ------------- *)

let many_suite =
  let raises_invalid f =
    match f () with exception F.Invalid_mass _ -> true | _ -> false
  in
  [ Alcotest.test_case "empty list raises Invalid_mass for every rule"
      `Quick
      (fun () ->
        List.iter
          (fun rule ->
            Alcotest.(check bool)
              (Rule.to_string rule) true
              (raises_invalid (fun () -> F.combine_many ~rule [])))
          rules);
    Alcotest.test_case "singleton is the identity for every rule" `Quick
      (fun () ->
        List.iter
          (fun rule ->
            Alcotest.(check int)
              (Rule.to_string rule) 0
              (F.compare (F.combine_many ~rule [ zadeh_l ]) zadeh_l))
          rules);
    Alcotest.test_case "dempster fold = pairwise combine" `Quick (fun () ->
        let m1, m2 = mass_pair ~omega_floor:0.1 7 in
        let m3 = G.evidence (R.create 8) ~omega_floor:0.1 dom in
        Alcotest.(check int) "3-way" 0
          (F.compare
             (F.combine_many [ m1; m2; m3 ])
             (F.combine (F.combine m1 m2) m3)));
    Alcotest.test_case "yager fold is the (documented) left fold" `Quick
      (fun () ->
        let m1, m2 = mass_pair ~omega_floor:0.1 9 in
        let m3 = G.evidence (R.create 10) ~omega_floor:0.1 dom in
        Alcotest.(check int) "left fold" 0
          (F.compare
             (F.combine_many ~rule:Rule.Yager [ m1; m2; m3 ])
             (F.combine_yager (F.combine_yager m1 m2) m3)));
    Alcotest.test_case "averaging is the uniform 1/n mixture" `Quick
      (fun () ->
        let ca = F.certain dom a3
        and cb = F.certain dom b3
        and cc = F.certain dom c3 in
        let m = F.combine_many ~rule:Rule.Averaging [ ca; cb; cc ] in
        List.iter
          (fun v ->
            Alcotest.(check (float 1e-12))
              "each source weighs 1/3" (1.0 /. 3.0)
              (F.mass m (Dst.Vset.of_list [ v ])))
          [ a3; b3; c3 ];
        (* ...which the pairwise fold would NOT give. *)
        let folded = F.combine_average (F.combine_average ca cb) cc in
        Alcotest.(check bool) "differs from the pairwise fold" false
          (F.equal m folded));
    prop "averaging combine_many: mass(A) = mean of operand masses"
      seed_arb
      (fun s ->
        let rng = R.create s in
        let ms = List.init 4 (fun _ -> G.evidence rng dom) in
        let m = F.combine_many ~rule:Rule.Averaging ms in
        List.for_all
          (fun (a, w) ->
            let mean =
              List.fold_left (fun acc mi -> acc +. F.mass mi a) 0.0 ms /. 4.0
            in
            close w mean)
          (F.focals m)) ]

(* --- Every rule against an exact-rational oracle ---------------------- *)

module Q = Dst.Mass.Make (Bigq)

let corpus_dom = G.domain ~size:8 "rules-corpus"

let corpus_pairs =
  (* All adjacent pairs of every scenario group: 20 groups x pairs. *)
  List.concat_map
    (fun (_kind, group) ->
      let rec adj = function
        | m1 :: (m2 :: _ as rest) -> (m1, m2) :: adj rest
        | _ -> []
      in
      adj group)
    (Sc.corpus ~seed:424242 corpus_dom)

(* Each float mass lifts exactly to a dyadic rational. The exact
   instance validates Σm = 1 exactly, which a float assignment such as
   0.99 + 0.01 meets only up to rounding, so the lift is rescaled by its
   exact total, a factor within a few ulps of one. *)
let lift m =
  Q.make_normalized (F.frame m)
    (List.map (fun (set, x) -> (set, Bigq.of_float x)) (F.focals m))

let abs_error x q = Bigq.to_float (Bigq.abs (Bigq.sub (Bigq.of_float x) q))

(* Measured over the corpus, the largest absolute error on a mass or on
   κ is 1.1e-13 for Dempster, on a Zadeh pair, where 1/(1-κ) = 10^4
   amplifies the rounding of κ. Every other rule stays below 4.2e-16:
   discounting keeps κ ≤ 1 - (1-α)², and the other rules never divide. *)
let oracle_bound = function Rule.Dempster -> 1e-12 | _ -> 1e-15

(* Float and exact results of one combination: the same verdict, the
   same focal sets, and every mass and κ within the rule's bound. *)
let check_oracle rule label (m1, m2) =
  let bound = oracle_bound rule in
  match
    ( F.combine_rule_opt ~rule m1 m2,
      Q.combine_rule_opt ~rule (lift m1) (lift m2) )
  with
  | None, None -> ()
  | Some (fm, fk), Some (qm, qk) ->
      Alcotest.(check bool)
        (label ^ ": same focal sets") true
        (List.equal Dst.Vset.equal
           (List.map fst (F.focals fm))
           (List.map fst (Q.focals qm)));
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error %g within %g" label e bound)
            true (e <= bound))
        (abs_error fk qk
        :: List.map2
             (fun (_, x) (_, q) -> abs_error x q)
             (F.focals fm) (Q.focals qm))
  | Some _, None | None, Some _ ->
      Alcotest.failf "%s: float and exact verdicts differ" label

let oracle_suite =
  List.map
    (fun rule ->
      Alcotest.test_case
        (Printf.sprintf "%s = exact rational over the corpus"
           (Rule.to_string rule))
        `Quick
        (fun () ->
          List.iteri
            (fun i pair -> check_oracle rule (Printf.sprintf "pair %d" i) pair)
            corpus_pairs))
    rules

(* The edges the corpus does not reach: κ = 1 exactly, where Dempster
   has no result, and operands over different frames. *)
let corners =
  let v0, v1 =
    match Dst.Vset.to_list (Dst.Domain.values corpus_dom) with
    | a :: b :: _ -> (a, b)
    | _ -> assert false
  in
  [ Alcotest.test_case "total conflict" `Quick (fun () ->
        let pair = (F.certain corpus_dom v0, F.certain corpus_dom v1) in
        Alcotest.(check bool)
          "dempster reports total conflict" true
          (Option.is_none (F.combine_opt (fst pair) (snd pair)));
        List.iter
          (fun rule -> check_oracle rule (Rule.to_string rule) pair)
          rules);
    Alcotest.test_case "frame mismatch" `Quick (fun () ->
        let other = G.domain ~size:4 "rules-other" in
        Alcotest.check_raises "float combine rejects mixed frames"
          (F.Frame_mismatch (corpus_dom, other))
          (fun () ->
            ignore (F.combine_opt (F.vacuous corpus_dom) (F.vacuous other)));
        Alcotest.check_raises "exact combine rejects mixed frames"
          (Q.Frame_mismatch (corpus_dom, other))
          (fun () ->
            ignore (Q.combine_opt (Q.vacuous corpus_dom) (Q.vacuous other))))
  ]

let bigq_suite =
  [ prop "Bigq lifts floats exactly and orders them as floats do"
      seed_arb
      (fun s ->
        let rng = R.create s in
        let x = R.float rng 2.0 -. 1.0 and y = R.float rng 1e-6 +. 1e-9 in
        let qx = Bigq.of_float x and qy = Bigq.of_float y in
        Bigq.to_float qx = x
        && Bigq.compare qx qy = Float.compare x y
        && Bigq.equal (Bigq.sub (Bigq.add qx qy) qy) qx
        && Bigq.equal (Bigq.div (Bigq.mul qx qy) qy) qx) ]

let corpus_shape =
  [ Alcotest.test_case "corpus covers all four scenario kinds" `Quick
      (fun () ->
        let c = Sc.corpus ~seed:1 ~per_kind:3 corpus_dom in
        Alcotest.(check int) "4 kinds x 3" 12 (List.length c);
        List.iter
          (fun kind ->
            Alcotest.(check int)
              (Sc.kind_name kind) 3
              (List.length (List.filter (fun (k, _) -> k = kind) c)))
          Sc.all_kinds);
    Alcotest.test_case "zadeh scenario: the paradox is present" `Quick
      (fun () ->
        let m1, m2 = Sc.pair (R.create 5) Sc.Zadeh corpus_dom in
        Alcotest.(check (float 1e-9)) "kappa" 0.9999 (F.conflict m1 m2);
        match F.combine_opt m1 m2 with
        | Some (m, _) ->
            Alcotest.(check bool)
              "dempster concludes the shared hypothesis with certainty" true
              (F.is_definite m)
        | None -> Alcotest.fail "kappa < 1 here");
    Alcotest.test_case "near-total scenario: defined but fragile" `Quick
      (fun () ->
        let m1, m2 = Sc.pair (R.create 6) Sc.Near_total corpus_dom in
        let k = F.conflict m1 m2 in
        Alcotest.(check bool) "0.9 < kappa < 1" true (k > 0.9 && k < 1.0));
    Alcotest.test_case "group scenarios outnumber the dissenter" `Quick
      (fun () ->
        List.iter
          (fun kind ->
            let g = Sc.group (R.create 7) kind corpus_dom in
            Alcotest.(check bool)
              (Sc.kind_name kind ^ ": at least 3 sources")
              true
              (List.length g >= 3))
          [ Sc.One_against_many; Sc.Dissenter ]) ]

(* --- Rule parsing and keys ------------------------------------------- *)

let parsing_suite =
  [ Alcotest.test_case "of_string inverts to_string" `Quick (fun () ->
        List.iter
          (fun rule ->
            match Rule.of_string (Rule.to_string rule) with
            | Ok r ->
                Alcotest.(check bool) (Rule.to_string rule) true
                  (Rule.equal r rule)
            | Error e -> Alcotest.fail e)
          rules);
    Alcotest.test_case "aliases parse" `Quick (fun () ->
        let ok spec rule =
          match Rule.of_string spec with
          | Ok r -> Alcotest.(check bool) spec true (Rule.equal r rule)
          | Error e -> Alcotest.fail e
        in
        ok "dp" Rule.Dubois_prade;
        ok "dubois_prade" Rule.Dubois_prade;
        ok "average" Rule.Averaging;
        ok "mixing" Rule.Averaging;
        ok "discount"
          (Rule.discount_then_combine Rule.default_discount_alpha);
        ok "Yager" Rule.Yager);
    Alcotest.test_case "unknown rule is a parse error" `Quick (fun () ->
        match Rule.of_string "bogus" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bogus parsed");
    Alcotest.test_case "fallback_of_string: quarantine and rules" `Quick
      (fun () ->
        (match Rule.fallback_of_string "quarantine" with
        | Ok Rule.Quarantine -> ()
        | _ -> Alcotest.fail "quarantine");
        match Rule.fallback_of_string "yager" with
        | Ok (Rule.Fallback Rule.Yager) -> ()
        | _ -> Alcotest.fail "yager fallback");
    Alcotest.test_case "policy_key separates every distinct policy" `Quick
      (fun () ->
        let policies =
          List.map Rule.make rules
          @ [ policy 0.9 Rule.Quarantine;
              policy 0.9 (Rule.Fallback Rule.Yager);
              policy 0.8 Rule.Quarantine;
              policy ~primary:Rule.Yager 0.9 Rule.Quarantine;
              Rule.make
                ~escalation:
                  (Rule.escalate ~kappa0:0.9 (Rule.Fallback Rule.Yager))
                (Rule.discount_then_combine 0.5) ]
        in
        let keys = List.map Rule.policy_key policies in
        let distinct = List.sort_uniq String.compare keys in
        Alcotest.(check int) "all keys distinct" (List.length policies)
          (List.length distinct));
    Alcotest.test_case "with_policy restores on exception" `Quick (fun () ->
        let before = Rule.current () in
        (try
           Rule.with_policy (Rule.make Rule.Yager) (fun () ->
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "restored" true
          (Rule.equal_policy before (Rule.current ()))) ]

let () =
  Alcotest.run "rules"
    [ ("algebra", algebra_suite);
      ("totality", totality_suite);
      ("averaging-nonassoc", averaging_nonassoc);
      ("kappa0-degeneracy", degeneracy_suite);
      ("escalation", escalation_suite);
      ("combine-many", many_suite);
      ("rational-oracle", oracle_suite);
      ("corners", corners);
      ("bigq", bigq_suite);
      ("corpus", corpus_shape);
      ("parsing", parsing_suite) ]
