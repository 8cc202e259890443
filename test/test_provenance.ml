(* Lineage DAG invariants (qcheck + unit):

   - every derivation recorded during multi-source integration bottoms
     out in Source leaves — the stored tuples of the federated inputs;
   - the κ stored on a Dempster combination node equals
     Dst.Measures.conflict recomputed on the operands, bit-exactly;
   - a Combine_cache hit adds no nodes within one arena lifetime and,
     across arenas (warm cache, fresh store), reconstructs a lineage
     structurally identical to the cold derivation;
   - the physical planner attaches the same evidence lineage as naive
     evaluation (value-digest keyed, so plan rewrites cannot hide);
   - the DOT and JSON exporters agree on node/edge counts and the DOT
     text is structurally well-formed (checked without a dot binary);
   - Mass.F.digest, Value.to_string and Vset.to_string_compact build
     the same bytes as the Format-based renderers they replaced, which
     this file keeps as the reference oracle.

   Seeds: qcheck honours QCHECK_SEED, which CI pins. *)

module M = Dst.Mass.F
module P = Obs.Provenance
module W = Obs.Why
module R = Workload.Rng
module G = Workload.Gen
module Q = Workload.Qgen

let prop ?(count = 150) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000
let dom8 = G.domain ~size:8 "d"

let gen_evidence seed =
  G.evidence (R.create seed) ~focals:4 ~max_focal_size:3 dom8

let schema = G.schema "prov"

(* The hooks consult the process-wide default store, so properties flip
   it — and restore it whatever happens. *)
let with_provenance f =
  P.reset ();
  P.enable ();
  Fun.protect
    ~finally:(fun () ->
      P.disable ();
      P.reset ())
    f

(* --- leaves are sources ---------------------------------------------- *)

let derivation_roots t =
  (match P.find (Erm.Lineage.tm_digest t) with
  | Some id -> [ id ]
  | None -> [])
  @ List.filter_map
      (function
        | Erm.Etuple.Evidence e -> P.find (M.digest e)
        | Erm.Etuple.Definite _ -> None)
      (Erm.Etuple.cells t)

let all_leaves_are_sources id =
  List.for_all (fun (n : P.node) -> n.P.kind = P.Source) (P.leaves id)

let leaf_props =
  [ prop "integration lineage bottoms out in stored source tuples"
      ~count:75 seed_arb
      (fun s ->
        with_provenance (fun () ->
          let ra, rb =
            G.source_pair (R.create s) ~size:10 ~overlap:0.6 schema
          in
          let rc = G.reobserve (R.create (s + 17)) ra in
          let report =
            Integration.Multi.integrate
              [ { Integration.Multi.source_name = "ra";
                  source_relation = ra };
                { Integration.Multi.source_name = "rb";
                  source_relation = rb };
                { Integration.Multi.source_name = "rc";
                  source_relation = rc } ]
          in
          Erm.Relation.tuples report.Integration.Multi.integrated
          |> List.for_all (fun t ->
                 let roots = derivation_roots t in
                 roots <> [] && List.for_all all_leaves_are_sources roots)))
  ]

(* --- recorded kappa -------------------------------------------------- *)

let kappa_props =
  [ prop "recorded kappa equals Measures.conflict recomputed" seed_arb
      (fun s ->
        with_provenance (fun () ->
          let a = gen_evidence s and b = gen_evidence (s + 1) in
          match M.combine_opt a b with
          | None -> true
          | Some (_, k) ->
              (* record_combine appends the Combine node last *)
              let n = P.node (P.count () - 1) in
              n.P.kind = P.Combine
              && n.P.kappa = Some k
              && Float.equal k (Dst.Measures.conflict a b))) ]

(* --- cache-hit lineage ----------------------------------------------- *)

let cache_props =
  [ prop "within one arena a cache hit adds nothing and keeps the node"
      seed_arb
      (fun s ->
        with_provenance (fun () ->
          let a = gen_evidence s and b = gen_evidence (s + 1) in
          let cache = Dst.Combine_cache.create () in
          let m1 = Dst.Combine_cache.combine cache a b in
          let id1 = P.find (M.digest m1) in
          let before = P.count () in
          let m2 = Dst.Combine_cache.combine cache a b in
          let id2 = P.find (M.digest m2) in
          Option.is_some id1 && id1 = id2 && P.count () = before));
    prop "warm-cache lineage is identical to the cold derivation" seed_arb
      (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        let cache = Dst.Combine_cache.create () in
        let leg () =
          with_provenance (fun () ->
            let m = Dst.Combine_cache.combine cache a b in
            match P.find (M.digest m) with
            | Some id -> Some (W.tree id)
            | None -> None)
        in
        let cold = leg () in
        (* same pair again: the cache is warm but the arena is fresh *)
        let warm = leg () in
        match (cold, warm) with
        | Some t1, Some t2 -> W.equal t1 t2
        | _ -> false) ]

(* --- policy-keyed cache ---------------------------------------------- *)

(* The cache key includes Rule.policy_key: the same operand pair under a
   different rule or κ-threshold is a different entry, never a cross-rule
   hit — and for every policy the warm-hit lineage (relink) must be
   indistinguishable from the cold derivation. *)

let policies_under_test =
  List.map Dst.Rule.make
    (Dst.Rule.all
    @ [ Dst.Rule.discount_then_combine 0.9;
        Dst.Rule.discount_then_combine 0.5 ])
  @ [ Dst.Rule.make
        ~escalation:
          (Dst.Rule.escalate ~kappa0:0.0 (Dst.Rule.Fallback Dst.Rule.Yager))
        Dst.Rule.Dempster ]

let outcome_equal o1 o2 =
  match (o1, o2) with
  | ( M.Combined { result = r1; kappa = k1; rule = u1; escalated = e1 },
      M.Combined { result = r2; kappa = k2; rule = u2; escalated = e2 } ) ->
      M.compare r1 r2 = 0 && Float.equal k1 k2 && Dst.Rule.equal u1 u2
      && e1 = e2
  | M.Quarantined { kappa = k1 }, M.Quarantined { kappa = k2 } ->
      Float.equal k1 k2
  | M.Conflicted, M.Conflicted -> true
  | _ -> false

let rule_cache_props =
  [ prop "a hit never crosses policies; within one it always hits"
      seed_arb
      (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        let cache = Dst.Combine_cache.create () in
        List.for_all
          (fun policy ->
            (* The pair is already cached under every previous policy;
               this policy must still start with a miss. *)
            let misses = Dst.Combine_cache.misses cache in
            let hits = Dst.Combine_cache.hits cache in
            let o1 = Dst.Combine_cache.combine_policy ~policy cache a b in
            let o2 = Dst.Combine_cache.combine_policy ~policy cache a b in
            Dst.Combine_cache.misses cache = misses + 1
            && Dst.Combine_cache.hits cache = hits + 1
            && outcome_equal o1 o2
            && outcome_equal o1 (M.combine_policy ~policy a b))
          policies_under_test);
    prop "warm-hit lineage = cold derivation for every policy" ~count:50
      seed_arb
      (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        List.for_all
          (fun policy ->
            let cache = Dst.Combine_cache.create () in
            let leg () =
              with_provenance (fun () ->
                match
                  Dst.Combine_cache.combine_policy ~policy cache a b
                with
                | M.Combined { result; _ } -> (
                    match P.find (M.digest result) with
                    | Some id -> Some (W.tree id)
                    | None -> None)
                | M.Quarantined _ | M.Conflicted -> None)
            in
            let cold = leg () in
            (* warm cache, fresh arena: the hit path relinks *)
            let warm = leg () in
            match (cold, warm) with
            | Some t1, Some t2 -> W.equal t1 t2
            | _ -> false)
          policies_under_test) ]

(* --- plan invariance ------------------------------------------------- *)

let ctx = Query.Physical.create_ctx ()

module Smap = Map.Make (String)

let evidence_lineage r =
  Erm.Relation.tuples r
  |> List.fold_left
       (fun acc t ->
         List.fold_left
           (fun acc c ->
             match c with
             | Erm.Etuple.Evidence e -> (
                 let d = M.digest e in
                 match P.find d with
                 | Some id -> Smap.add d (W.tree id) acc
                 | None -> acc)
             | Erm.Etuple.Definite _ -> acc)
           acc (Erm.Etuple.cells t))
       Smap.empty

let plan_props =
  [ prop "physical evidence lineage = naive evidence lineage" ~count:100
      seed_arb
      (fun s ->
        let env = Q.env (R.create s) () in
        let q = Q.query (R.create (s + 7919)) env in
        let naive =
          with_provenance (fun () ->
            evidence_lineage (Query.Eval.eval env q))
        in
        let physical =
          with_provenance (fun () ->
            evidence_lineage (Query.Physical.eval_fast ~ctx env q))
        in
        Smap.equal W.equal naive physical) ]

(* --- digest identity ---------------------------------------------------- *)

(* The Format-based renderers the digest pre-image was first defined
   with, kept verbatim as the oracle: printed digests (S007 prefixes,
   .why lookups by digest) depend on every byte. *)
module Oracle = struct
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

  let pp_value ppf = function
    | Dst.Value.Bool b -> Format.pp_print_bool ppf b
    | Dst.Value.Int n -> Format.pp_print_int ppf n
    | Dst.Value.Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Format.fprintf ppf "%.1f" f
        else Format.fprintf ppf "%g" f
    | Dst.Value.String s ->
        if is_bare_string s then Format.pp_print_string ppf s
        else Format.fprintf ppf "%S" s

  let pp_set ppf s =
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         pp_value)
      (Dst.Vset.to_list s)

  let pp_compact ppf s =
    match Dst.Vset.to_list s with [ v ] -> pp_value ppf v | _ -> pp_set ppf s

  let preimage m =
    let frame = M.frame m in
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Dst.Domain.name frame);
    Buffer.add_char buf '#';
    Buffer.add_string buf
      (string_of_int (Dst.Vset.cardinal (Dst.Domain.values frame)));
    List.iter
      (fun (set, x) ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (Format.asprintf "%a" pp_compact set);
        Buffer.add_char buf '^';
        Buffer.add_string buf (Printf.sprintf "%h" x))
      (M.focals m);
    Buffer.contents buf

  let digest m = Digest.to_hex (Digest.string (preimage m))
end

(* Values of every kind: long bare names (so sets render past the
   formatter margin), strings that need %S quoting, integer-valued and
   other floats, ints and bools. *)
let value_gen =
  let open QCheck.Gen in
  let bare =
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'z')
      (string_size ~gen:(oneofl [ 'a'; 'q'; 'Z'; '_'; '-'; '.'; '/'; '@'; '7' ])
         (0 -- 24))
  in
  let quoted =
    oneof
      [ string_size ~gen:char (0 -- 12);
        string_size ~gen:printable (0 -- 12);
        oneofl [ ""; "true"; "false"; "12"; "-x"; "a b"; "say \"hi\"" ] ]
  in
  let float =
    oneof
      [ map float_of_int small_signed_int;
        float;
        oneofl [ 0.5; -0.0; 1e15; -1e15; 2.5e20; 1e-7; Float.pi ] ]
  in
  frequency
    [ (4, map Dst.Value.string bare);
      (2, map Dst.Value.string quoted);
      (2, map Dst.Value.float float);
      (1, map Dst.Value.int int);
      (1, map Dst.Value.bool bool) ]

(* A frame of 1–12 such values and a mass function over it with up to 5
   focal sets of any size, Ω included. *)
let mass_gen =
  let open QCheck.Gen in
  let* name = oneofl [ "d"; "rating"; "a frame" ] in
  let* values = list_size (1 -- 12) value_gen in
  let frame = Dst.Domain.of_values name values in
  let pool = Dst.Vset.to_list (Dst.Domain.values frame) in
  let set_gen =
    map
      (fun keep ->
        match List.filteri (fun i _ -> List.nth keep i) pool with
        | [] -> Dst.Vset.singleton (List.hd pool)
        | vs -> Dst.Vset.of_list vs)
      (list_repeat (List.length pool) bool)
  in
  let+ focals =
    list_size (1 -- 5) (pair set_gen (float_range 0.01 1.0))
  in
  M.make_normalized frame focals

let mass_arb = QCheck.make ~print:Oracle.preimage mass_gen
let value_arb = QCheck.make ~print:(Format.asprintf "%a" Oracle.pp_value) value_gen

let digest_props =
  [ prop "Mass.F.digest = the Format-based digest" ~count:1000 mass_arb
      (fun m -> String.equal (M.digest m) (Oracle.digest m));
    prop "Vset.to_string_compact = asprintf of the Format-based printer"
      ~count:1000 mass_arb
      (fun m ->
        List.for_all
          (fun (set, _) ->
            let s = Dst.Vset.to_string_compact set in
            String.equal s (Format.asprintf "%a" Oracle.pp_compact set)
            && String.equal s (Format.asprintf "%a" Dst.Vset.pp_compact set))
          (M.focals m));
    prop "Value.to_string = asprintf of the Format-based printer" ~count:1000
      value_arb
      (fun v ->
        let s = Dst.Value.to_string v in
        String.equal s (Format.asprintf "%a" Oracle.pp_value v)
        && String.equal s (Format.asprintf "%a" Dst.Value.pp v)) ]

(* The formatter path is live: a set past the margin breaks its line
   inside the pre-image, and the digest still agrees. *)
let test_digest_past_margin () =
  let values =
    List.init 12 (fun i -> Dst.Value.string (Printf.sprintf "restaurant_%02d" i))
  in
  let frame = Dst.Domain.of_values "d" values in
  let m =
    M.make frame
      [ (Dst.Vset.of_list (List.filteri (fun i _ -> i < 9) values), 0.75);
        (Dst.Domain.values frame, 0.25) ]
  in
  Alcotest.(check bool)
    "oracle pre-image holds a line break" true
    (String.contains (Oracle.preimage m) '\n');
  Alcotest.(check string) "digest" (Oracle.digest m) (M.digest m)

(* --- exporter agreement ---------------------------------------------- *)

let count_substr hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.equal (String.sub hay i nn) needle then
      go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let record_fixture () =
  let ra, rb = G.source_pair (R.create 42) ~size:8 ~overlap:0.5 schema in
  Erm.Lineage.register_relation ~name:"ra" ra;
  Erm.Lineage.register_relation ~name:"rb" rb;
  ignore (Erm.Ops.union ra rb)

let test_export_counts () =
  with_provenance (fun () ->
    record_fixture ();
    let nodes = P.count () in
    let edges =
      List.fold_left
        (fun acc (n : P.node) -> acc + Array.length n.P.inputs)
        0 (P.nodes ())
    in
    Alcotest.(check bool) "fixture recorded nodes" true (nodes > 0);
    Alcotest.(check bool) "fixture recorded edges" true (edges > 0);
    let json = Obs.Export.provenance_json () in
    let dot = Obs.Export.provenance_dot () in
    Alcotest.(check int) "json node count" nodes
      (count_substr json "\"kind\":");
    let json_edges =
      (* "edges":[[0,2],[1,2]]: one inner '[' per edge *)
      match String.index_opt json ']' with
      | _ -> (
          let marker = "\"edges\":" in
          match count_substr json marker with
          | 1 ->
              let at =
                let rec find i =
                  if
                    String.equal
                      (String.sub json i (String.length marker))
                      marker
                  then i
                  else find (i + 1)
                in
                find 0
              in
              let tail =
                String.sub json at (String.length json - at)
              in
              count_substr tail "[" - 1
          | _ -> -1)
    in
    Alcotest.(check int) "json edge count" edges json_edges;
    Alcotest.(check int) "dot node count" nodes (count_substr dot "[shape=");
    Alcotest.(check int) "dot edge count" edges (count_substr dot " -> "))

let test_dot_structure () =
  with_provenance (fun () ->
    record_fixture ();
    let dot = Obs.Export.provenance_dot () in
    let lines =
      String.split_on_char '\n' dot |> List.filter (fun l -> l <> "")
    in
    (match lines with
    | first :: _ ->
        Alcotest.(check string) "header" "digraph provenance {" first
    | [] -> Alcotest.fail "empty dot");
    Alcotest.(check string) "closes" "}" (List.nth lines (List.length lines - 1));
    let declared = Hashtbl.create 64 in
    List.iter
      (fun line ->
        if starts_with "  n" line && count_substr line "[shape=" = 1 then
          let name =
            String.sub line 2 (String.index_from line 2 ' ' - 2)
          in
          Hashtbl.replace declared name ())
      lines;
    let undeclared_endpoint =
      List.exists
        (fun line ->
          match count_substr line " -> " with
          | 1 ->
              let line = String.trim line in
              let line =
                (* drop trailing ";" *)
                if String.length line > 0 && line.[String.length line - 1] = ';'
                then String.sub line 0 (String.length line - 1)
                else line
              in
              (match String.split_on_char ' ' line with
              | [ a; "->"; b ] ->
                  not (Hashtbl.mem declared a && Hashtbl.mem declared b)
              | _ -> true)
          | _ -> false)
        lines
    in
    Alcotest.(check bool) "every edge endpoint is declared" false
      undeclared_endpoint)

let unit_tests =
  [ Alcotest.test_case "DOT and JSON exporters agree on counts" `Quick
      test_export_counts;
    Alcotest.test_case "DOT output is structurally well-formed" `Quick
      test_dot_structure;
    Alcotest.test_case "a set past the formatter margin digests alike"
      `Quick test_digest_past_margin ]

let () =
  Alcotest.run "provenance"
    [ ("leaves", leaf_props);
      ("kappa", kappa_props);
      ("cache", cache_props);
      ("rule-cache", rule_cache_props);
      ("plans", plan_props);
      ("digest", digest_props);
      ("export", unit_tests) ]
