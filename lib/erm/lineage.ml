module P = Obs.Provenance

let key_string t =
  String.concat "," (List.map Dst.Value.to_string (Etuple.key t))

let tm_digest t =
  let tm = Etuple.tm t in
  Printf.sprintf "tm|%s|%h|%h" (key_string t) (Dst.Support.sn tm)
    (Dst.Support.sp tm)

let tm_label t =
  Printf.sprintf "tm(%s) = %s" (key_string t)
    (Dst.Support.to_string (Etuple.tm t))

(* Node labels are thunks over immutable tuples and values: only a
   reader of the arena (.why, an export, the audit) renders them. *)
let tm_node t = P.find_or_leaf (tm_digest t) ~label:(lazy (tm_label t))

let evidence_node e =
  P.find_or_leaf (Dst.Mass.F.digest e) ~label:(lazy (Dst.Mass.F.to_string e))

let register_relation ~name r =
  let nonkey = Schema.nonkey (Relation.schema r) in
  Relation.fold
    (fun t () ->
      let key = key_string t in
      List.iter2
        (fun attr cell ->
          match cell with
          | Etuple.Evidence e ->
              let d = Dst.Mass.F.digest e in
              if P.find d = None then
                P.register d
                  (P.add P.Source
                     (lazy
                       (Printf.sprintf "%s(%s).%s = %s" name key
                          (Attr.name attr) (Dst.Mass.F.to_string e))))
          | Etuple.Definite _ -> ())
        nonkey (Etuple.cells t);
      let d = tm_digest t in
      if P.find d = None then
        P.register d
          (P.add P.Source
             (lazy
               (Printf.sprintf "%s(%s).tm = %s" name key
                  (Dst.Support.to_string (Etuple.tm t))))))
    r ()

let cell_nodes t =
  List.filter_map
    (function
      | Etuple.Evidence e -> Some (evidence_node e)
      | Etuple.Definite _ -> None)
    (Etuple.cells t)

let record_merge x y merged =
  let ev_inputs = cell_nodes merged in
  let tm_id =
    match P.find (tm_digest merged) with
    | Some id -> id (* bit-identical membership already derived *)
    | None ->
        let km = Dst.Support.conflict (Etuple.tm x) (Etuple.tm y) in
        let ix = tm_node x in
        let iy = tm_node y in
        let id =
          P.add P.Combine (lazy (tm_label merged)) ~kappa:km ~norm:(1.0 -. km)
            ~args:[ ("rule", "support") ]
            ~inputs:[ ix; iy ]
        in
        P.register (tm_digest merged) id;
        id
  in
  ignore
    (P.add P.Merge
       (lazy ("merge " ^ key_string merged))
       ~inputs:(ev_inputs @ [ tm_id ]))

let record_support ~label ~support ~inputs out =
  if P.find (tm_digest out) = None then begin
    let input_ids =
      List.concat_map (fun t -> tm_node t :: cell_nodes t) inputs
    in
    let id =
      P.add P.Support
        (lazy (Printf.sprintf "%s %s" label (tm_label out)))
        ~args:
          [ ("sn", Printf.sprintf "%.6g" (Dst.Support.sn support));
            ("sp", Printf.sprintf "%.6g" (Dst.Support.sp support)) ]
        ~inputs:input_ids
    in
    P.register (tm_digest out) id
  end

let record_discount ~alpha original discounted =
  Relation.fold
    (fun t () ->
      match Relation.find_opt original (Etuple.key t) with
      | None -> ()
      | Some orig ->
          if
            (not (Dst.Support.equal (Etuple.tm orig) (Etuple.tm t)))
            && P.find (tm_digest t) = None
          then begin
            let src = tm_node orig in
            let id = P.add P.Discount (lazy (tm_label t)) ~alpha ~inputs:[ src ] in
            P.register (tm_digest t) id
          end)
    discounted ()
