type tree = { root : Provenance.node; children : tree list; shared : bool }

let tree ?store id =
  let expanded = Hashtbl.create 16 in
  let rec unfold id =
    let n = Provenance.node ?store id in
    if Hashtbl.mem expanded id then { root = n; children = []; shared = true }
    else begin
      Hashtbl.add expanded id ();
      let children =
        Array.to_list (Array.map unfold n.Provenance.inputs)
      in
      { root = n; children; shared = false }
    end
  in
  unfold id

let decoration (n : Provenance.node) =
  let opt name = function
    | Some v -> [ Printf.sprintf "%s=%.6g" name v ]
    | None -> []
  in
  let parts =
    opt "\xce\xba" n.kappa (* κ *)
    @ opt "norm" n.norm
    @ opt "\xce\xb1" n.alpha (* α *)
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) n.args
  in
  match parts with
  | [] -> ""
  | _ -> " (" ^ String.concat ", " parts ^ ")"

let pp ppf t =
  let rec go indent t =
    let n = t.root in
    Format.fprintf ppf "%s#%d %s %s%s%s@," indent n.Provenance.id
      (Provenance.kind_name n.Provenance.kind)
      (Provenance.label n) (decoration n)
      (if t.shared then " [shared, expanded above]" else "");
    List.iter (go (indent ^ "  ")) t.children
  in
  Format.fprintf ppf "@[<v>";
  go "" t;
  Format.fprintf ppf "@]"

let render ?store id = Format.asprintf "%a" pp (tree ?store id)

let rec equal a b =
  let n1 = a.root and n2 = b.root in
  n1.Provenance.kind = n2.Provenance.kind
  && String.equal (Provenance.label n1) (Provenance.label n2)
  && n1.Provenance.kappa = n2.Provenance.kappa
  && n1.Provenance.norm = n2.Provenance.norm
  && n1.Provenance.alpha = n2.Provenance.alpha
  && n1.Provenance.args = n2.Provenance.args
  && a.shared = b.shared
  && List.length a.children = List.length b.children
  && List.for_all2 equal a.children b.children

let kappa_steps t =
  let seen = Hashtbl.create 16 in
  let sum = ref 0.0 and count = ref 0 in
  let rec go t =
    let n = t.root in
    if not (Hashtbl.mem seen n.Provenance.id) then begin
      Hashtbl.add seen n.Provenance.id ();
      (match (n.Provenance.kind, n.Provenance.kappa) with
      | Provenance.Combine, Some k
        when List.mem_assoc "rule" n.Provenance.args
             && String.equal (List.assoc "rule" n.Provenance.args) "dempster"
        ->
          sum := !sum +. k;
          incr count
      | _ -> ());
      List.iter go t.children
    end
  in
  go t;
  (!sum, !count)
