module type S = sig
  type num
  type t

  exception Invalid_mass of string
  exception Total_conflict
  exception Quarantined_cell of float
  exception Frame_mismatch of Domain.t * Domain.t

  type outcome =
    | Combined of { result : t; kappa : num; rule : Rule.t; escalated : bool }
    | Quarantined of { kappa : num }
    | Conflicted

  type violation =
    | Negative of num * Vset.t
    | Empty_focal of num
    | Outside_frame of { focal : Vset.t; outside : Vset.t }
    | Not_normalised of num

  val validate : Domain.t -> (Vset.t * num) list -> (t, violation) result
  val violation_message : Domain.t -> violation -> string
  val make : Domain.t -> (Vset.t * num) list -> t
  val make_normalized : Domain.t -> (Vset.t * num) list -> t
  val vacuous : Domain.t -> t
  val certain : Domain.t -> Value.t -> t
  val certain_set : Domain.t -> Vset.t -> t
  val simple_support : Domain.t -> Vset.t -> num -> t
  val bayesian : Domain.t -> (Value.t * num) list -> t
  val frame : t -> Domain.t
  val focals : t -> (Vset.t * num) list
  val focal_count : t -> int
  val mass : t -> Vset.t -> num
  val bel : t -> Vset.t -> num
  val pls : t -> Vset.t -> num
  val doubt : t -> Vset.t -> num
  val commonality : t -> Vset.t -> num
  val interval : t -> Vset.t -> num * num
  val ignorance : t -> Vset.t -> num
  val is_vacuous : t -> bool
  val is_bayesian : t -> bool
  val is_definite : t -> bool
  val definite_value : t -> Value.t option
  val is_consonant : t -> bool
  val conflict : t -> t -> num
  val combine : t -> t -> t
  val combine_opt : t -> t -> (t * num) option
  val combine_rule_opt :
    ?rule:Rule.t -> ?prov:(string * string) list -> t -> t -> (t * num) option
  val combine_policy : ?policy:Rule.policy -> t -> t -> outcome
  val combine_policy_exn : ?policy:Rule.policy -> t -> t -> t
  val relink : ?policy:Rule.policy -> t -> t -> outcome -> unit
  val combine_yager : t -> t -> t
  val combine_dubois_prade : t -> t -> t
  val combine_average : t -> t -> t
  val combine_disjunctive : t -> t -> t
  val combine_many : ?rule:Rule.t -> t list -> t
  val discount : float -> t -> t
  val condition : t -> Vset.t -> t
  val pignistic : t -> (Value.t * num) list
  val approximate : max_focals:int -> t -> t
  val max_bel : t -> Value.t
  val max_pls : t -> Value.t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
  val digest : t -> string
end

module Vmap = Map.Make (Vset)

module Make (N : Num.S) : S with type num = N.t = struct
  type num = N.t
  type t = { frame : Domain.t; focals : num Vmap.t }

  exception Invalid_mass of string
  exception Total_conflict
  exception Quarantined_cell of float
  exception Frame_mismatch of Domain.t * Domain.t

  type outcome =
    | Combined of { result : t; kappa : num; rule : Rule.t; escalated : bool }
    | Quarantined of { kappa : num }
    | Conflicted

  let num_lt a b = N.compare a b < 0
  let num_gt a b = N.compare a b > 0
  let is_zero x = N.equal x N.zero

  let sum_masses m = Vmap.fold (fun _ x acc -> N.add x acc) m N.zero

  type violation =
    | Negative of num * Vset.t
    | Empty_focal of num
    | Outside_frame of { focal : Vset.t; outside : Vset.t }
    | Not_normalised of num

  (* Raised by [collect] and [build]; [validate], [make] and
     [make_normalized] turn it into their own error channel, so the
     success path allocates no result. *)
  exception Violation of violation

  let violation_message frame = function
    | Negative (x, set) ->
        Format.asprintf "negative mass %a on %a" N.pp x Vset.pp set
    | Empty_focal x -> Format.asprintf "mass %a on the empty set" N.pp x
    | Outside_frame { focal; _ } ->
        Format.asprintf "focal element %a outside frame %s" Vset.pp focal
          (Domain.name frame)
    | Not_normalised total ->
        Format.asprintf "masses sum to %a, not 1" N.pp total

  let invalid frame v = raise (Invalid_mass (violation_message frame v))

  (* Shared validation: merge duplicates, drop zeros, check range. *)
  let collect frame entries =
    List.fold_left
      (fun acc (set, x) ->
        if num_lt x N.zero then raise (Violation (Negative (x, set)))
        else if is_zero x then acc
        else if Vset.is_empty set then raise (Violation (Empty_focal x))
        else if not (Domain.subset set frame) then
          let outside = Vset.filter (fun v -> not (Domain.mem v frame)) set in
          raise (Violation (Outside_frame { focal = set; outside }))
        else
          Vmap.update set
            (function None -> Some x | Some y -> Some (N.add x y))
            acc)
      Vmap.empty entries

  let build frame entries =
    let focals = collect frame entries in
    let total = sum_masses focals in
    if not (N.equal total N.one) then raise (Violation (Not_normalised total))
    else { frame; focals }

  let validate frame entries =
    match build frame entries with
    | m -> Ok m
    | exception Violation v -> Error v

  let make frame entries =
    try build frame entries with Violation v -> invalid frame v

  let make_normalized frame entries =
    let focals =
      try collect frame entries with Violation v -> invalid frame v
    in
    let total = sum_masses focals in
    if not (num_gt total N.zero) then
      raise (Invalid_mass "cannot normalize: total mass is zero")
    else { frame; focals = Vmap.map (fun x -> N.div x total) focals }

  let vacuous frame =
    { frame; focals = Vmap.singleton (Domain.values frame) N.one }

  let certain_set frame set = make frame [ (set, N.one) ]
  let certain frame v = certain_set frame (Vset.singleton v)

  let simple_support frame set w =
    make frame [ (set, w); (Domain.values frame, N.sub N.one w) ]

  let bayesian frame pairs =
    make frame (List.map (fun (v, x) -> (Vset.singleton v, x)) pairs)

  let frame m = m.frame
  let focals m = Vmap.bindings m.focals
  let focal_count m = Vmap.cardinal m.focals
  let mass m set = match Vmap.find_opt set m.focals with
    | Some x -> x
    | None -> N.zero

  let sum_where p m =
    Vmap.fold
      (fun set x acc -> if p set then N.add x acc else acc)
      m.focals N.zero

  let bel m a = sum_where (fun x -> Vset.subset x a) m
  let pls m a = sum_where (fun x -> not (Vset.disjoint x a)) m
  let doubt m a = bel m (Vset.diff (Domain.values m.frame) a)
  let commonality m a = sum_where (fun x -> Vset.subset a x) m
  let interval m a = (bel m a, pls m a)
  let ignorance m a = N.sub (pls m a) (bel m a)

  let is_vacuous m =
    Vmap.cardinal m.focals = 1
    && Vmap.mem (Domain.values m.frame) m.focals

  let is_bayesian m =
    Vmap.for_all (fun set _ -> Vset.cardinal set = 1) m.focals

  let is_definite m =
    Vmap.cardinal m.focals = 1 && is_bayesian m

  let definite_value m =
    if is_definite m then
      match Vmap.min_binding_opt m.focals with
      | Some (set, _) -> Some (Vset.choose set)
      | None -> None
    else None

  let is_consonant m =
    let sets = List.map fst (Vmap.bindings m.focals) in
    let by_size =
      List.sort (fun a b -> compare (Vset.cardinal a) (Vset.cardinal b)) sets
    in
    let rec chained = function
      | a :: (b :: _ as rest) -> Vset.subset a b && chained rest
      | [ _ ] | [] -> true
    in
    chained by_size

  let pp ppf m =
    let omega = Domain.values m.frame in
    let pp_focal ppf (set, x) =
      if Vset.equal set omega then Format.fprintf ppf "~^%a" N.pp x
      else Format.fprintf ppf "%a^%a" Vset.pp_compact set N.pp x
    in
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_focal)
      (Vmap.bindings m.focals)

  let to_string m = Format.asprintf "%a" pp m

  (* Canonical digest: frame name, then the ordered focal assignment
     with hex-float masses ([%h] is lossless for the float instance).
     Bit-identical values digest equally, which is what gives every
     distinct evidence value a single provenance identity. Each focal
     set renders as [Format.asprintf "%a" Vset.pp_compact] would, so
     the pre-image (and every digest already printed) is unchanged. *)
  let digest m =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Domain.name m.frame);
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int (Vset.cardinal (Domain.values m.frame)));
    Vmap.iter
      (fun set x ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (Vset.to_string_compact set);
        Buffer.add_char buf '^';
        Printf.bprintf buf "%h" (N.to_float x))
      m.focals;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Node labels render only when a reader (.why, an export, the audit)
     asks: mass functions are immutable, so the thunk sees the value the
     node was recorded for. *)
  let label m = lazy (to_string m)

  (* Provenance hook shared by direct combination and the cache's miss
     path: operands resolve to their registered derivations (or fresh
     leaves when their history predates provenance being enabled), the
     step records κ, the normalization factor and the rule that ran
     (plus any escalation annotations in [prov]), and the result's
     digest is bound to the new node. Only Dempster (and the Dempster
     leg of discount-then-combine) normalizes, so [norm] is 1 - κ for
     it and 1 for every other rule. *)
  let record_combine ?(rule = "dempster") ?(prov = [])
      ?(norm = fun k -> 1.0 -. k) m1 m2 result =
    let operand m =
      Obs.Provenance.find_or_leaf (digest m) ~label:(label m)
    in
    let i1 = operand m1 in
    let i2 = operand m2 in
    match result with
    | Some (res, kappa) ->
        let k = N.to_float kappa in
        let id =
          Obs.Provenance.add Obs.Provenance.Combine (label res) ~kappa:k
            ~norm:(norm k)
            ~args:(("rule", rule) :: prov)
            ~inputs:[ i1; i2 ]
        in
        Obs.Provenance.register (digest res) id
    | None ->
        ignore
          (Obs.Provenance.add Obs.Provenance.Combine (lazy "(total conflict)")
             ~kappa:1.0 ~norm:0.0
             ~args:(("rule", rule) :: prov)
             ~inputs:[ i1; i2 ])

  let check_frames m1 m2 =
    if not (Domain.equal m1.frame m2.frame) then
      raise (Frame_mismatch (m1.frame, m2.frame))

  (* Conjunctive cross product: feed every pair (X ∩ Y, m1(X)·m2(Y)) to
     [emit]; pairs with empty intersection go to [emit_conflict]. *)
  let cross m1 m2 ~emit ~emit_conflict =
    Vmap.iter
      (fun x mx ->
        Vmap.iter
          (fun y my ->
            let product = N.mul mx my in
            let z = Vset.inter x y in
            if Vset.is_empty z then emit_conflict x y product
            else emit z product)
          m2.focals)
      m1.focals

  let conflict m1 m2 =
    check_frames m1 m2;
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun _ _ -> ())
      ~emit_conflict:(fun _ _ p -> kappa := N.add !kappa p);
    !kappa

  let accumulate table set p =
    table :=
      Vmap.update set
        (function None -> Some p | Some q -> Some (N.add p q))
        !table

  (* Every kernel below emits the shared dst.combine.calls /
     conflict_kappa metrics itself; rule-counter bumps and provenance
     happen once, in [combine_rule_opt]. *)
  let note_call kappa =
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr "dst.combine.calls";
      Obs.Metrics.observe "dst.combine.conflict_kappa" (N.to_float kappa)
    end

  let dempster_raw m1 m2 =
    check_frames m1 m2;
    let table = ref Vmap.empty in
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun set p -> accumulate table set p)
      ~emit_conflict:(fun _ _ p -> kappa := N.add !kappa p);
    note_call !kappa;
    if Vmap.is_empty !table then begin
      Obs.Metrics.incr "dst.combine.total_conflict";
      None
    end
    else
      let norm = N.sub N.one !kappa in
      (* Guard against float drift making norm ≤ 0 while some non-empty
         product survived (cannot happen with exact arithmetic). *)
      if N.compare norm N.zero <= 0 then begin
        Obs.Metrics.incr "dst.combine.total_conflict";
        None
      end
      else
        Some
          ( { frame = m1.frame;
              focals = Vmap.map (fun x -> N.div x norm) !table },
            !kappa )

  let yager_raw m1 m2 =
    check_frames m1 m2;
    let table = ref Vmap.empty in
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun set p -> accumulate table set p)
      ~emit_conflict:(fun _ _ p -> kappa := N.add !kappa p);
    note_call !kappa;
    (* Exact zero test, not the tolerance of [N.equal]: any conflict
       mass at all moves to Ω (keeping Σm = 1 exactly). *)
    if N.compare !kappa N.zero <> 0 then
      accumulate table (Domain.values m1.frame) !kappa;
    ({ frame = m1.frame; focals = !table }, !kappa)

  let dubois_prade_raw m1 m2 =
    check_frames m1 m2;
    let table = ref Vmap.empty in
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun set p -> accumulate table set p)
      ~emit_conflict:(fun x y p ->
        kappa := N.add !kappa p;
        accumulate table (Vset.union x y) p);
    note_call !kappa;
    ({ frame = m1.frame; focals = !table }, !kappa)

  let average_raw m1 m2 =
    check_frames m1 m2;
    (* κ is reported for observability (the escalation policy measures
       it independently); averaging itself neither resolves nor
       redistributes it. *)
    let kappa = conflict m1 m2 in
    note_call kappa;
    let half = N.div N.one (N.add N.one N.one) in
    let halved m = Vmap.map (fun x -> N.mul half x) m.focals in
    let merged =
      Vmap.union (fun _ a b -> Some (N.add a b)) (halved m1) (halved m2)
    in
    ({ frame = m1.frame; focals = merged }, kappa)

  let combine_yager m1 m2 = fst (yager_raw m1 m2)
  let combine_dubois_prade m1 m2 = fst (dubois_prade_raw m1 m2)
  let combine_average m1 m2 = fst (average_raw m1 m2)

  let combine_disjunctive m1 m2 =
    check_frames m1 m2;
    let table = ref Vmap.empty in
    Vmap.iter
      (fun x mx ->
        Vmap.iter
          (fun y my -> accumulate table (Vset.union x y) (N.mul mx my))
          m2.focals)
      m1.focals;
    { frame = m1.frame; focals = !table }

  let discount alpha m =
    if alpha < 0.0 || alpha > 1.0 then
      invalid_arg "Mass.discount: reliability outside [0,1]"
    else begin
      let a = N.of_float alpha in
      let omega = Domain.values m.frame in
      let scaled =
        Vmap.fold
          (fun set x acc -> (set, N.mul a x) :: acc)
          m.focals
          [ (omega, N.sub N.one a) ]
      in
      (* [make] merges the Ω entries and drops zeros. *)
      let result = make m.frame scaled in
      if Obs.Provenance.on () && alpha < 1.0 then begin
        let src =
          Obs.Provenance.find_or_leaf (digest m) ~label:(label m)
        in
        let id =
          Obs.Provenance.add Obs.Provenance.Discount (label result)
            ~alpha ~inputs:[ src ]
        in
        Obs.Provenance.register (digest result) id
      end;
      result
    end

  (* --- rule dispatch and the escalation policy ----------------------- *)

  let combine_rule_opt ?(rule = Rule.Dempster) ?(prov = []) m1 m2 =
    if Obs.Metrics.on () then Obs.Metrics.incr (Rule.metric rule);
    match rule with
    | Rule.Dempster ->
        let r = dempster_raw m1 m2 in
        if Obs.Provenance.on () then record_combine ~prov m1 m2 r;
        r
    | Rule.Yager ->
        let res, kappa = yager_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"yager" ~prov ~norm:(fun _ -> 1.0) m1 m2 r;
        r
    | Rule.Dubois_prade ->
        let res, kappa = dubois_prade_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"dubois-prade" ~prov
            ~norm:(fun _ -> 1.0)
            m1 m2 r;
        r
    | Rule.Averaging ->
        let res, kappa = average_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"averaging" ~prov ~norm:(fun _ -> 1.0) m1 m2 r;
        r
    | Rule.Discount_then_combine alpha ->
        (* Discounting both operands puts at least (1-α)² of joint mass
           on Ω ∩ Ω, so for α < 1 the Dempster leg cannot totally
           conflict. The Discount provenance nodes record themselves;
           the Combine node names the composite rule and takes the
           discounted operands as inputs, so `.why` shows the full
           derivation. *)
        let d1 = discount alpha m1 and d2 = discount alpha m2 in
        let r = dempster_raw d1 d2 in
        if Obs.Provenance.on () then
          record_combine ~rule:(Rule.to_string rule) ~prov d1 d2 r;
        r

  let combine_opt m1 m2 = combine_rule_opt m1 m2

  let combine m1 m2 =
    match combine_opt m1 m2 with
    | Some (m, _) -> m
    | None -> raise Total_conflict

  let escalation_prov primary (e : Rule.escalation) =
    [ ("escalated_from", Rule.to_string primary);
      ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ]

  let record_quarantine ~primary ~(e : Rule.escalation) ~kappa m1 m2 =
    let operand m =
      Obs.Provenance.find_or_leaf (digest m) ~label:(label m)
    in
    let i1 = operand m1 in
    let i2 = operand m2 in
    ignore
      (Obs.Provenance.add Obs.Provenance.Combine (lazy "(quarantined)")
         ~kappa:(N.to_float kappa) ~norm:0.0
         ~args:
           (("rule", Rule.to_string primary)
           :: ("escalation", "quarantine")
           :: [ ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ])
         ~inputs:[ i1; i2 ])

  let combine_policy ?policy m1 m2 =
    let policy =
      match policy with Some p -> p | None -> Rule.current ()
    in
    let primary = policy.Rule.primary in
    let finish ~escalated rule = function
      | Some (result, kappa) -> Combined { result; kappa; rule; escalated }
      | None -> Conflicted
    in
    match policy.Rule.escalation with
    | None ->
        finish ~escalated:false primary
          (combine_rule_opt ~rule:primary ~prov:[] m1 m2)
    | Some e ->
        (* The threshold tests the operands' conjunctive conflict — the
           same κ Dempster would normalize away — regardless of which
           primary rule is configured, so switching primaries never
           moves the escalation boundary. Fires at κ = κ₀ exactly. *)
        let kappa = conflict m1 m2 in
        if N.to_float kappa < e.Rule.kappa0 then
          finish ~escalated:false primary
            (combine_rule_opt ~rule:primary ~prov:[] m1 m2)
        else begin
          if Obs.Metrics.on () then
            Obs.Metrics.incr "dst.combine.escalations";
          if Obs.Log.on () then
            Obs.Log.record ~severity:Obs.Log.Warn
              ~fields:
                [ ("rule", Rule.to_string primary);
                  ("kappa", Printf.sprintf "%g" (N.to_float kappa));
                  ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ]
              Obs.Log.Escalation "combination kappa crossed the threshold";
          match e.Rule.fallback with
          | Rule.Quarantine ->
              if Obs.Provenance.on () then
                record_quarantine ~primary ~e ~kappa m1 m2;
              if Obs.Log.on () then
                Obs.Log.record ~severity:Obs.Log.Error
                  ~fields:
                    [ ("rule", Rule.to_string primary);
                      ("kappa", Printf.sprintf "%g" (N.to_float kappa)) ]
                  Obs.Log.Quarantine "escalated combination quarantined";
              Quarantined { kappa }
          | Rule.Fallback fb ->
              finish ~escalated:true fb
                (combine_rule_opt ~rule:fb ~prov:(escalation_prov primary e)
                   m1 m2)
        end

  let combine_policy_exn ?policy m1 m2 =
    match combine_policy ?policy m1 m2 with
    | Combined { result; _ } -> result
    | Conflicted -> raise Total_conflict
    | Quarantined { kappa } -> raise (Quarantined_cell (N.to_float kappa))

  (* Cache-hit lineage reconstruction: rebuild exactly the node the
     cold miss recorded, but only when the cache outlived the arena
     (within one arena the digest is already bound and this adds
     nothing). Quarantined and Conflicted outcomes bind no digest, so
     there is nothing to relink. *)
  let relink ?policy m1 m2 outcome =
    let policy =
      match policy with Some p -> p | None -> Rule.current ()
    in
    match outcome with
    | Quarantined _ | Conflicted -> ()
    | Combined { result; kappa; rule; escalated } -> (
        match Obs.Provenance.find (digest result) with
        | Some _ -> ()
        | None ->
            let prov =
              if escalated then
                match policy.Rule.escalation with
                | Some e -> escalation_prov policy.Rule.primary e
                | None -> []
              else []
            in
            let record ~norm a b =
              record_combine ~rule:(Rule.to_string rule) ~prov ~norm a b
                (Some (result, kappa))
            in
            (match rule with
            | Rule.Dempster -> record ~norm:(fun k -> 1.0 -. k) m1 m2
            | Rule.Discount_then_combine alpha ->
                (* The cold path combined the discounted operands (their
                   Discount nodes re-record here), so the rebuilt node
                   has the same inputs move for move. *)
                let d1 = discount alpha m1 and d2 = discount alpha m2 in
                record ~norm:(fun k -> 1.0 -. k) d1 d2
            | Rule.Yager | Rule.Dubois_prade | Rule.Averaging ->
                record ~norm:(fun _ -> 1.0) m1 m2))

  let combine_many ?(rule = Rule.Dempster) ms =
    match ms with
    | [] -> raise (Invalid_mass "combine_many: empty list")
    | m :: rest -> (
        match rule with
        | Rule.Averaging ->
            (* The n-ary mixture (weight 1/n each), NOT the left fold of
               pairwise averaging — that fold would weight source i by
               2^-(n-i) because averaging is not associative. *)
            List.iter (check_frames m) rest;
            let n = N.of_float (float_of_int (List.length ms)) in
            let entries =
              List.concat_map
                (fun m ->
                  List.map (fun (s, x) -> (s, N.div x n)) (focals m))
                ms
            in
            make m.frame entries
        | _ ->
            List.fold_left
              (fun acc m ->
                match combine_rule_opt ~rule acc m with
                | Some (r, _) -> r
                | None -> raise Total_conflict)
              m rest)

  let condition m set = combine m (certain_set m.frame set)

  let pignistic m =
    let table = Hashtbl.create 16 in
    Vmap.iter
      (fun set x ->
        let share = N.div x (N.of_float (float_of_int (Vset.cardinal set))) in
        Vset.iter
          (fun v ->
            let cur =
              match Hashtbl.find_opt table v with Some c -> c | None -> N.zero
            in
            Hashtbl.replace table v (N.add cur share))
          set)
      m.focals;
    Hashtbl.fold (fun v x acc -> (v, x) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> Value.compare a b)

  let approximate ~max_focals m =
    if max_focals < 1 then invalid_arg "Mass.approximate: max_focals < 1"
    else if Vmap.cardinal m.focals <= max_focals then m
    else begin
      let omega = Domain.values m.frame in
      (* Ω never counts against the budget: dropped mass lands there. *)
      let by_mass =
        Vmap.bindings m.focals
        |> List.filter (fun (set, _) -> not (Vset.equal set omega))
        |> List.sort (fun (_, a) (_, b) -> N.compare b a)
      in
      let keep_count = max_focals - 1 in
      let rec split i kept = function
        | [] -> (kept, N.zero)
        | (set, x) :: rest ->
            if i < keep_count then split (i + 1) ((set, x) :: kept) rest
            else
              ( kept,
                List.fold_left (fun acc (_, y) -> N.add acc y) x rest )
      in
      let kept, dropped = split 0 [] by_mass in
      let omega_mass = N.add (mass m omega) dropped in
      make m.frame ((omega, omega_mass) :: kept)
    end

  let best_by measure m =
    let omega = Domain.values m.frame in
    let best =
      Vset.fold
        (fun v acc ->
          let score = measure m (Vset.singleton v) in
          match acc with
          | Some (_, s) when N.compare s score >= 0 -> acc
          | _ -> Some (v, score))
        omega None
    in
    match best with
    | Some (v, _) -> v
    | None -> raise (Invalid_mass "empty frame")

  let max_bel m = best_by bel m
  let max_pls m = best_by pls m

  let equal m1 m2 =
    Domain.equal m1.frame m2.frame
    && Vmap.cardinal m1.focals = Vmap.cardinal m2.focals
    && Vmap.for_all
         (fun set x -> N.equal x (mass m2 set))
         m1.focals

  (* A total order consistent with structural identity (exact masses, not
     the tolerance of [equal]) so mass functions can key maps — the
     combination memo-cache relies on it. *)
  let compare m1 m2 =
    let c = Domain.compare m1.frame m2.frame in
    if c <> 0 then c else Vmap.compare N.compare m1.focals m2.focals

end

module F = Make (Num.Float)
