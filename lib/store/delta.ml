module M = Integration.Multi

type outcome = {
  relation : Erm.Relation.t;
  conflicts : Erm.Ops.conflict list;
  upserts : int;
  deletes : int;
  version : int;
}

(* Fold one source update into the stored merged relation in O(changed
   entities) — Dempster's rule is associative, so absorbing the delta
   into the stored merge equals re-integrating every source from
   scratch with the delta appended (bit-exact; the conformance suite's
   sixth leg). The stored relation registers as a provenance source
   under the store's name so .why resolves delta derivations to it.

   It registers once per provenance generation, not once per delta:
   after the absorb, every digest of the new stored relation is bound
   already (merged cells by the combine hooks, merged supports by
   [Lineage.record_merge], new keys by the delta's own registration in
   [absorb_delta]), and bindings last until the generation moves. So a
   walk here would add no node, and the arena is the one a walk on
   every delta builds. *)
let apply t ~name delta =
  let body () =
    let lineage = Obs.Provenance.on () in
    if lineage && Estore.lineage_mark t <> Obs.Provenance.generation () then
      Erm.Lineage.register_relation ~name:(Estore.name t) (Estore.relation t);
    let merged, conflicts, changes =
      M.absorb_delta ~into:(Estore.relation t)
        { M.source_name = name; source_relation = delta }
    in
    let records =
      List.map
        (function
          | M.Changed tu ->
              Segment.Upsert
                {
                  digest = Segment.digest_of_tuple tu;
                  row = Erm.Io.tuple_to_string tu;
                }
          | M.Dropped old ->
              Segment.Delete { digest = Segment.digest_of_tuple old })
        changes
    in
    let upserts =
      List.length (List.filter (function M.Changed _ -> true | _ -> false) changes)
    in
    let deletes = List.length changes - upserts in
    if records <> [] then Estore.append_commit t records merged;
    if lineage then Estore.set_lineage_mark t (Obs.Provenance.generation ());
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr ~by:upserts "store.delta.upserts";
      Obs.Metrics.incr ~by:deletes "store.delta.deletes";
      Obs.Metrics.incr ~by:(List.length conflicts) "store.delta.conflicts"
    end;
    { relation = merged; conflicts; upserts; deletes;
      version = Estore.version t }
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"store"
      ~args:[ ("source", name) ]
      "store.delta" body
  else body ()
