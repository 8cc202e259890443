type kind = Source | Operand | Combine | Discount | Support | Merge | Step

type node = {
  id : int;
  kind : kind;
  label : string Lazy.t;
  kappa : float option;
  norm : float option;
  alpha : float option;
  args : (string * string) list;
  inputs : int array;
}

type t = {
  mutable arr : node array;
  mutable len : int;
  index : (string, int) Hashtbl.t;
  mutable live : bool;
}

let dummy =
  { id = -1;
    kind = Operand;
    label = lazy "";
    kappa = None;
    norm = None;
    alpha = None;
    args = [];
    inputs = [||] }

let create () =
  { arr = Array.make 64 dummy; len = 0; index = Hashtbl.create 64; live = true }

let default =
  { arr = Array.make 64 dummy; len = 0; index = Hashtbl.create 64; live = false }

(* Bumped whenever the default arena may lose bindings or miss
   derivations: a reset empties it, and a disabled stretch records
   nothing. Callers that skip re-registering values they registered
   before compare against it. *)
let gen = Atomic.make 0
let generation () = Atomic.get gen
let on () = default.live

let enable () =
  default.live <- true;
  Atomic.incr gen

let disable () =
  default.live <- false;
  Atomic.incr gen

let reset ?(store = default) () =
  Atomic.incr gen;
  store.arr <- Array.make 64 dummy;
  store.len <- 0;
  Hashtbl.reset store.index

let count ?(store = default) () = store.len

let grow store =
  if store.len = Array.length store.arr then begin
    let bigger = Array.make (2 * Array.length store.arr) dummy in
    Array.blit store.arr 0 bigger 0 store.len;
    store.arr <- bigger
  end

let add ?(store = default) ?kappa ?norm ?alpha ?(args = []) ?(inputs = [])
    kind label =
  if not store.live then -1
  else begin
    let id = store.len in
    List.iter
      (fun i ->
        if i < 0 || i >= id then
          invalid_arg
            (Printf.sprintf
               "Obs.Provenance.add: input %d is not an earlier node of %d" i id))
      inputs;
    grow store;
    store.arr.(id) <-
      { id; kind; label; kappa; norm; alpha; args;
        inputs = Array.of_list inputs };
    store.len <- id + 1;
    id
  end

let node ?(store = default) id =
  if id < 0 || id >= store.len then
    invalid_arg (Printf.sprintf "Obs.Provenance.node: no node %d" id)
  else store.arr.(id)

let nodes ?(store = default) () =
  List.init store.len (fun i -> store.arr.(i))

let register ?(store = default) digest id =
  if store.live && not (Hashtbl.mem store.index digest) then
    Hashtbl.add store.index digest id

let find ?(store = default) digest = Hashtbl.find_opt store.index digest
let label (n : node) = Lazy.force n.label

let find_or_leaf ?(store = default) ?(kind = Operand) digest ~label =
  if not store.live then -1
  else
    match Hashtbl.find_opt store.index digest with
    | Some id -> id
    | None ->
        let id = add ~store kind label in
        Hashtbl.add store.index digest id;
        id

(* Inputs always reference earlier ids, so one forward pass suffices. *)
let max_depth ?(store = default) () =
  if store.len = 0 then 0
  else begin
    let depth = Array.make store.len 0 in
    let deepest = ref 0 in
    for i = 0 to store.len - 1 do
      let d =
        Array.fold_left
          (fun acc j -> if depth.(j) + 1 > acc then depth.(j) + 1 else acc)
          0 store.arr.(i).inputs
      in
      depth.(i) <- d;
      if d > !deepest then deepest := d
    done;
    !deepest
  end

let leaves ?(store = default) id =
  let root = node ~store id in
  let seen = Hashtbl.create 16 in
  let found = ref [] in
  let rec walk n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      if Array.length n.inputs = 0 then found := n :: !found
      else Array.iter (fun i -> walk store.arr.(i)) n.inputs
    end
  in
  walk root;
  List.sort (fun a b -> compare a.id b.id) !found

let kind_name = function
  | Source -> "source"
  | Operand -> "operand"
  | Combine -> "combine"
  | Discount -> "discount"
  | Support -> "support"
  | Merge -> "merge"
  | Step -> "step"

let publish ?(store = default) () =
  Metrics.gauge "provenance.nodes" (float_of_int store.len);
  Metrics.gauge "provenance.max_depth" (float_of_int (max_depth ~store ()))
