(* Timing, machine-speed calibration, sample statistics, operation
   accounting and GC deltas shared by every workload. *)

let now = Unix.gettimeofday
let ms_between t0 t1 = (t1 -. t0) *. 1000.

(* --- sample statistics ------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* --- operation accounting ---------------------------------------- *)

exception Check_failed of string

let check what ok = if not ok then raise (Check_failed what)

type gc_delta = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_collections : int;
}

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first, capped *)
  mutable gc : gc_delta option;
      (** accumulated around timed calls while set *)
}

let create () = { attempted = 0; failed = 0; failures = []; gc = None }

let gc_totals () = { minor_words = 0.0; major_words = 0.0; major_collections = 0 }

let record_failure t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 20 then t.failures <- msg :: t.failures

(* One attempted operation: an exception or a failed output check counts
   it as failed; the run goes on with the next operation. *)
let op t name f =
  t.attempted <- t.attempted + 1;
  match f () with
  | () -> ()
  | exception Check_failed what -> record_failure t (name ^ ": " ^ what)
  | exception e -> record_failure t (name ^ ": " ^ Printexc.to_string e)

(* --- machine-speed calibration ------------------------------------ *)

module Imap = Map.Make (Int)

(* A fixed unit of allocation-heavy work (map inserts and a fold), timed
   just before and after each measured call. The ratio of a call's time
   to the recent calibration time cancels the host's speed swings that
   last longer than one call. *)
let calibration_work () =
  let m = ref Imap.empty in
  for i = 0 to 3999 do
    m := Imap.add ((i * 7919) land 8191) i !m
  done;
  Imap.fold (fun _ v acc -> acc + v) !m 0

let samples = ref [] (* newest first *)
let sample_count = ref 0

(* The domains the measured calls run on. With more than one, each
   sample times the loop on that many domains at once and takes the
   mean, so a slow second core shows in the calibration as it does in
   the calls. *)
let calibration_domains = ref 1

let time_work () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calibration_work ()));
  ms_between t0 (now ())

let calibrate () =
  let d = !calibration_domains in
  let ms =
    if d <= 1 then time_work ()
    else
      Array.fold_left ( +. ) 0.0
        (Exec.Pool.run ~domains:d ~tasks:d (fun _ -> time_work ()))
      /. float_of_int d
  in
  samples := ms :: !samples;
  incr sample_count

(* The median calibration time since [mark ()] returned [m], or over the
   last nine samples. *)
let mark () = !sample_count

let calibration_ms ?since () =
  let n = match since with Some m -> !sample_count - m | None -> 9 in
  median (List.filteri (fun i _ -> i < n) !samples)

(* A measured call: its wall time, and the same time in calibration
   units ([cal]) — the wall time divided by the median of the recent
   calibration times, which include one taken just before and one just
   after the call. *)
type sample = { ms : float; cal : float }

let ms xs = List.map (fun x -> x.ms) xs
let cal xs = List.map (fun x -> x.cal) xs

(* A span of several measured calls (a query block, an integrate cycle):
   their summed wall time, normalised by the median of every calibration
   sample taken since [mark], which tracks the host's speed over the
   whole span far better than any single call's samples. *)
let span_sample ~mark parts =
  let total = List.fold_left (fun acc x -> acc +. x.ms) 0.0 parts in
  { ms = total; cal = total /. calibration_ms ~since:mark () }

(* Run [f] between two calibration samples and return its result with
   its [sample]. With GC accounting on, the [Gc.quick_stat] delta around
   the call is added to the run's totals. *)
let timed t f =
  calibrate ();
  let s0 = match t.gc with Some _ -> Some (Gc.quick_stat ()) | None -> None in
  let t0 = now () in
  let r = f () in
  let elapsed = ms_between t0 (now ()) in
  (match (t.gc, s0) with
  | Some g, Some s0 ->
      let s1 = Gc.quick_stat () in
      g.minor_words <- g.minor_words +. (s1.minor_words -. s0.minor_words);
      g.major_words <- g.major_words +. (s1.major_words -. s0.major_words);
      g.major_collections <-
        g.major_collections + (s1.major_collections - s0.major_collections)
  | _ -> ());
  calibrate ();
  (r, { ms = elapsed; cal = elapsed /. calibration_ms () })

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* [repeat_for ~seconds f] calls [f i] for i = 0, 1, ... until [seconds]
   have elapsed (always at least once) and returns the call count. *)
let repeat_for ~seconds f =
  let t0 = now () in
  let rec go i =
    if i > 0 && now () -. t0 >= seconds then i
    else begin
      f i;
      go (i + 1)
    end
  in
  go 0

(* --- reported metrics -------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }
