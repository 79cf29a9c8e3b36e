(* In-memory spans around the calls the benchmark makes into each layer.

   A span records its name, its parent span, wall-clock start and end,
   and the GC deltas over its interval (allocated words, minor and major
   collections).  Recording is off by default: [with_ name f] is then
   just [f ()], so untraced runs pay one branch per call.  Spans stay in
   memory and are written out once, as Chrome trace-event JSON, when the
   benchmark ends. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (* minor + direct major words allocated *)
  minor_gcs : int;
  major_gcs : int;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

(* Allocation as the runtime counts it: minor words plus words allocated
   directly in the major heap.  OCaml 5.1 folds other domains' counts in
   at minor-collection granularity. *)
let words_of (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let outer = !stack in
    stack := id :: outer;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      stack := outer;
      recorded :=
        {
          id;
          parent;
          name;
          t0;
          t1;
          words = words_of g1 -. words_of g0;
          minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded
let duration s = s.t1 -. s.t0
let named name = List.filter (fun s -> String.equal s.name name) (all ())

(* Self time: a span's duration minus the part its direct children cover
   (children never overlap: spans nest on one domain). *)
let child_time spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.parent) in
        Hashtbl.replace tbl s.parent (prev +. duration s))
    spans;
  fun s -> Option.value ~default:0. (Hashtbl.find_opt tbl s.id)

(* Share of the named root spans' time that no child span covers. *)
let unattributed_share ~root =
  let spans = all () in
  let covered = child_time spans in
  let total, uncovered =
    List.fold_left
      (fun (t, u) s ->
        if String.equal s.name root then (t +. duration s, u +. (duration s -. covered s))
        else (t, u))
      (0., 0.) spans
  in
  if total > 0. then uncovered /. total else 0.

(* One row per span name: count, total and self seconds, words. *)
let self_time_table () =
  let spans = all () in
  let covered = child_time spans in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c, tot, self, w =
        Option.value ~default:(0, 0., 0., 0.) (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name
        (c + 1, tot +. duration s, self +. (duration s -. covered s), w +. s.words))
    spans;
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) rows [] in
  let rows = List.sort (fun (_, (_, _, a, _)) (_, (_, _, b, _)) -> Float.compare b a) rows in
  let all_self = List.fold_left (fun acc (_, (_, _, s, _)) -> acc +. s) 0. rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %7s %11s %11s %7s %14s\n" "span" "count" "total_s" "self_s" "self%"
       "words");
  List.iter
    (fun (name, (c, tot, self, w)) ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %7d %11.4f %11.4f %6.1f%% %14.0f\n" name c tot self
           (if all_self > 0. then 100. *. self /. all_self else 0.)
           w))
    rows;
  Buffer.contents buf

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path =
  let spans = all () in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"id\": %d, \"parent\": %d, \"words\": %.0f, \"minor_gcs\": %d, \"major_gcs\": %d}}"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. base) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.words s.minor_gcs s.major_gcs)
    spans;
  output_string oc "\n]}\n";
  close_out oc
