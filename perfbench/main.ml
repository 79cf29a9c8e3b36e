(* The repository benchmark.

     sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   One run builds the workload's inputs from the seed (several times, to
   time set-up), runs the untimed soundness sentinels, makes one warm-up
   call whose counters every later call must repeat, then makes timed
   calls for S seconds.  With --trace 0 it prints the end-to-end metrics;
   with --trace 1 it wraps the calls into each layer in spans and prints
   the per-layer metrics, a self-time table, the tracing overhead and the
   unattributed share, and writes the spans to
   .perfbench/spans-W-N.json.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

let usage = "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1"

let die code msg =
  prerr_endline msg;
  exit code

(* Each of these changes the measured program, so a run under any of
   them would not compare with one without. *)
let refused_env = [ "DIPP_LABEL_CACHE"; "DIPP_SHARDS"; "DIPP_JOBS"; "OCAMLRUNPARAM" ]

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        go ((flag, v) :: acc) rest
    | a :: _ -> die 2 (Printf.sprintf "unknown or incomplete argument %S\n%s" a usage)
  in
  let kv = go [] args in
  let find flag = match List.assoc_opt flag kv with Some v -> v | None -> die 2 usage in
  let int flag =
    match int_of_string_opt (find flag) with
    | Some v when v >= 0 -> v
    | _ -> die 2 (Printf.sprintf "%s expects a non-negative integer\n%s" flag usage)
  in
  let trace = match find "--trace" with "0" -> false | "1" -> true | _ -> die 2 usage in
  (find "--workload", int "--seed", int "--seconds", trace)

let median = Workloads.median

(* Nearest-rank percentile over pooled latency samples. *)
let pct samples p =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  Option.value ~default:0. (Dipp.Serve.percentile a ~pct:p)

(* Set-up time: each sample repeats the set-up until it has run for at
   least 100 ms and takes the mean; the metric is the median of five,
   each scaled to nominal host speed.  Returns (scaled, raw). *)
let time_setup (w : Workloads.t) =
  let sample () =
    let pass = Host.mark () in
    let t0 = Unix.gettimeofday () in
    let rec go k =
      w.setup ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 0.1 then dt /. float k else go (k + 1)
    in
    (pass, go 1)
  in
  let samples = List.init 5 (fun _ -> sample ()) in
  ignore (Host.mark () : int);
  ( median (List.map (fun (pass, raw) -> raw *. Host.scale_between pass) samples),
    median (List.map snd samples) )

type timed = {
  out : Workloads.call;
  wall : float;  (* raw seconds *)
  pass : int;  (* the host pass right before the call *)
  words : float;  (* minor + direct major *)
  minor_words : float;
  minor : int;
  major : int;
}

(* [wrap] encloses the call proper (a root span in traced runs), not the
   host-speed measurement before it. *)
let timed_call ?(wrap = fun f -> f ()) (w : Workloads.t) =
  let pass = Host.mark () in
  wrap @@ fun () ->
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let out = w.call () in
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  {
    out;
    wall = Dipp.Serve.monotonic_latency ~t0 ~t1;
    pass;
    words = Span.words_of g1 -. Span.words_of g0;
    minor_words = g1.minor_words -. g0.minor_words;
    minor = g1.minor_collections - g0.minor_collections;
    major = g1.major_collections - g0.major_collections;
  }

(* JSON numbers with every digit the measurement has. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let () =
  let workload, seed, seconds, trace = parse_args () in
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        die 2 (Printf.sprintf "refusing to run: %s is set and would change the measured program" v))
    refused_env;
  let w =
    match Workloads.make workload seed with
    | Some w -> w
    | None ->
        die 2
          (Printf.sprintf "unknown workload %S (one of: %s)" workload
             (String.concat ", " Workloads.names))
  in
  Span.enabled := trace;
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  (* set-up, timed *)
  let setup_s, setup_raw = time_setup w in
  (* soundness sentinels, untimed *)
  List.iter
    (fun (name, passed) ->
      Printf.printf "sentinel %-48s %s\n" name (if passed then "ok" else "MISSED");
      if not passed then problem ("sentinel missed: " ^ name))
    (w.sentinels ());
  (* warm-up: fills lazy state and fixes the counters every call repeats *)
  Span.enabled := false;
  let warm = timed_call w in
  Span.enabled := trace;
  let tolerance = float (2 * w.domains) *. float (Gc.get ()).minor_heap_size in
  let check (t : timed) =
    if not t.out.ok then problem "a call's output check failed";
    if not (String.equal t.out.counters warm.out.counters) then
      problem (Printf.sprintf "counters differ between calls:\n  %s\n  %s" warm.out.counters t.out.counters);
    if Float.abs (t.words -. warm.words) > tolerance then
      problem
        (Printf.sprintf "allocation differs between calls: %.0f vs %.0f words (tolerance %.0f)" warm.words
           t.words tolerance)
  in
  check warm;
  (* timed calls; a traced run alternates a traced and an untraced call
     so their ratio is the tracing overhead *)
  let calls = ref [] and untraced = ref [] in
  let deadline = Unix.gettimeofday () +. float seconds in
  let i = ref 0 in
  while Unix.gettimeofday () < deadline || List.length !calls < 3 do
    if trace then begin
      let plain () =
        Span.enabled := false;
        let t = timed_call w in
        Span.enabled := true;
        untraced := t :: !untraced
      in
      if !i mod 2 = 1 then plain ();
      let t = timed_call ~wrap:(Span.with_ "call") w in
      check t;
      calls := t :: !calls;
      if !i mod 2 = 0 then plain ();
      w.probe ()
    end
    else begin
      let t = timed_call w in
      check t;
      calls := t :: !calls
    end;
    incr i
  done;
  ignore (Host.mark () : int);
  let calls = List.rev !calls in
  let ncalls = List.length calls in
  let attempted = List.fold_left (fun acc t -> acc + t.out.attempted) 0 calls in
  let failed = List.fold_left (fun acc t -> acc + t.out.failed) 0 calls in
  (* a workload without per-request samples serves one request per call;
     [scaled] puts every time at nominal host speed (host.ml) *)
  let latencies ~scaled =
    List.concat_map
      (fun t ->
        let s = if scaled then Host.scale_between t.pass else 1. in
        if t.out.latencies = [||] then [ t.wall *. s ]
        else Array.to_list (Array.map (( *. ) s) t.out.latencies))
      calls
  in
  let per_unit f = median (List.map (fun t -> f t /. float (max 1 t.out.units)) calls) in
  let peak_heap_mb =
    float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1048576.
  in
  (* the deterministic counters line, then allocation per call *)
  Printf.printf "counters workload=%s seed=%d %s\n" workload seed warm.out.counters;
  Printf.printf "alloc words_per_call=%.0f spread=%.0f tolerance=%.0f minor_gcs=%d major_gcs=%d\n"
    warm.words
    (List.fold_left (fun acc t -> Float.max acc (Float.abs (t.words -. warm.words))) 0. calls)
    tolerance warm.minor warm.major;
  Printf.printf "calls=%d latency_samples=%d (one per %s) units_per_call=%d (%ss)\n" ncalls
    (List.length (latencies ~scaled:false))
    w.request_name warm.out.units w.unit_name;
  Printf.printf
    "host ref_pass_ms=%.3f nominal_ms=%.1f raw: setup_s=%.6g ns_per_op=%.6g latency_p50_ms=%.6g \
     latency_p99_ms=%.6g\n"
    (1e3 *. median (Host.pass_times ()))
    (1e3 *. Host.nominal_s) setup_raw
    (per_unit (fun t -> t.wall *. 1e9))
    (1e3 *. pct (latencies ~scaled:false) 50)
    (1e3 *. pct (latencies ~scaled:false) 99);
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s, "s");
        ("ns_per_op", per_unit (fun t -> t.wall *. Host.scale_between t.pass *. 1e9), "ns");
        ("latency_p50_ms", 1e3 *. pct (latencies ~scaled:true) 50, "ms");
        ("latency_p99_ms", 1e3 *. pct (latencies ~scaled:true) 99, "ms");
        ("words_per_op", per_unit (fun t -> t.words), "words");
        ("proof_bits", float warm.out.proof_bits, "bits");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
    else begin
      let scaled t = t.wall *. Host.scale_between t.pass in
      let overhead = median (List.map scaled calls) /. median (List.map scaled !untraced) in
      let values =
        [
          ("gc.minor_words", median (List.map (fun t -> t.minor_words) calls));
          ("gc.minor_collections", median (List.map (fun t -> float t.minor) calls));
          ("gc.major_collections", median (List.map (fun t -> float t.major) calls));
          ("trace.overhead_ratio", overhead);
          ("trace.unattributed_share", Span.unattributed_share ~root:"call");
        ]
        @ w.layers ~calls:ncalls
      in
      print_string (Span.self_time_table ());
      Printf.printf "tracing overhead %.2f%% (traced / untraced call, medians over %d pairs); \
                     unattributed %.2f%% of traced call time\n"
        (100. *. (overhead -. 1.)) ncalls
        (100. *. Span.unattributed_share ~root:"call");
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".perfbench/spans-%s-%d.json" workload seed in
      Span.write_chrome path;
      Printf.printf "spans written to %s\n" path;
      List.map
        (fun (name, unit) ->
          (name, Option.value ~default:0. (List.assoc_opt name values), unit))
        Workloads.per_layer_units
    end
  in
  List.iter (fun p -> prerr_endline ("INCORRECT: " ^ p)) (List.rev !problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))
