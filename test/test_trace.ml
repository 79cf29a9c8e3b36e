(* The transcript subsystem: codec roundtrip, record/replay on both
   runtimes for every corpus family, tamper detection, the committed
   golden corpus, and label-cache byte-identity. *)

let qtest = QCheck_alcotest.to_alcotest

let corpus_seed = 7
(* the committed corpus (test/golden/trace/) is recorded with this seed *)

let entry id = Option.get (Trace_registry.find id)

(* ---- codec ----------------------------------------------------------- *)

let roundtrip t = Trace.of_string (Trace.to_string t)

let test_codec_roundtrip () =
  List.iter
    (fun id ->
      let t = Trace_registry.record (entry id) ~seed:corpus_seed in
      let t' = roundtrip t in
      Alcotest.(check bool) (id ^ " roundtrip equal") true (Trace.equal t t');
      Alcotest.(check string) (id ^ " digest stable") (Trace.digest t) (Trace.digest t'))
    [ "E1"; "E4" ]

let prop_codec_roundtrip_random =
  (* synthetic traces with random frames exercise width/padding corners the
     corpus cannot *)
  QCheck.Test.make ~name:"trace: to_string/of_string roundtrip on random traces" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 6))
    (fun (seed, rounds) ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 12 in
      let frames =
        List.init rounds (fun r ->
            ( (if r mod 2 = 0 then Dip.Prover_phase else Dip.Verifier_phase),
              Array.init n (fun _ -> Bits.random rng (Rng.int rng 40)) ))
      in
      let meter = Dip.meter () in
      List.iter
        (fun (ph, arr) ->
          match ph with
          | Dip.Prover_phase -> Dip.record_prover meter arr
          | Dip.Verifier_phase -> Dip.record_verifier meter arr)
        frames;
      let t =
        {
          Trace.experiment = "QT";
          protocol = "synthetic";
          runtime = (if seed mod 2 = 0 then Trace.Dip_runtime else Trace.Net_runtime);
          recipe = Printf.sprintf "random seed=%d" seed;
          graph_digest = Trace.graph_digest (Graph.path_graph (max 2 n));
          seed;
          n;
          stats = Dip.stats meter;
          frames;
          verdicts = Array.init n (fun _ -> Rng.bool rng);
        }
      in
      Trace.equal t (roundtrip t))

let test_tamper_detection () =
  let t = Trace_registry.record (entry "E1") ~seed:corpus_seed in
  let s = Bytes.of_string (Trace.to_string t) in
  (* flip a low (data, not padding) bit in the middle of the file — inside
     the frame section, which the content digest covers *)
  let pos = Bytes.length s / 2 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 1));
  Alcotest.(check bool) "tampered trace rejected" true
    (try
       ignore (Trace.of_string (Bytes.to_string s));
       false
     with Invalid_argument msg ->
       let has sub =
         let n = String.length msg and m = String.length sub in
         let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
         go 0
       in
       has "digest mismatch" || has "Trace:")

let test_bad_magic () =
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Trace: bad magic (not a \"DIPP-TRACE 1\" file)") (fun () ->
      ignore (Trace.of_string "not a trace at all"))

let test_truncation () =
  let t = Trace_registry.record (entry "E1") ~seed:corpus_seed in
  let s = Trace.to_string t in
  let cut = String.sub s 0 (String.length s / 2) in
  Alcotest.(check bool) "truncated trace rejected" true
    (try
       ignore (Trace.of_string cut);
       false
     with Invalid_argument _ -> true)

let test_diff_reports_divergence () =
  let a = Trace_registry.record (entry "E1") ~seed:corpus_seed in
  let b = Trace_registry.record (entry "E1") ~seed:(corpus_seed + 1) in
  Alcotest.(check bool) "same trace: no diff" true (Trace.diff a (roundtrip a) = None);
  Alcotest.(check bool) "different seed: diff" true (Trace.diff a b <> None)

(* ---- record/replay, both runtimes, all families ----------------------- *)

let test_record_replay_dip () =
  List.iter
    (fun (e : Trace_registry.entry) ->
      let t = Trace_registry.record e ~seed:corpus_seed in
      Alcotest.(check bool) (e.Trace_registry.id ^ " honest run accepts") true
        (Trace.verdict_of t).Dip.accepted;
      match Trace_registry.replay t with
      | Ok r ->
          Alcotest.(check bool)
            (e.Trace_registry.id ^ " replay verdict matches")
            true r.Trace_registry.verdict.Dip.accepted
      | Error msg -> Alcotest.fail (e.Trace_registry.id ^ ": " ^ msg))
    Trace_registry.entries

let test_record_replay_net () =
  List.iter
    (fun (e : Trace_registry.entry) ->
      let t = Trace_registry.record ~runtime:Trace.Net_runtime e ~seed:corpus_seed in
      Alcotest.(check bool) (e.Trace_registry.id ^ " net honest run accepts") true
        (Trace.verdict_of t).Dip.accepted;
      match Trace_registry.replay t with
      | Ok r ->
          Alcotest.(check string)
            (e.Trace_registry.id ^ " net replay is decision-only")
            "decision-only (net)" r.Trace_registry.mode
      | Error msg -> Alcotest.fail (e.Trace_registry.id ^ " net: " ^ msg))
    Trace_registry.entries

let test_decision_replay_modes () =
  let t1 = Trace_registry.record (entry "E1") ~seed:corpus_seed in
  (match Trace_registry.replay t1 with
  | Ok r -> Alcotest.(check string) "E1 decision-only" "decision-only" r.Trace_registry.mode
  | Error msg -> Alcotest.fail msg);
  let t3 = Trace_registry.record (entry "E3") ~seed:corpus_seed in
  match Trace_registry.replay t3 with
  | Ok r -> Alcotest.(check string) "E3 re-execution" "re-execution" r.Trace_registry.mode
  | Error msg -> Alcotest.fail msg

let test_replay_rejects_forged_frames () =
  (* a forged verdict bit must be caught by replay even when the file-level
     digest is recomputed to match (an attacker rewriting the whole file) *)
  let t = Trace_registry.record (entry "E1") ~seed:corpus_seed in
  let forged = { t with Trace.verdicts = Array.map not t.Trace.verdicts } in
  (match Trace_registry.replay forged with
  | Ok _ -> Alcotest.fail "forged verdicts replayed clean"
  | Error _ -> ());
  (* and a frame swap: drop the last round *)
  match t.Trace.frames with
  | [] -> Alcotest.fail "no frames"
  | _ :: rest -> (
      let cut = { t with Trace.frames = rest } in
      match Trace_registry.replay cut with
      | Ok _ -> Alcotest.fail "frame-dropped trace replayed clean"
      | Error _ -> ())

let test_lr_decision_replay_catches_bit_flip () =
  let t = Trace_registry.record (entry "E2") ~seed:corpus_seed in
  (* flip a bit of some round-1 node label: the strict decoders or the
     re-run decisions must notice *)
  let frames =
    List.mapi
      (fun i (ph, arr) ->
        if i <> 0 then (ph, arr)
        else begin
          let arr = Array.copy arr in
          let v = Array.length arr / 2 in
          let b = arr.(v) in
          if Bits.length b = 0 then (ph, arr)
          else begin
            let s = Bytes.of_string (Bits.to_string b) in
            Bytes.set s 0 (if Bytes.get s 0 = '0' then '1' else '0');
            arr.(v) <- Bits.of_string (Bytes.to_string s);
            (ph, arr)
          end
        end)
      t.Trace.frames
  in
  let flipped = { t with Trace.frames } in
  match Trace_registry.replay flipped with
  | Ok r ->
      (* the flip may land in a field no check reads for this verdict to
         flip — but then the verdict comparison still passed legitimately;
         require at least that replay did not silently accept a *changed*
         verdict *)
      Alcotest.(check bool) "verdict still matches recording" true
        (Trace_registry.(r.verdict).Dip.accepted = (Trace.verdict_of t).Dip.accepted)
  | Error _ -> ()

let test_lr_strict_decoders () =
  (* an honest recorded transcript, replayed with one label of each kind
     made one bit short or one bit long, with an r1 flag of 3, and with a
     nonzero padding field on an Inner r1 arc: the strict decoders must
     turn every one into [Error], never an exception or a verdict *)
  let n = 128 in
  let path, arcs = Gen.lr_yes ~n 42 in
  let inst = { Lr_sorting.n; path; arcs } in
  let frames =
    (Lr_sorting.run ~seed:corpus_seed ~retain:true ~prover:Lr_sorting.Honest inst)
      .Lr_sorting.transcript
  in
  (match Lr_sorting.replay inst frames with
  | Ok v -> Alcotest.(check bool) "honest transcript replays to accept" true v.Dip.accepted
  | Error e -> Alcotest.fail ("honest transcript: " ^ e));
  let leftmost = path.(0) in
  (* the leftmost node draws r, r' and (as its block's leader) r_b in round
     2 and z in round 4, so every coin label tampered below is non-empty *)
  let tamper ~frame ~index f =
    List.mapi
      (fun i (ph, arr) ->
        if i <> frame then (ph, arr)
        else begin
          let arr = Array.copy arr in
          arr.(index) <- f arr.(index);
          (ph, arr)
        end)
      frames
  in
  let expect_error name frames =
    match Lr_sorting.replay inst frames with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": replay returned a verdict")
    | exception e -> Alcotest.fail (name ^ ": replay raised " ^ Printexc.to_string e)
  in
  let short b = Bits.sub b ~pos:0 ~len:(Bits.length b - 1) in
  let long b = Bits.append b (Bits.of_bool false) in
  let arc0 = n in
  List.iter
    (fun (kind, frame, index) ->
      expect_error (kind ^ " one bit short") (tamper ~frame ~index short);
      expect_error (kind ^ " one bit long") (tamper ~frame ~index long))
    [
      ("r1 node", 0, leftmost);
      ("r1 arc", 0, arc0);
      ("coins2", 1, leftmost);
      ("r3 node", 2, leftmost);
      ("r3 arc", 2, arc0);
      ("coins4", 3, leftmost);
      ("r5 node", 4, leftmost);
    ];
  (* r1 node: j (wi bits), bit1, bit2, then the 2-bit flag *)
  let pa = Lr_sorting.Params.make n in
  let bits_for x =
    let rec go w = if 1 lsl w > x then w else go (w + 1) in
    max 1 (go 1)
  in
  let flag_pos = bits_for (2 * pa.Lr_sorting.Params.block) + 2 in
  let set_bit b i =
    Bits.concat
      [
        Bits.sub b ~pos:0 ~len:i;
        Bits.of_bool true;
        Bits.sub b ~pos:(i + 1) ~len:(Bits.length b - i - 1);
      ]
  in
  expect_error "r1 flag = 3"
    (tamper ~frame:0 ~index:leftmost (fun b -> set_bit (set_bit b flag_pos) (flag_pos + 1)));
  (* r1 arc: an outer bit, then the index field, which an Inner arc pads
     with zeros *)
  let r1 = snd (List.hd frames) in
  let inner =
    List.find_opt (fun k -> not (Bits.get r1.(n + k) 0)) (List.init (List.length arcs) Fun.id)
  in
  match inner with
  | None -> Alcotest.fail "the honest instance has no Inner arc to tamper with"
  | Some k ->
      expect_error "Inner r1 arc with nonzero padding"
        (tamper ~frame:0 ~index:(n + k) (fun b -> set_bit b (Bits.length b - 1)))

(* ---- the committed golden corpus -------------------------------------- *)

let corpus_dir = "golden/trace"

let manifest () =
  let path = Filename.concat corpus_dir "MANIFEST" in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ file; digest ] -> Some (file, digest)
      | _ -> None)
    (List.rev !lines)

let test_corpus_replays () =
  let files = manifest () in
  Alcotest.(check int) "16 corpus traces (8 families x 2 runtimes)" 16 (List.length files);
  List.iter
    (fun (file, digest) ->
      let t = Trace.of_file (Filename.concat corpus_dir file) in
      Alcotest.(check string) (file ^ " digest matches manifest") digest (Trace.digest t);
      match Trace_registry.replay t with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (file ^ ": " ^ msg))
    files

let test_corpus_is_current_recording () =
  (* recording today must reproduce the committed bytes — the determinism
     contract extended to transcripts *)
  List.iter
    (fun (e : Trace_registry.entry) ->
      let id = e.Trace_registry.id in
      let committed = Trace.of_file (Filename.concat corpus_dir (id ^ ".trace")) in
      let fresh = Trace_registry.record e ~seed:corpus_seed in
      (match Trace.diff committed fresh with
      | None -> ()
      | Some d -> Alcotest.fail (id ^ ".trace drifted: " ^ d));
      let committed_net = Trace.of_file (Filename.concat corpus_dir (id ^ ".net.trace")) in
      let fresh_net = Trace_registry.record ~runtime:Trace.Net_runtime e ~seed:corpus_seed in
      match Trace.diff committed_net fresh_net with
      | None -> ()
      | Some d -> Alcotest.fail (id ^ ".net.trace drifted: " ^ d))
    Trace_registry.entries

(* ---- label cache ------------------------------------------------------ *)

let test_cache_hit_returns_identical_outcome () =
  Label_cache.reset ();
  let path, arcs = Gen.lr_yes ~n:100 3 in
  let inst = { Lr_sorting.n = 100; path; arcs } in
  let key = Label_cache.key ~protocol:"lr_sorting" ~instance:(Label_cache.lr_key inst) ~seed:5 in
  let run () =
    let r = Lr_sorting.run ~seed:5 ~prover:Lr_sorting.Honest inst in
    (r.Lr_sorting.verdict, r.Lr_sorting.stats)
  in
  let v1, s1 = Label_cache.find_or_run ~key run in
  let v2, s2 = Label_cache.find_or_run ~key run in
  Alcotest.(check bool) "verdicts identical" true (v1 = v2);
  Alcotest.(check bool) "stats identical" true (s1 = s2);
  let h, m = Label_cache.stats () in
  Alcotest.(check int) "one hit" 1 h;
  Alcotest.(check int) "one miss" 1 m;
  Alcotest.(check bool) "hit rate 50%" true (abs_float (Label_cache.hit_rate () -. 0.5) < 1e-9)

let test_cache_key_separates () =
  let path, arcs = Gen.lr_yes ~n:60 3 in
  let inst = { Lr_sorting.n = 60; path; arcs } in
  let k1 = Label_cache.key ~protocol:"lr_sorting" ~instance:(Label_cache.lr_key inst) ~seed:5 in
  let k2 = Label_cache.key ~protocol:"lr_sorting" ~instance:(Label_cache.lr_key inst) ~seed:6 in
  let k3 = Label_cache.key ~protocol:"other" ~instance:(Label_cache.lr_key inst) ~seed:5 in
  Alcotest.(check bool) "seed separates" true (k1 <> k2);
  Alcotest.(check bool) "protocol separates" true (k1 <> k3);
  (* arc orientation must separate lr instances even when the underlying
     undirected graph is identical *)
  match inst.Lr_sorting.arcs with
  | (u, v) :: rest ->
      let flipped = { inst with Lr_sorting.arcs = (v, u) :: rest } in
      Alcotest.(check bool) "arc orientation separates" true
        (Label_cache.lr_key inst <> Label_cache.lr_key flipped)
  | [] -> Alcotest.fail "instance has no arcs"

let test_engine_report_identical_with_and_without_cache () =
  (* the pooled completeness specs exercise the cache; the emitted report
     must be byte-identical either way, with a nonzero hit rate when on *)
  let specs =
    List.filter
      (fun s -> s.Engine.Spec.adversary = "honest-pooled")
      Soundness.specs
  in
  Alcotest.(check bool) "pooled completeness specs exist" true (List.length specs >= 2);
  let specs = [ List.hd specs ] in
  Label_cache.reset ();
  let r1 = Engine.run_all ~jobs:2 ~seed:42 specs in
  let with_cache = Engine.report_string ~seed:42 r1 in
  let h, _ = Label_cache.stats () in
  Alcotest.(check bool) "cache hits occurred" true (h > 0);
  Label_cache.reset ();
  Unix.putenv "DIPP_LABEL_CACHE" "0";
  let r2 = Engine.run_all ~jobs:2 ~seed:42 specs in
  let without_cache = Engine.report_string ~seed:42 r2 in
  Unix.putenv "DIPP_LABEL_CACHE" "1";
  let h0, m0 = Label_cache.stats () in
  Alcotest.(check int) "disabled cache records nothing" 0 (h0 + m0);
  Alcotest.(check string) "byte-identical report" with_cache without_cache

let () =
  Alcotest.run "trace"
    [
      ( "codec",
        [
          Alcotest.test_case "corpus roundtrip" `Quick test_codec_roundtrip;
          qtest prop_codec_roundtrip_random;
          Alcotest.test_case "tamper detection" `Quick test_tamper_detection;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "diff" `Quick test_diff_reports_divergence;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "dip runtime, all families" `Slow test_record_replay_dip;
          Alcotest.test_case "net runtime, all families" `Slow test_record_replay_net;
          Alcotest.test_case "replay modes" `Quick test_decision_replay_modes;
          Alcotest.test_case "forged traces rejected" `Quick test_replay_rejects_forged_frames;
          Alcotest.test_case "lr bit-flip" `Quick test_lr_decision_replay_catches_bit_flip;
          Alcotest.test_case "lr strict decoders" `Quick test_lr_strict_decoders;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "manifest replays" `Slow test_corpus_replays;
          Alcotest.test_case "recording is current" `Slow test_corpus_is_current_recording;
        ] );
      ( "label-cache",
        [
          Alcotest.test_case "hit returns identical outcome" `Quick
            test_cache_hit_returns_identical_outcome;
          Alcotest.test_case "key separation" `Quick test_cache_key_separates;
          Alcotest.test_case "engine report cache-invariant" `Slow
            test_engine_report_identical_with_and_without_cache;
        ] );
    ]
