(* The LR-sorting protocol (Lemma 4.1): completeness, soundness against all
   adversaries, round count, proof-size scaling. *)

let qtest = QCheck_alcotest.to_alcotest

let yes_instance ~n seed =
  let path, arcs = Gen.lr_yes ~n seed in
  { Lr_sorting.n; path; arcs }

let no_instance ~n seed =
  let path, arcs = Gen.lr_no ~n seed in
  { Lr_sorting.n; path; arcs }

(* ---- instance validation ------------------------------------------------ *)

let test_validate_rejects_non_permutation () =
  Alcotest.check_raises "perm" (Invalid_argument "Lr_sorting: path not a permutation") (fun () ->
      Lr_sorting.validate_instance { Lr_sorting.n = 3; path = [| 0; 0; 2 |]; arcs = [] })

let test_validate_rejects_path_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Lr_sorting: arc duplicates a path edge") (fun () ->
      Lr_sorting.validate_instance { Lr_sorting.n = 3; path = [| 0; 1; 2 |]; arcs = [ (1, 0) ] })

let test_validate_rejects_repeated_arc () =
  Alcotest.check_raises "repeat" (Invalid_argument "Lr_sorting: repeated arc") (fun () ->
      Lr_sorting.validate_instance
        { Lr_sorting.n = 5; path = [| 0; 1; 2; 3; 4 |]; arcs = [ (0, 2); (1, 4); (0, 2) ] });
  (* the reverse of an arc is a different arc *)
  Lr_sorting.validate_instance { Lr_sorting.n = 5; path = [| 0; 1; 2; 3; 4 |]; arcs = [ (0, 2); (2, 0) ] }

let test_yes_no_classification () =
  Alcotest.(check bool) "yes" true (Lr_sorting.is_yes_instance (yes_instance ~n:100 1));
  Alcotest.(check bool) "no" false (Lr_sorting.is_yes_instance (no_instance ~n:100 1))

let test_underlying_graph () =
  let inst = { Lr_sorting.n = 4; path = [| 0; 1; 2; 3 |]; arcs = [ (0, 2) ] } in
  let g = Lr_sorting.underlying_graph inst in
  Alcotest.(check int) "m" 4 (Graph.m g)

(* ---- params -------------------------------------------------------------- *)

let test_params_block_sizes () =
  let p = Lr_sorting.Params.make 1024 in
  Alcotest.(check int) "block" 10 p.Lr_sorting.Params.block;
  Alcotest.(check int) "nblocks" 102 p.Lr_sorting.Params.nblocks;
  Alcotest.(check bool) "prime" true (Prime.is_prime p.Lr_sorting.Params.p.Fp.p)

let test_params_tiny () =
  let p = Lr_sorting.Params.make 1 in
  Alcotest.(check int) "block >= 2" 2 p.Lr_sorting.Params.block;
  Alcotest.(check int) "one block" 1 p.Lr_sorting.Params.nblocks

let test_params_field_ordering () =
  let p = Lr_sorting.Params.make 4096 in
  Alcotest.(check bool) "p2 dominates" true
    (p.Lr_sorting.Params.p2.Fp.p > p.Lr_sorting.Params.p.Fp.p * p.Lr_sorting.Params.block)

(* ---- completeness --------------------------------------------------------- *)

let test_completeness_exhaustive_seeds () =
  for seed = 0 to 29 do
    let inst = yes_instance ~n:150 seed in
    let r = Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst in
    if not r.Lr_sorting.verdict.Dip.accepted then
      Alcotest.failf "seed %d rejected (nodes %s)" seed
        (String.concat "," (List.map string_of_int r.Lr_sorting.verdict.Dip.rejecting))
  done

let test_completeness_small_n () =
  (* exercise the degenerate single-block and tiny-block layouts *)
  List.iter
    (fun n ->
      for seed = 0 to 4 do
        let inst = yes_instance ~n seed in
        let r = Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst in
        Alcotest.(check bool) (Printf.sprintf "n=%d seed=%d" n seed) true r.Lr_sorting.verdict.Dip.accepted
      done)
    [ 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33 ]

let test_completeness_no_arcs () =
  let inst = { Lr_sorting.n = 64; path = Array.init 64 Fun.id; arcs = [] } in
  let r = Lr_sorting.run ~prover:Lr_sorting.Honest inst in
  Alcotest.(check bool) "bare path accepted" true r.Lr_sorting.verdict.Dip.accepted

let test_completeness_shuffled_path () =
  (* node ids independent of positions *)
  for seed = 0 to 9 do
    let n = 80 in
    let rng = Rng.create (seed + 99) in
    let path = Array.init n Fun.id in
    Rng.shuffle rng path;
    (* forward arcs by position *)
    let arcs =
      let acc = ref [] in
      for _ = 1 to 2 * n do
        let i = Rng.int rng n and j = Rng.int rng n in
        let l = min i j and r = max i j in
        if r - l >= 2 then acc := (path.(l), path.(r)) :: !acc
      done;
      List.sort_uniq compare !acc
    in
    let inst = { Lr_sorting.n; path; arcs } in
    let r = Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst in
    Alcotest.(check bool) "shuffled ids accepted" true r.Lr_sorting.verdict.Dip.accepted
  done

let prop_completeness =
  QCheck.Test.make ~name:"lr: perfect completeness" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 10 400))
    (fun (seed, n) ->
      let inst = yes_instance ~n seed in
      (Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst).Lr_sorting.verdict.Dip.accepted)

(* ---- rounds & proof size --------------------------------------------------- *)

let test_five_rounds () =
  let r = Lr_sorting.run ~prover:Lr_sorting.Honest (yes_instance ~n:200 1) in
  Alcotest.(check int) "5 rounds" 5 r.Lr_sorting.stats.Dip.interaction_rounds;
  Alcotest.(check (list bool)) "P-V-P-V-P"
    [ true; false; true; false; true ]
    (List.map (fun p -> p = Dip.Prover_phase) r.Lr_sorting.stats.Dip.phases)

let test_proof_size_loglog_growth () =
  (* doubling n repeatedly adds only O(1) bits: compare growth against the
     log n baseline *)
  let size n = (Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest (yes_instance ~n 42)).Lr_sorting.stats.Dip.proof_size_bits in
  let s256 = size 256 and s16k = size 16384 in
  Alcotest.(check bool) "grows" true (s16k >= s256);
  (* n grew 64x (6 doublings); log n proof would grow by ~6 * (bits per
     position) which is > 40 bits for the trivial PLS; ours should add far
     less *)
  Alcotest.(check bool) "sub-logarithmic growth" true (s16k - s256 < 40)

let test_proof_size_smaller_than_pls_at_scale () =
  let n = 65536 in
  let inst = yes_instance ~n 7 in
  let dip = (Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest inst).Lr_sorting.stats.Dip.proof_size_bits in
  ignore dip;
  (* per-node per-round label: compare against n needing 16-bit positions *)
  Alcotest.(check bool) "positions need 16 bits" true (Pls_lr_sorting.full_width n = 16)

(* ROADMAP's "flat per-node cost" on a counter that does not depend on the
   host: words allocated (minor + major - promoted) per node by honest
   single-domain runs.  OCaml 5 folds minor allocation into the counters
   a minor heap at a time, so each size runs until 2^16 nodes have been
   processed, which bounds that granularity to a few words per node. *)
let words_per_node ~n =
  let inst = yes_instance ~n 3 in
  ignore (Lr_sorting.run ~seed:0 ~prover:Lr_sorting.Honest inst);
  let runs = max 1 ((1 lsl 16) / n) in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  for seed = 1 to runs do
    ignore (Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst)
  done;
  (allocated () -. w0) /. float_of_int (runs * n)

let test_allocation_per_node_flat () =
  let small = words_per_node ~n:(1 lsl 10) and large = words_per_node ~n:(1 lsl 14) in
  if large > 700. then Alcotest.failf "n = 2^14 allocates %.0f words per node (gate: 700)" large;
  if Float.abs ((large /. small) -. 1.) > 0.10 then
    Alcotest.failf "words per node not flat: %.0f at n = 2^10, %.0f at n = 2^14 (gate: 10%%)" small large

(* ---- soundness ------------------------------------------------------------- *)

let rejection_rate prover ~n ~trials =
  let rej = ref 0 in
  for seed = 0 to trials - 1 do
    let inst = no_instance ~n seed in
    let r = Lr_sorting.run ~seed:((seed * 13) + 1) ~prover inst in
    if not r.Lr_sorting.verdict.Dip.accepted then incr rej
  done;
  float_of_int !rej /. float_of_int trials

let test_soundness_forge () =
  Alcotest.(check bool) "forge rejected" true (rejection_rate Lr_sorting.Forge_pairs ~n:200 ~trials:40 >= 0.95)

let test_soundness_shift () =
  Alcotest.(check bool) "shift rejected" true (rejection_rate Lr_sorting.Shift_positions ~n:200 ~trials:40 >= 0.95)

let test_soundness_fake_inner () =
  Alcotest.(check bool) "fake-inner rejected" true (rejection_rate Lr_sorting.Fake_inner ~n:200 ~trials:40 >= 0.95)

let test_soundness_honest_labels_on_no_instance () =
  (* even the honest labelling procedure cannot make a no-instance pass *)
  Alcotest.(check bool) "honest-on-no rejected" true (rejection_rate Lr_sorting.Honest ~n:200 ~trials:40 >= 0.95)

let test_soundness_inner_block_violation () =
  (* backward arc within one block: caught deterministically by the index
     comparison *)
  let n = 64 in
  let inst = { Lr_sorting.n; path = Array.init n Fun.id; arcs = [ (4, 2) ] } in
  (* positions 4 -> 2 inside block 0 *)
  let r = Lr_sorting.run ~seed:5 ~prover:Lr_sorting.Honest inst in
  Alcotest.(check bool) "rejected" false r.Lr_sorting.verdict.Dip.accepted

let test_soundness_adjacent_block_violation () =
  let n = 64 in
  (* block size 6: arc from position 7 back to 4 crosses one boundary *)
  let inst = { Lr_sorting.n; path = Array.init n Fun.id; arcs = [ (7, 4 ) ] } in
  let rej = ref 0 in
  for seed = 0 to 19 do
    let r = Lr_sorting.run ~seed ~prover:Lr_sorting.Forge_pairs inst in
    if not r.Lr_sorting.verdict.Dip.accepted then incr rej
  done;
  Alcotest.(check bool) "rejected" true (!rej >= 19)

let prop_soundness_random_adversary_choice =
  QCheck.Test.make ~name:"lr: every adversary loses w.h.p." ~count:30
    QCheck.(triple (int_bound 100000) (int_range 20 300) (int_bound 2))
    (fun (seed, n, which) ->
      let prover =
        match which with 0 -> Lr_sorting.Forge_pairs | 1 -> Lr_sorting.Shift_positions | _ -> Lr_sorting.Fake_inner
      in
      let inst = no_instance ~n seed in
      (* individual runs may survive with prob 1/polylog; retry 3 seeds and
         require at least one rejection to keep flakiness negligible *)
      let rejected = ref 0 in
      for s = 0 to 2 do
        let r = Lr_sorting.run ~seed:((seed * 7) + s) ~prover inst in
        if not r.Lr_sorting.verdict.Dip.accepted then incr rejected
      done;
      !rejected >= 1)

(* soundness error shrinks with c *)
let test_soundness_c_parameter () =
  let rate c =
    let rej = ref 0 in
    for seed = 0 to 29 do
      let inst = no_instance ~n:60 seed in
      let r = Lr_sorting.run ~seed ~c ~prover:Lr_sorting.Shift_positions inst in
      if not r.Lr_sorting.verdict.Dip.accepted then incr rej
    done;
    !rej
  in
  Alcotest.(check bool) "larger c at least as sound" true (rate 4 >= rate 2 - 2)

let test_determinism () =
  let inst = yes_instance ~n:120 5 in
  let a = Lr_sorting.run ~seed:9 ~prover:Lr_sorting.Honest inst in
  let b = Lr_sorting.run ~seed:9 ~prover:Lr_sorting.Honest inst in
  Alcotest.(check bool) "verdicts equal" true
    (a.Lr_sorting.verdict.Dip.accepted = b.Lr_sorting.verdict.Dip.accepted);
  Alcotest.(check int) "sizes equal" a.Lr_sorting.stats.Dip.proof_size_bits b.Lr_sorting.stats.Dip.proof_size_bits;
  Alcotest.(check int) "totals equal" a.Lr_sorting.stats.Dip.total_prover_bits b.Lr_sorting.stats.Dip.total_prover_bits

let test_retained_transcript () =
  let inst = yes_instance ~n:40 2 in
  let r = Lr_sorting.run ~seed:1 ~retain:true ~prover:Lr_sorting.Honest inst in
  Alcotest.(check int) "five rounds retained" 5 (List.length r.Lr_sorting.transcript);
  let r2 = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest inst in
  Alcotest.(check int) "not retained by default" 0 (List.length r2.Lr_sorting.transcript);
  (* retained sizes match the metered stats *)
  let max_bits =
    List.fold_left
      (fun acc (ph, labels) ->
        if ph = Dip.Prover_phase then Array.fold_left (fun a l -> max a (Bits.length l)) acc labels else acc)
      0 r.Lr_sorting.transcript
  in
  Alcotest.(check int) "transcript agrees with meter" r.Lr_sorting.stats.Dip.proof_size_bits max_bits

let () =
  Alcotest.run "lr_sorting"
    [
      ( "instances",
        [
          Alcotest.test_case "validate permutation" `Quick test_validate_rejects_non_permutation;
          Alcotest.test_case "validate path duplicate" `Quick test_validate_rejects_path_duplicate;
          Alcotest.test_case "validate repeated arc" `Quick test_validate_rejects_repeated_arc;
          Alcotest.test_case "yes/no classification" `Quick test_yes_no_classification;
          Alcotest.test_case "underlying graph" `Quick test_underlying_graph;
        ] );
      ( "params",
        [
          Alcotest.test_case "block sizes" `Quick test_params_block_sizes;
          Alcotest.test_case "tiny n" `Quick test_params_tiny;
          Alcotest.test_case "field ordering" `Quick test_params_field_ordering;
        ] );
      ( "completeness",
        [
          Alcotest.test_case "30 seeds" `Quick test_completeness_exhaustive_seeds;
          Alcotest.test_case "small n" `Quick test_completeness_small_n;
          Alcotest.test_case "no arcs" `Quick test_completeness_no_arcs;
          Alcotest.test_case "shuffled ids" `Quick test_completeness_shuffled_path;
          qtest prop_completeness;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "five rounds" `Quick test_five_rounds;
          Alcotest.test_case "loglog growth" `Slow test_proof_size_loglog_growth;
          Alcotest.test_case "PLS width reference" `Quick test_proof_size_smaller_than_pls_at_scale;
          Alcotest.test_case "allocation per node flat" `Quick test_allocation_per_node_flat;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "forge pairs" `Quick test_soundness_forge;
          Alcotest.test_case "shift positions" `Quick test_soundness_shift;
          Alcotest.test_case "fake inner" `Quick test_soundness_fake_inner;
          Alcotest.test_case "honest on no-instance" `Quick test_soundness_honest_labels_on_no_instance;
          Alcotest.test_case "inner-block violation" `Quick test_soundness_inner_block_violation;
          Alcotest.test_case "adjacent-block violation" `Quick test_soundness_adjacent_block_violation;
          Alcotest.test_case "c parameter" `Quick test_soundness_c_parameter;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "retained transcript" `Quick test_retained_transcript;
          qtest prop_soundness_random_adversary_choice;
        ] );
    ]
