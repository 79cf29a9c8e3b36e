(* Experiment harness: regenerates the paper's "tables" (its theorem
   bounds) as measured numbers.  See EXPERIMENTS.md for the paper-vs-
   measured record of every experiment.

   Usage:
     dune exec bench/main.exe            all experiments + timings
     dune exec bench/main.exe e1 .. e11  a single experiment
     dune exec bench/main.exe timing     bechamel wall-clock benches
     dune exec bench/main.exe bounds     claim-vs-measured bounds_report.json
     dune exec bench/main.exe -- trials [--jobs N]
                                         engine soundness trials + trials_report.json
     dune exec bench/main.exe -- faults [--jobs N]
                                         fault-injection sweep + faults_report.json
     dune exec bench/main.exe analysis  static-analyzer pass timings + BENCH_analysis.json
     dune exec bench/main.exe -- serve [--jobs N]
                                         batched verification service + BENCH_serve.json
     dune exec bench/main.exe -- shard [--jobs N]
                                         sharded network engine scaling + BENCH_shard.json
   Unknown commands or flags exit with code 2 and a usage message.

   Soundness loops (E2-E8) run on the deterministic multicore trial engine
   (lib/engine): --jobs N (or DIPP_JOBS=N) picks the worker-domain count,
   DIPP_TRIALS_SEED the experiment seed; the outcome is bit-identical for
   every N. *)

open Dipp

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ---- trial-engine front end ---------------------------------------- *)

let jobs_override = ref None
let jobs () = match !jobs_override with Some j -> j | None -> Pool.default_jobs ()

let trials_seed () =
  match Sys.getenv_opt "DIPP_TRIALS_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v -> v | None -> 42)
  | None -> 42

let run_experiment tag =
  Engine.run_all ~jobs:(jobs ()) ~seed:(trials_seed ()) (Soundness.by_experiment tag)

let print_engine_results results =
  Printf.printf "%-26s %-16s %6s %8s %9s %7s %18s\n" "spec" "adversary" "n" "trials" "rejected"
    "rate" "95% CI";
  List.iter
    (fun r ->
      let lo, hi = Engine.wilson95 ~rejected:r.Engine.rejected ~total:r.Engine.completed in
      Printf.printf "%-26s %-16s %6d %8d %9d %6.1f%% [%6.4f, %6.4f]\n" r.Engine.spec.Engine.Spec.id
        r.Engine.spec.Engine.Spec.adversary r.Engine.spec.Engine.Spec.n r.Engine.completed
        r.Engine.rejected
        (100. *. Engine.rejection_rate r)
        lo hi)
    results;
  let wall = List.fold_left (fun acc r -> acc +. r.Engine.wall_clock_s) 0. results in
  Printf.printf "engine: seed=%d jobs=%d wall-clock=%.2fs\n" (trials_seed ()) (jobs ()) wall

let ceil_log2 n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  max 1 (go 1)

let acceptance_rate runs =
  let total = List.length runs in
  let acc = List.length (List.filter Fun.id runs) in
  float_of_int acc /. float_of_int total

let rejection_rate runs = 1.0 -. acceptance_rate runs

(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  LR-sorting: proof size scaling (Lemma 4.1 vs trivial 1-round PLS)";
  Printf.printf "%8s %8s %10s %12s %12s %10s\n" "n" "log2 n" "loglog n" "DIP bits" "PLS bits" "rounds";
  List.iter
    (fun n ->
      let path, arcs = Gen.lr_yes ~n 42 in
      let inst = { Lr_sorting.n; path; arcs } in
      let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest inst in
      let pls = Pls_lr_sorting.run inst in
      assert r.Lr_sorting.verdict.Dip.accepted;
      assert pls.Pls_lr_sorting.verdict.Dip.accepted;
      Printf.printf "%8d %8d %10.2f %12d %12d %10d\n" n (ceil_log2 n)
        (log (float_of_int (ceil_log2 n)) /. log 2.)
        r.Lr_sorting.stats.Dip.proof_size_bits pls.Pls_lr_sorting.stats.Dip.proof_size_bits
        r.Lr_sorting.stats.Dip.interaction_rounds)
    [ 256; 1024; 4096; 16384; 65536; 262144 ];
  print_endline "shape: the DIP column grows like log log n (a few bits per quadrupling);";
  print_endline "       the PLS column is exactly ceil(log2 n)."

let e2 () =
  header "E2  LR-sorting: empirical soundness (paper: error 1/polylog n)";
  print_engine_results (run_experiment "E2")

let e3 () =
  header "E3  Path-outerplanarity (Thm 1.2): size scaling + soundness";
  Printf.printf "%8s %12s %12s %10s\n" "n" "DIP bits" "PLS bits" "rounds";
  List.iter
    (fun n ->
      let g, w = Gen.path_outerplanar ~n 11 in
      let r =
        Path_outerplanarity.run ~seed:2 ~prover:Path_outerplanarity.Honest
          { Path_outerplanarity.graph = g; witness = Some w }
      in
      let pls = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
      assert r.Path_outerplanarity.verdict.Dip.accepted;
      Printf.printf "%8d %12d %12d %10d\n" n r.Path_outerplanarity.stats.Dip.proof_size_bits
        pls.Pls_path_outerplanar.stats.Dip.proof_size_bits
        r.Path_outerplanarity.stats.Dip.interaction_rounds)
    [ 256; 1024; 4096; 16384 ];
  print_engine_results (run_experiment "E3")

let e4 () =
  header "E4  Outerplanarity (Thm 1.3): block-cut composition";
  Printf.printf "%8s %8s %12s %10s\n" "blocks" "n" "proof bits" "rounds";
  List.iter
    (fun blocks ->
      let g = Gen.outerplanar ~blocks 3 in
      let r = Outerplanarity.run ~seed:1 ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
      assert r.Outerplanarity.verdict.Dip.accepted;
      Printf.printf "%8d %8d %12d %10d\n" blocks (Graph.n g)
        r.Outerplanarity.stats.Dip.proof_size_bits r.Outerplanarity.stats.Dip.interaction_rounds)
    [ 4; 16; 64; 256 ];
  print_engine_results (run_experiment "E4")

let e5 () =
  header "E5  Embedded planarity (Thm 1.4): the h(G,T,rho) reduction";
  Printf.printf "%8s %8s %12s %10s\n" "n" "m" "proof bits" "rounds";
  List.iter
    (fun n ->
      let g = Gen.planar ~n 5 in
      let rot = Option.get (Gen.embedding g) in
      let r =
        Planar_embedding.run ~seed:1 ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot }
      in
      assert r.Planar_embedding.verdict.Dip.accepted;
      Printf.printf "%8d %8d %12d %10d\n" n (Graph.m g) r.Planar_embedding.stats.Dip.proof_size_bits
        r.Planar_embedding.stats.Dip.interaction_rounds)
    [ 64; 256; 1024 ];
  print_engine_results (run_experiment "E5")

let e6 () =
  header "E6  Planarity (Thm 1.5): O(log log n + log Delta) proof size";
  Printf.printf "%-24s %8s %8s %12s %10s\n" "family" "n" "Delta" "proof bits" "rho bits";
  let bits_for x =
    let rec go w = if 1 lsl w > x then w else go (w + 1) in
    max 1 (go 1)
  in
  let run g name =
    let r = Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = g } in
    assert r.Planarity.verdict.Dip.accepted;
    (* the rho part of the round-1 label: forest setup plus one
       (rho_u, rho_v) pair of width log Delta per forest field *)
    let el = Edge_labels.create g in
    let rho_bits =
      Edge_labels.setup_width el
      + (Edge_labels.forests el * 2 * bits_for (max 1 (Graph.max_degree g - 1)))
    in
    Printf.printf "%-24s %8d %8d %12d %10d\n" name (Graph.n g) (Graph.max_degree g)
      r.Planarity.stats.Dip.proof_size_bits rho_bits
  in
  let wheel n =
    Graph.create ~n
      (List.init (n - 1) (fun i -> (0, i + 1))
      @ List.init (n - 2) (fun i -> (i + 1, i + 2))
      @ [ (n - 1, 1) ])
  in
  run (Gen.planar_bounded_degree ~n:256 1) "grid+diagonals";
  run (Gen.planar_bounded_degree ~n:1024 1) "grid+diagonals";
  run (Gen.planar ~n:256 1) "stacked triangulation";
  run (Gen.planar ~n:1024 1) "stacked triangulation";
  run (wheel 256) "wheel (Delta = n-1)";
  run (wheel 1024) "wheel (Delta = n-1)";
  print_engine_results (run_experiment "E6");
  print_endline "shape: within a family bits grow like log log n; the rho column grows";
  print_endline "       like log Delta across families (the additive term of Thm 1.5)."

let e7 () =
  header "E7  Series-parallel (Thm 1.6)";
  Printf.printf "%8s %8s %12s %10s\n" "size" "n" "proof bits" "rounds";
  List.iter
    (fun size ->
      let tr, g = Gen.series_parallel ~size 3 in
      let r =
        Series_parallel_dip.run ~seed:1 ~prover:Series_parallel_dip.Honest
          { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) }
      in
      assert r.Series_parallel_dip.verdict.Dip.accepted;
      Printf.printf "%8d %8d %12d %10d\n" size (Graph.n g)
        r.Series_parallel_dip.stats.Dip.proof_size_bits
        r.Series_parallel_dip.stats.Dip.interaction_rounds)
    [ 16; 64; 256; 1024 ];
  print_engine_results (run_experiment "E7")

let e8 () =
  header "E8  Treewidth <= 2 (Thm 1.7)";
  Printf.printf "%8s %8s %12s %10s\n" "blocks" "n" "proof bits" "rounds";
  List.iter
    (fun blocks ->
      let g = Gen.treewidth2 ~blocks 3 in
      let r = Treewidth2_dip.run ~seed:1 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
      assert r.Treewidth2_dip.verdict.Dip.accepted;
      Printf.printf "%8d %8d %12d %10d\n" blocks (Graph.n g)
        r.Treewidth2_dip.stats.Dip.proof_size_bits r.Treewidth2_dip.stats.Dip.interaction_rounds)
    [ 4; 16; 64 ];
  print_engine_results (run_experiment "E8")

let e9 () =
  header "E9  One-round lower bound (Thm 1.8): Omega(log n) label bits";
  Printf.printf "%8s %10s %22s %22s\n" "n" "log2 n" "soundness threshold" "completeness threshold";
  List.iter
    (fun n ->
      Printf.printf "%8d %10d %22d %22d\n" n (ceil_log2 n) (Lower_bound.soundness_threshold ~n)
        (Lower_bound.completeness_threshold ~n))
    [ 64; 256; 1024; 4096; 16384; 65536 ];
  print_endline "soundness: below the threshold the truncated 1-round scheme accepts a";
  print_endline "  fooling LR no-instance (a backward arc whose labels alias to increasing";
  print_endline "  residues); completeness: below it the truncated FFM+21-style scheme";
  print_endline "  rejects an honest long-chord yes-instance.  Both track ceil(log2 n)."

let e10 () =
  header "E10 Results table (Thms 1.2-1.7): rounds / bits / completeness / soundness";
  Printf.printf "%-24s %7s %11s %13s %10s\n" "protocol" "rounds" "proof bits" "completeness" "soundness";
  let trials = 25 in
  let row name (stats : Dip.stats) comp sound =
    Printf.printf "%-24s %7d %11d %12.0f%% %9.0f%%\n" name stats.Dip.interaction_rounds
      stats.Dip.proof_size_bits (100. *. comp) (100. *. sound)
  in
  (let n = 300 in
   let comp =
     List.init trials (fun s ->
         let path, arcs = Gen.lr_yes ~n s in
         (Lr_sorting.run ~seed:s ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs })
           .Lr_sorting.verdict.Dip.accepted)
   in
   let sound =
     List.init trials (fun s ->
         let path, arcs = Gen.lr_no ~n s in
         (Lr_sorting.run ~seed:s ~prover:Lr_sorting.Forge_pairs { Lr_sorting.n; path; arcs })
           .Lr_sorting.verdict.Dip.accepted)
   in
   let path, arcs = Gen.lr_yes ~n 0 in
   let r = Lr_sorting.run ~seed:0 ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs } in
   row "LR-sorting (L4.1)" r.Lr_sorting.stats (acceptance_rate comp) (rejection_rate sound));
  (let n = 200 in
   let comp =
     List.init trials (fun s ->
         let g, w = Gen.path_outerplanar ~n s in
         (Path_outerplanarity.run ~seed:s ~prover:Path_outerplanarity.Honest
            { Path_outerplanarity.graph = g; witness = Some w })
           .Path_outerplanarity.verdict.Dip.accepted)
   in
   let sound =
     List.init trials (fun s ->
         let g, w = Gen.path_crossing ~n s in
         (Path_outerplanarity.run ~seed:s ~prover:Path_outerplanarity.Crossing_sweep
            { Path_outerplanarity.graph = g; witness = Some w })
           .Path_outerplanarity.verdict.Dip.accepted)
   in
   let g, w = Gen.path_outerplanar ~n 0 in
   let r =
     Path_outerplanarity.run ~seed:0 ~prover:Path_outerplanarity.Honest
       { Path_outerplanarity.graph = g; witness = Some w }
   in
   row "path-outerpl. (T1.2)" r.Path_outerplanarity.stats (acceptance_rate comp) (rejection_rate sound));
  (let comp =
     List.init trials (fun s ->
         (Outerplanarity.run ~seed:s ~prover:Outerplanarity.Honest
            { Outerplanarity.graph = Gen.outerplanar ~blocks:5 s })
           .Outerplanarity.verdict.Dip.accepted)
   in
   let sound =
     List.init trials (fun s ->
         (Outerplanarity.run ~seed:s ~prover:Outerplanarity.Component_cheat
            { Outerplanarity.graph = Gen.outerplanar_no ~blocks:5 s })
           .Outerplanarity.verdict.Dip.accepted)
   in
   let r =
     Outerplanarity.run ~seed:0 ~prover:Outerplanarity.Honest
       { Outerplanarity.graph = Gen.outerplanar ~blocks:5 0 }
   in
   row "outerplanarity (T1.3)" r.Outerplanarity.stats (acceptance_rate comp) (rejection_rate sound));
  (let comp =
     List.init trials (fun s ->
         let g = Gen.planar ~n:60 s in
         let rot = Option.get (Gen.embedding g) in
         (Planar_embedding.run ~seed:s ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot })
           .Planar_embedding.verdict.Dip.accepted)
   in
   let sound =
     List.filter_map
       (fun s ->
         let g = Gen.planar ~n:60 s in
         Option.map
           (fun rot ->
             (Planar_embedding.run ~seed:s ~prover:Planar_embedding.Crossing_sweep
                { Planar_embedding.graph = g; rot })
               .Planar_embedding.verdict.Dip.accepted)
           (Gen.corrupted_embedding g (s + 1)))
       (List.init trials Fun.id)
   in
   let g = Gen.planar ~n:60 0 in
   let r =
     Planar_embedding.run ~seed:0 ~prover:Planar_embedding.Honest
       { Planar_embedding.graph = g; rot = Option.get (Gen.embedding g) }
   in
   row "planar embed. (T1.4)" r.Planar_embedding.stats (acceptance_rate comp) (rejection_rate sound));
  (let comp =
     List.init trials (fun s ->
         (Planarity.run ~seed:s ~prover:Planarity.Honest { Planarity.graph = Gen.planar ~n:60 s })
           .Planarity.verdict.Dip.accepted)
   in
   let sound =
     List.init trials (fun s ->
         (Planarity.run ~seed:s ~prover:Planarity.Best_rotation
            { Planarity.graph = Gen.nonplanar ~n:60 s })
           .Planarity.verdict.Dip.accepted)
   in
   let r = Planarity.run ~seed:0 ~prover:Planarity.Honest { Planarity.graph = Gen.planar ~n:60 0 } in
   row "planarity (T1.5)" r.Planarity.stats (acceptance_rate comp) (rejection_rate sound));
  (let comp =
     List.init trials (fun s ->
         let tr, g = Gen.series_parallel ~size:40 s in
         (Series_parallel_dip.run ~seed:s ~prover:Series_parallel_dip.Honest
            { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) })
           .Series_parallel_dip.verdict.Dip.accepted)
   in
   let sound =
     List.filter_map
       (fun s ->
         Option.map
           (fun (g, ears) ->
             (Series_parallel_dip.run ~seed:s ~prover:Series_parallel_dip.Ear_cheat
                { Series_parallel_dip.graph = g; ears = Some ears })
               .Series_parallel_dip.verdict.Dip.accepted)
           (Gen.series_parallel_no ~size:40 s))
       (List.init trials Fun.id)
   in
   let tr, g = Gen.series_parallel ~size:40 0 in
   let r =
     Series_parallel_dip.run ~seed:0 ~prover:Series_parallel_dip.Honest
       { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) }
   in
   row "series-par. (T1.6)" r.Series_parallel_dip.stats (acceptance_rate comp) (rejection_rate sound));
  (let comp =
     List.init trials (fun s ->
         (Treewidth2_dip.run ~seed:s ~prover:Treewidth2_dip.Honest
            { Treewidth2_dip.graph = Gen.treewidth2 ~blocks:4 s })
           .Treewidth2_dip.verdict.Dip.accepted)
   in
   let sound =
     List.filter_map
       (fun s ->
         Option.map
           (fun g ->
             (Treewidth2_dip.run ~seed:s ~prover:Treewidth2_dip.Component_cheat
                { Treewidth2_dip.graph = g })
               .Treewidth2_dip.verdict.Dip.accepted)
           (Gen.treewidth2_no ~blocks:4 s))
       (List.init trials Fun.id)
   in
   let r =
     Treewidth2_dip.run ~seed:0 ~prover:Treewidth2_dip.Honest
       { Treewidth2_dip.graph = Gen.treewidth2 ~blocks:4 0 }
   in
   row "treewidth<=2 (T1.7)" r.Treewidth2_dip.stats (acceptance_rate comp) (rejection_rate sound));
  print_endline "paper: 5 rounds, perfect completeness, 1/polylog(n) soundness error,";
  print_endline "       O(log log n) bits (planarity: + log Delta)."

let e11 () =
  header "E11 Reduction chart (Figure 2): composed sub-protocol traces";
  let g = Gen.planar ~n:100 4 in
  let r = Planarity.run ~seed:9 ~prover:Planarity.Honest { Planarity.graph = g } in
  let pe = r.Planarity.inner in
  let po = pe.Planar_embedding.inner in
  Printf.printf "planarity(T1.5)  n=%d  proof=%db  accepted=%b\n" (Graph.n g)
    r.Planarity.stats.Dip.proof_size_bits r.Planarity.verdict.Dip.accepted;
  Printf.printf "  -> planar-embedding(T1.4)  proof=%db\n" pe.Planar_embedding.stats.Dip.proof_size_bits;
  Printf.printf "     -> path-outerplanarity(T1.2) on h(G,T,rho)  proof=%db\n"
    po.Path_outerplanarity.stats.Dip.proof_size_bits;
  (match po.Path_outerplanarity.lr with
  | Some lr ->
      Printf.printf "        -> LR-sorting(L4.2)  n_h=%d  proof=%db  blocks=%d\n"
        lr.Lr_sorting.params.Lr_sorting.Params.n lr.Lr_sorting.stats.Dip.proof_size_bits
        lr.Lr_sorting.params.Lr_sorting.Params.nblocks
  | None -> print_endline "        -> (no LR sub-run)");
  let g = Gen.outerplanar ~blocks:3 2 in
  let r = Outerplanarity.run ~seed:9 ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
  Printf.printf "outerplanarity(T1.3)  n=%d  block protocols=%d  accepted=%b\n" (Graph.n g)
    (List.length r.Outerplanarity.component_results) r.Outerplanarity.verdict.Dip.accepted;
  let g = Gen.treewidth2 ~blocks:3 2 in
  let r = Treewidth2_dip.run ~seed:9 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
  Printf.printf "treewidth<=2(T1.7)  n=%d  SP components=%d  accepted=%b\n" (Graph.n g)
    (List.length r.Treewidth2_dip.component_results) r.Treewidth2_dip.verdict.Dip.accepted;
  List.iteri
    (fun i cr ->
      Printf.printf "  -> series-parallel(T1.6) #%d: host-ear nesting runs=%d\n" i
        (List.length cr.Series_parallel_dip.host_results))
    r.Treewidth2_dip.component_results

(* ------------------------------------------------------------------ *)
(* bechamel wall-clock benches                                          *)
(* ------------------------------------------------------------------ *)

let timing () =
  header "Timing (bechamel, monotonic clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let lr_inst =
    let path, arcs = Gen.lr_yes ~n:1024 7 in
    { Lr_sorting.n = 1024; path; arcs }
  in
  let po_inst =
    let g, w = Gen.path_outerplanar ~n:512 7 in
    { Path_outerplanarity.graph = g; witness = Some w }
  in
  let pe_inst =
    let g = Gen.planar ~n:200 7 in
    { Planar_embedding.graph = g; rot = Option.get (Gen.embedding g) }
  in
  let op_graph = Gen.outerplanar ~blocks:8 7 in
  let sp_inst =
    let tr, g = Gen.series_parallel ~size:100 7 in
    { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) }
  in
  let pl_graph = Gen.planar ~n:200 7 in
  let tests =
    Test.make_grouped ~name:"dipp" ~fmt:"%s %s"
      [
        Test.make ~name:"lr-sorting/1024"
          (Staged.stage (fun () -> ignore (Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest lr_inst)));
        Test.make ~name:"path-outerplanarity/512"
          (Staged.stage (fun () ->
               ignore (Path_outerplanarity.run ~seed:1 ~prover:Path_outerplanarity.Honest po_inst)));
        Test.make ~name:"planar-embedding/200"
          (Staged.stage (fun () ->
               ignore (Planar_embedding.run ~seed:1 ~prover:Planar_embedding.Honest pe_inst)));
        Test.make ~name:"planarity/200"
          (Staged.stage (fun () ->
               ignore (Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = pl_graph })));
        Test.make ~name:"outerplanarity/8-blocks"
          (Staged.stage (fun () ->
               ignore
                 (Outerplanarity.run ~seed:1 ~prover:Outerplanarity.Honest
                    { Outerplanarity.graph = op_graph })));
        Test.make ~name:"series-parallel/100"
          (Staged.stage (fun () ->
               ignore (Series_parallel_dip.run ~seed:1 ~prover:Series_parallel_dip.Honest sp_inst)));
        Test.make ~name:"dmp-embed/200" (Staged.stage (fun () -> ignore (Planar_test.embed pl_graph)));
      ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-36s %12.0f ns/run  (%8.2f ms)\n" name est (est /. 1e6)
      | _ -> Printf.printf "%-36s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Open questions (paper, end of section 1)                             *)
(* ------------------------------------------------------------------ *)

let open_questions () =
  header "OQ  Open questions: per-round communication breakdown";
  print_endline "Open Question 3 asks whether o(log log n) bits per node are possible;";
  print_endline "the per-phase maxima below show where our labels spend their bits:";
  Printf.printf "%8s | %s\n" "n" "per-phase max label bits (P = prover, V = verifier coins)";
  List.iter
    (fun n ->
      let path, arcs = Gen.lr_yes ~n 42 in
      let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs } in
      let cells =
        List.map
          (fun (ph, bits) ->
            Printf.sprintf "%s%d" (match ph with Dip.Prover_phase -> "P" | Dip.Verifier_phase -> "V") bits)
          r.Lr_sorting.stats.Dip.per_phase
      in
      Printf.printf "%8d | %s\n" n (String.concat "  " cells))
    [ 1024; 16384; 262144 ];
  print_endline "";
  print_endline "Open Question 1 (is the +log Delta term needed for planarity?): see the";
  print_endline "rho-bits column of E6 — exactly the term in question.";
  print_endline "Open Question 2 (rounds 2..4): the protocols here are locked to the";
  print_endline "5-round schedule P-V-P-V-P; every phase carries live content (above),";
  print_endline "so collapsing rounds would need a different commitment structure."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "A1  Ablation: soundness constant c (field sizes ~ (log n)^c)";
  Printf.printf "%4s %12s %12s %14s\n" "c" "proof bits" "field p" "escapes/60";
  List.iter
    (fun c ->
      let n = 300 in
      let path, arcs = Gen.lr_yes ~n 42 in
      let r = Lr_sorting.run ~seed:1 ~c ~prover:Lr_sorting.Honest { Lr_sorting.n; path; arcs } in
      let escapes = ref 0 in
      for seed = 0 to 59 do
        let path, arcs = Gen.lr_no ~n seed in
        let rr = Lr_sorting.run ~seed:((seed * 13) + 1) ~c ~prover:Lr_sorting.Shift_positions { Lr_sorting.n; path; arcs } in
        if rr.Lr_sorting.verdict.Dip.accepted then incr escapes
      done;
      Printf.printf "%4d %12d %12d %14d\n" c r.Lr_sorting.stats.Dip.proof_size_bits
        r.Lr_sorting.params.Lr_sorting.Params.p.Fp.p !escapes)
    [ 1; 2; 3; 4; 5 ];
  print_endline "larger c: wider fields (more bits), smaller soundness error.";

  header "A2  Ablation: block size B (paper: B = ceil(log n))";
  Printf.printf "%10s %10s %12s %10s\n" "block" "nblocks" "proof bits" "accepted";
  let n = 4096 in
  let path, arcs = Gen.lr_yes ~n 42 in
  let inst = { Lr_sorting.n; path; arcs } in
  let logn = ceil_log2 n in
  List.iter
    (fun block ->
      let r = Lr_sorting.run ~seed:1 ~c:2 ~block ~prover:Lr_sorting.Honest inst in
      Printf.printf "%10d %10d %12d %10b\n" block r.Lr_sorting.params.Lr_sorting.Params.nblocks
        r.Lr_sorting.stats.Dip.proof_size_bits r.Lr_sorting.verdict.Dip.accepted)
    [ logn; 2 * logn; 64; logn * logn ];
  print_endline "indices inside a block cost log(B) bits: B = log n is the sweet spot";
  print_endline "(B below log n cannot hold the position bits at all).";

  header "A3  Ablation: spanning-tree verification repetitions (Lemma 2.5)";
  Printf.printf "%6s %14s %16s\n" "reps" "label bits/rep" "escapes/100";
  List.iter
    (fun reps ->
      let escapes = ref 0 in
      for seed = 0 to 99 do
        let g = Graph.path_graph 40 in
        let parent = Array.init 40 (fun v -> if v = 0 || v = 20 then -1 else v - 1) in
        let verdict, _ = Spanning_tree_verify.run ~seed ~reps g ~parent in
        if verdict.Dip.accepted then incr escapes
      done;
      Printf.printf "%6d %14d %16d\n" reps 8 !escapes)
    [ 1; 2; 4; 8 ];
  print_endline "constant error per repetition, driven down exponentially (the paper's";
  print_endline "parallel-repetition black box); the protocols use Theta(log log n) reps."

(* ------------------------------------------------------------------ *)

(* The claim-vs-measured record: every declared-bounds registry row
   (lib/protocols/bounds.ml) instantiated at concrete sizes, checked
   with Dip.check_budget against a real honest run, and written as
   bounds_report.json (override the path with DIPP_BOUNDS_OUT) for CI
   to archive and diff. *)
(* Static refinement interval for a registry row: the refine pass
   (lib/analysis/refine.ml) run over the protocol's source, giving
   symbolic bounds on the widest single own-phase record_prover label.
   Evaluated at each concrete instance size this is the "inferred"
   column between the claimed envelope and the measured proof size.
   Note it bounds the per-phase label width, not the parallel-composition
   sum Dip.check_budget measures — sub-protocol sums stay a runtime
   matter, so inferred <= claimed while measured may exceed inferred. *)
let refine_program = lazy (try Some (Dipp_analysis.Typed_scan.load_tree "lib") with _ -> None)

let refine_interval =
  let cache = Hashtbl.create 16 in
  fun id ->
    match Hashtbl.find_opt cache id with
    | Some r -> r
    | None ->
        let r =
          let candidates = [ "lib/protocols/" ^ id ^ ".ml"; "lib/baselines/" ^ id ^ ".ml" ] in
          match (Lazy.force refine_program, List.find_opt Sys.file_exists candidates) with
          | Some program, Some file -> (
              try
                let src = In_channel.with_open_bin file In_channel.input_all in
                let structure = Dipp_analysis.Ast_scan.parse_file file in
                let annots = Dipp_analysis.Refine.annotations_of_source src in
                let res = Dipp_analysis.Refine.analyze ~program ~annots ~filename:file structure in
                Some (res.Dipp_analysis.Refine.label_lo, res.Dipp_analysis.Refine.label_hi)
              with _ -> None)
          | _ -> None
        in
        Hashtbl.replace cache id r;
        r

let bounds () =
  header "BOUNDS  declared budgets (Theorems 1.2-1.8) vs measured honest runs";
  let entries = ref [] in
  let record ~id ~n ~delta (stats : Dip.stats) =
    match Bounds.find id with
    | None -> failwith ("bounds experiment: no registry row for " ^ id)
    | Some row ->
        let b = Bounds.budget row ~n ~delta in
        let violations = Dip.check_budget b stats in
        let inferred =
          match refine_interval id with
          | None -> None
          | Some (lo, hi) ->
              let ev f = Option.join (Option.map (Dipp_analysis.Refine.eval_form ~n ~delta) f) in
              Some (ev lo, ev hi)
        in
        let inferred_str =
          match inferred with
          | Some (lo, hi) ->
              let s = function Some v -> string_of_int v | None -> "?" in
              Printf.sprintf "[%s, %s]" (s lo) (s hi)
          | None -> "-"
        in
        entries := (row, n, delta, b, stats, violations, inferred) :: !entries;
        Printf.printf "%-22s %-28s %7d %5d %9d %12s %10d  %s\n" row.Bounds.id row.Bounds.theorem
          n delta b.Dip.budget_proof_bits inferred_str stats.Dip.proof_size_bits
          (match violations with [] -> "ok" | _ :: _ -> "CLAIM VIOLATED")
  in
  Printf.printf "%-22s %-28s %7s %5s %9s %12s %10s\n" "protocol" "theorem" "n" "delta" "claimed"
    "inferred" "measured";
  List.iter
    (fun n ->
      let path, arcs = Gen.lr_yes ~n 42 in
      let inst = { Lr_sorting.n; path; arcs } in
      let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest inst in
      record ~id:"lr_sorting" ~n ~delta:2 r.Lr_sorting.stats;
      let pls = Pls_lr_sorting.run inst in
      record ~id:"pls_lr_sorting" ~n ~delta:2 pls.Pls_lr_sorting.stats)
    [ 256; 4096; 65536 ];
  List.iter
    (fun n ->
      let g, w = Gen.path_outerplanar ~n 11 in
      let r =
        Path_outerplanarity.run ~seed:2 ~prover:Path_outerplanarity.Honest
          { Path_outerplanarity.graph = g; witness = Some w }
      in
      record ~id:"path_outerplanarity" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
        r.Path_outerplanarity.stats;
      let pls = Pls_path_outerplanar.run { Pls_path_outerplanar.graph = g; witness = w } in
      record ~id:"pls_path_outerplanar" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
        pls.Pls_path_outerplanar.stats)
    [ 256; 4096 ];
  List.iter
    (fun blocks ->
      let g = Gen.outerplanar ~blocks 3 in
      let r = Outerplanarity.run ~seed:1 ~prover:Outerplanarity.Honest { Outerplanarity.graph = g } in
      record ~id:"outerplanarity" ~n:(Graph.n g) ~delta:(Graph.max_degree g) r.Outerplanarity.stats)
    [ 4; 64 ];
  List.iter
    (fun n ->
      let g = Gen.planar ~n 5 in
      let rot = Option.get (Gen.embedding g) in
      let r =
        Planar_embedding.run ~seed:1 ~prover:Planar_embedding.Honest
          { Planar_embedding.graph = g; rot }
      in
      record ~id:"planar_embedding" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
        r.Planar_embedding.stats)
    [ 64; 256 ];
  List.iter
    (fun (g, _name) ->
      let r = Planarity.run ~seed:1 ~prover:Planarity.Honest { Planarity.graph = g } in
      record ~id:"planarity" ~n:(Graph.n g) ~delta:(Graph.max_degree g) r.Planarity.stats)
    [ (Gen.planar_bounded_degree ~n:256 1, "grid+diagonals"); (Gen.planar ~n:256 1, "stacked") ];
  List.iter
    (fun size ->
      let tr, g = Gen.series_parallel ~size 3 in
      let r =
        Series_parallel_dip.run ~seed:1 ~prover:Series_parallel_dip.Honest
          { Series_parallel_dip.graph = g; ears = Some (Series_parallel.ears_of_sp tr) }
      in
      record ~id:"series_parallel_dip" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
        r.Series_parallel_dip.stats)
    [ 64; 256 ];
  List.iter
    (fun blocks ->
      let g = Gen.treewidth2 ~blocks 3 in
      let r = Treewidth2_dip.run ~seed:1 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
      record ~id:"treewidth2_dip" ~n:(Graph.n g) ~delta:(Graph.max_degree g) r.Treewidth2_dip.stats)
    [ 4; 16 ];
  let g = Gen.planar ~n:256 1 in
  let parent = Traversal.spanning_tree g 0 in
  let parent = Array.mapi (fun v pv -> if pv = v then -1 else pv) parent in
  let pls_st = Pls_spanning_tree.run g ~parent in
  record ~id:"pls_spanning_tree" ~n:(Graph.n g) ~delta:(Graph.max_degree g)
    pls_st.Pls_spanning_tree.stats;
  (* machine-readable record *)
  let out =
    match Sys.getenv_opt "DIPP_BOUNDS_OUT" with Some p -> p | None -> "bounds_report.json"
  in
  let oc = open_out out in
  let entries = List.rev !entries in
  let phases s = Format.asprintf "%a" Dip.pp_phases s in
  output_string oc "[";
  List.iteri
    (fun i (row, n, delta, (b : Dip.budget), (stats : Dip.stats), violations, inferred) ->
      let vstrings =
        List.map (fun vio -> Format.asprintf "%a" Dip.pp_budget_violation vio) violations
      in
      let inferred_json =
        match inferred with
        | None -> "null"
        | Some (lo, hi) ->
            let s = function Some v -> string_of_int v | None -> "null" in
            Printf.sprintf "{\"label_lo\": %s, \"label_hi\": %s}" (s lo) (s hi)
      in
      Printf.fprintf oc
        "%s\n\
        \  {\"protocol\": \"%s\", \"theorem\": \"%s\", \"family\": \"%s\", \"n\": %d, \
         \"delta\": %d,\n\
        \   \"claimed\": {\"rounds\": %d, \"schedule\": \"%s\", \"proof_bits\": %d, \
         \"floor_bits\": %d},\n\
        \   \"inferred\": %s,\n\
        \   \"measured\": {\"rounds\": %d, \"schedule\": \"%s\", \"proof_bits\": %d},\n\
        \   \"violations\": [%s], \"claim_violated\": %b}"
        (if i = 0 then "" else ",")
        row.Bounds.id row.Bounds.theorem row.Bounds.family n delta b.Dip.budget_rounds
        (phases b.Dip.budget_schedule) b.Dip.budget_proof_bits b.Dip.budget_floor_bits
        inferred_json stats.Dip.interaction_rounds (phases stats.Dip.phases)
        stats.Dip.proof_size_bits
        (String.concat ", " (List.map (fun s -> "\"" ^ s ^ "\"") vstrings))
        (match violations with [] -> false | _ :: _ -> true))
    entries;
  output_string oc "\n]\n";
  close_out oc;
  let violated =
    List.length
      (List.filter
         (fun (_, _, _, _, _, vs, _) -> match vs with [] -> false | _ :: _ -> true)
         entries)
  in
  Printf.printf "\nwrote %s: %d rows, %d with violated claims\n" out (List.length entries) violated

(* The full soundness table on the engine, plus the machine-readable
   record (trials_report.json; DIPP_TRIALS_OUT overrides the path).  The
   JSON is byte-identical for every --jobs value: wall-clock and worker
   count enter it only with DIPP_TRIALS_TIMING=1 (ANALYSIS.md, determinism
   contract). *)
let trials () =
  header "TRIALS  engine soundness record (E2-E8) -> trials_report.json";
  Label_cache.reset ();
  let seed = trials_seed () in
  let results = Engine.run_all ~jobs:(jobs ()) ~seed Soundness.specs in
  print_engine_results results;
  let timing =
    match Sys.getenv_opt "DIPP_TRIALS_TIMING" with Some "1" -> true | Some _ | None -> false
  in
  Engine.write_report ~timing ~seed results;
  let out =
    match Sys.getenv_opt "DIPP_TRIALS_OUT" with Some p -> p | None -> "trials_report.json"
  in
  Printf.printf "wrote %s: %d experiments%s\n" out (List.length results)
    (if timing then " (with timing fields)" else "");
  (* stdout only: the JSON stays byte-identical with the cache on or off *)
  print_endline (Label_cache.report ())

(* The fault-injection sweep on the network runtime (lib/net): every
   default protocol family executed across the fault-model grid, with the
   byte-identical-across---jobs faults_report.json record (DIPP_FAULTS_OUT
   overrides the path, DIPP_FAULTS_TRIALS the per-point trial count). *)
let faults () =
  header "FAULTS  acceptance under network faults (lib/net) -> faults_report.json";
  Label_cache.reset ();
  let seed = trials_seed () in
  let sw = Fault_sweep.default_sweep () in
  let points = Fault_sweep.run_sweep ~jobs:(jobs ()) ~seed sw in
  Fault_sweep.print_table points;
  let path = Fault_sweep.write_report ~seed points in
  Printf.printf "wrote %s: %d sweep points (seed=%d jobs=%d trials/point=%d)\n" path
    (List.length points) seed (jobs ()) sw.Fault_sweep.trials;
  (* stdout only: the JSON stays byte-identical with the cache on or off *)
  print_endline (Label_cache.report ())

(* Wall-clock for the four static passes (the full dipp-lint pipeline,
   then dipp-flow / dipp-refine / dipp-race in isolation) over the lib
   tree, written as BENCH_analysis.json (DIPP_ANALYSIS_OUT overrides the
   path).  The per-pass finding counts double as a sanity check: the
   full pipeline must report lib clean; the isolated passes report raw
   counts, before suppression filtering. *)
let analysis () =
  header "ANALYSIS  static-analyzer pass timings over lib -> BENCH_analysis.json";
  let module A = Dipp_analysis in
  let rec ml_files acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.filter (fun name -> name <> "" && name.[0] <> '.' && name <> "_build")
      |> List.fold_left (fun acc name -> ml_files acc (Filename.concat path name)) acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  let files = List.rev (ml_files [] "lib") in
  let parsed =
    List.filter_map
      (fun file ->
        try
          let src = In_channel.with_open_bin file In_channel.input_all in
          Some (file, src, A.Ast_scan.parse_file file)
        with _ -> None)
      files
  in
  let program = A.Typed_scan.empty () in
  List.iter
    (fun (file, _, structure) ->
      A.Typed_scan.add_structure ~file program ~modname:(A.Typed_scan.module_name file) structure)
    parsed;
  let time name f =
    let t0 = Unix.gettimeofday () in
    let findings = f () in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "%-8s %8.3fs %5d finding(s)\n" name wall (List.length findings);
    (name, wall, List.length findings)
  in
  (* bind each row before building the list: list literals evaluate
     right-to-left, which would reverse the stdout lines *)
  let lint = time "lint" (fun () -> A.Lint_rules.lint_tree "lib") in
  let flow =
    time "flow" (fun () ->
        List.concat_map (fun (_, _, structure) -> A.Flow.check ~program structure) parsed)
  in
  let refine =
    time "refine" (fun () ->
        List.concat_map
          (fun (file, src, structure) ->
            let annots = A.Refine.annotations_of_source src in
            A.Refine.check ~program ~annots ~filename:file structure)
          parsed)
  in
  let race =
    time "race" (fun () ->
        List.concat_map
          (fun (file, src, structure) ->
            let annots = A.Race.annotations_of_source src in
            A.Race.check ~program ~annots ~filename:file structure)
          parsed)
  in
  let rows = [ lint; flow; refine; race ] in
  let out =
    match Sys.getenv_opt "DIPP_ANALYSIS_OUT" with Some p -> p | None -> "BENCH_analysis.json"
  in
  let oc = open_out out in
  Printf.fprintf oc "{\"bench\": \"analysis\", \"tree\": \"lib\", \"files\": %d, \"passes\": ["
    (List.length parsed);
  List.iteri
    (fun i (name, wall, n) ->
      Printf.fprintf oc "%s\n  {\"pass\": \"%s\", \"wall_s\": %.6f, \"findings\": %d}"
        (if i = 0 then "" else ",")
        name wall n)
    rows;
  output_string oc "\n]}\n";
  close_out oc;
  Printf.printf "wrote %s: %d files, %d passes\n" out (List.length parsed) (List.length rows)

(* Batched verification service throughput: a fixed synthetic request
   stream over all seven families, answered once with both caches reset
   first.  The response digest and every cache counter are pure functions
   of the stream — identical for any --jobs value and with the label cache
   on or off — so BENCH_serve.json (DIPP_SERVE_OUT overrides the path)
   keeps all timing-dependent numbers inside its "timing" object and
   nothing else. *)
let serve () =
  header "SERVE  batched verification service -> BENCH_serve.json";
  let env row n =
    match Bounds.find row with
    | Some r -> Bounds.envelope r ~n ~delta:(max 2 (n - 1))
    | None -> invalid_arg ("no bounds row " ^ row)
  in
  let reqs = ref [] in
  let push family row n gseed seed =
    reqs := { Serve.family; n; gseed; seed; budget = env row n } :: !reqs
  in
  List.iter
    (fun (family, row, sizes) ->
      List.iter
        (fun n ->
          List.iter
            (fun gseed -> List.iter (fun seed -> push family row n gseed seed) [ 1; 2; 3 ])
            [ 1; 2 ])
        sizes)
    [
      ("lr", "lr_sorting", [ 64; 128 ]);
      ("path_outerplanarity", "path_outerplanarity", [ 48; 64 ]);
      ("outerplanarity", "outerplanarity", [ 32; 64 ]);
      ("planar_embedding", "planar_embedding", [ 24 ]);
      ("planarity", "planarity", [ 24 ]);
      ("series_parallel", "series_parallel_dip", [ 24; 40 ]);
      ("treewidth2", "treewidth2_dip", [ 32; 64 ]);
    ];
  let base = List.rev !reqs in
  (* replay a slice of the stream so the service sees exact-repeat hits *)
  let repeats = List.filteri (fun i _ -> i mod 6 = 0) base in
  let stream = Array.of_list (base @ repeats) in
  Label_cache.reset ();
  Serve.Prepared_cache.reset ();
  let t0 = Unix.gettimeofday () in
  let answers = Serve.execute ~jobs:(jobs ()) stream in
  let wall = Unix.gettimeofday () -. t0 in
  let p50, p99 = match Serve.latency_percentiles answers with Some ps -> ps | None -> (0., 0.) in
  let rps = float_of_int (Array.length answers) /. wall in
  Printf.printf "%5d req  %7.3fs  %8.1f req/s  p50=%6.3fms  p99=%6.3fms\n" (Array.length answers)
    wall rps (p50 *. 1e3) (p99 *. 1e3);
  let pc_lookups, pc_distinct, pc_resident, pc_capacity = Serve.Prepared_cache.stats () in
  let digest = Serve.log_digest (Serve.response_log answers) in
  Printf.printf "response digest %s\n" digest;
  print_endline (Serve.Prepared_cache.report () ^ "; " ^ Label_cache.report ());
  let out = match Sys.getenv_opt "DIPP_SERVE_OUT" with Some p -> p | None -> "BENCH_serve.json" in
  let oc = open_out out in
  Printf.fprintf oc "{\"bench\": \"serve\",\n";
  Printf.fprintf oc " \"requests\": %d,\n" (Array.length stream);
  Printf.fprintf oc " \"families\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") Serve.family_names));
  Printf.fprintf oc " \"response_digest\": \"%s\",\n" digest;
  Printf.fprintf oc
    " \"prepared_cache\": {\"lookups\": %d, \"distinct\": %d, \"resident\": %d, \"capacity\": %d},\n"
    pc_lookups pc_distinct pc_resident pc_capacity;
  Printf.fprintf oc
    " \"timing\": {\"jobs\": %d, \"wall_s\": %.6f, \"requests_per_sec\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}}\n"
    (jobs ()) wall rps (p50 *. 1e3) (p99 *. 1e3);
  close_out oc;
  Printf.fprintf stdout "wrote %s: %d requests, digest %s\n" out (Array.length stream)
    (String.sub digest 0 12)

(* Sharded network-engine scaling: the 10^3..10^6 planar instance ladder
   (10^6 behind DIPP_HEAVY=1) through full DIP round-trips on the
   {!Shard} engine at 1/2/4/8 shards.  Every result field is checked
   identical across the shard grid (and against the single-queue {!Net}
   engine, which agrees bit-for-bit under the reliable model), and a
   faulty probe re-checks invariance across shard counts, worker counts
   and partition seeds on the smallest rung.  BENCH_shard.json
   (DIPP_SHARD_OUT overrides the path) keeps wall-clock and events/s
   inside its "timing" object — everything outside it is byte-identical
   for any machine, DIPP_SHARDS and --jobs value. *)
let shard () =
  header "SHARD  sharded network engine scaling -> BENCH_shard.json";
  let heavy = match Sys.getenv_opt "DIPP_HEAVY" with Some "1" -> true | Some _ | None -> false in
  let ladder = [ 1_000; 10_000; 100_000 ] @ if heavy then [ 1_000_000 ] else [] in
  let shard_grid = [ 1; 2; 4; 8 ] in
  let families =
    [
      ("triangulated-grid", fun n -> Gen.triangulated_grid ~n 1);
      ("nested-triangulation", fun n -> Gen.nested_triangulation ~n 1);
    ]
  in
  let tree_parent g =
    let p = Traversal.spanning_tree g 0 in
    Array.mapi (fun v pv -> if pv = v then -1 else pv) p
  in
  let render (r : Net.result) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf
      "accepted=%b rejecting=[%s] crashed=[%s] heard=%.17g sent=%d delivered=%d dropped=%d \
       corrupted=%d duplicated=%d late=%d retransmits=%d acks=%d"
      r.Net.accepted (ints r.Net.rejecting) (ints r.Net.crashed_nodes) r.Net.heard r.Net.stats.Net.sent
      r.Net.stats.Net.delivered r.Net.stats.Net.dropped r.Net.stats.Net.corrupted
      r.Net.stats.Net.duplicated r.Net.stats.Net.late r.Net.stats.Net.retransmits r.Net.stats.Net.acks
  in
  Printf.printf "%-22s %9s %8s %7s %9s %10s %7s %10s\n" "family" "n" "shards" "windows" "events"
    "cross" "accept" "events/s";
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (fam, gen) ->
          let g = gen n in
          let proto = Net_protocols.pls_spanning_tree ~graph:g ~parent:(tree_parent g) in
          let reference = ref None in
          List.iter
            (fun shards ->
              let t0 = Unix.gettimeofday () in
              let r, st =
                Shard.execute_ex ~shards ~jobs:(jobs ()) ~rng:(Rng.create 42) ~model:Fault.reliable
                  proto
              in
              let wall = Unix.gettimeofday () -. t0 in
              let rendered = render r in
              let invariant =
                match !reference with
                | None ->
                    reference := Some rendered;
                    true
                | Some base -> String.equal base rendered
              in
              let eps = float_of_int st.Shard.events /. wall in
              let cross_frac =
                if st.Shard.events = 0 then 0.
                else float_of_int st.Shard.cross_messages /. float_of_int st.Shard.events
              in
              if not r.Net.accepted then
                failwith (Printf.sprintf "shard bench: %s n=%d rejected a yes-instance" fam n);
              if not invariant then
                failwith
                  (Printf.sprintf "shard bench: %s n=%d result differs at %d shards" fam n shards);
              Printf.printf "%-22s %9d %8d %7d %9d %10.4f %7b %10.0f\n" fam n st.Shard.shards
                st.Shard.windows st.Shard.events cross_frac r.Net.accepted eps;
              rows :=
                (fam, n, Graph.m g, st, cross_frac, r.Net.accepted, r.Net.heard, invariant, wall, eps)
                :: !rows)
            shard_grid;
          (* the single-queue engine must agree bit-for-bit under reliable *)
          let net_r = Net.execute ~rng:(Rng.create 42) ~model:Fault.reliable proto in
          if not (String.equal (render net_r) (Option.get !reference)) then
            failwith (Printf.sprintf "shard bench: %s n=%d diverges from Net.execute" fam n))
        families)
    ladder;
  (* faulty probe: shard count, worker count and partition seed must not
     change the result even when the fault streams are active *)
  let probe_g = Gen.triangulated_grid ~n:1_000 1 in
  let probe = Net_protocols.pls_spanning_tree ~graph:probe_g ~parent:(tree_parent probe_g) in
  let probe_run ~shards ~jobs ~partition_seed =
    render
      (Shard.execute ~shards ~jobs ~partition_seed ~rng:(Rng.create 7) ~model:(Fault.chaos ~rate:0.05)
         probe)
  in
  let probe_base = probe_run ~shards:1 ~jobs:1 ~partition_seed:0 in
  let probe_ok =
    List.for_all
      (fun (shards, jobs, partition_seed) ->
        String.equal probe_base (probe_run ~shards ~jobs ~partition_seed))
      [ (2, 1, 0); (4, 2, 0); (8, 4, 0); (4, 4, 3); (8, 1, 11) ]
  in
  Printf.printf "faulty probe (chaos 0.05, n=1000): %s\n"
    (if probe_ok then "invariant across shards/jobs/partition seeds" else "DIVERGED");
  if not probe_ok then failwith "shard bench: faulty probe diverged";
  let rows = List.rev !rows in
  let find_eps fam n shards =
    List.find_map
      (fun (f, n', _, st, _, _, _, _, _, eps) ->
        if String.equal f fam && n' = n && st.Shard.shards = shards then Some eps else None)
      rows
  in
  let speedup =
    match (find_eps "triangulated-grid" 100_000 8, find_eps "triangulated-grid" 100_000 1) with
    | Some e8, Some e1 when e1 > 0. -> e8 /. e1
    | _ -> 0.
  in
  Printf.printf "8-shard vs 1-shard events/s at n=100000 (grid): %.2fx (on %d core(s))\n" speedup
    (Domain.recommended_domain_count ());
  let out =
    match Sys.getenv_opt "DIPP_SHARD_OUT" with Some p -> p | None -> "BENCH_shard.json"
  in
  let oc = open_out out in
  Printf.fprintf oc "{\"bench\": \"shard\",\n";
  Printf.fprintf oc " \"ladder\": [%s],\n" (String.concat ", " (List.map string_of_int ladder));
  Printf.fprintf oc " \"heavy\": %b,\n" heavy;
  Printf.fprintf oc " \"shard_grid\": [%s],\n"
    (String.concat ", " (List.map string_of_int shard_grid));
  Printf.fprintf oc " \"probe_invariant\": %b,\n" probe_ok;
  Printf.fprintf oc " \"rows\": [";
  List.iteri
    (fun i (fam, n, m, st, cross_frac, accepted, heard, invariant, _, _) ->
      Printf.fprintf oc
        "%s\n\
        \  {\"family\": \"%s\", \"n\": %d, \"m\": %d, \"shards\": %d, \"windows\": %d, \
         \"events\": %d, \"cross_messages\": %d, \"cross_fraction\": %.6f, \"accepted\": %b, \
         \"heard\": %.6f, \"invariant\": %b}"
        (if i = 0 then "" else ",")
        fam n m st.Shard.shards st.Shard.windows st.Shard.events st.Shard.cross_messages cross_frac
        accepted heard invariant)
    rows;
  Printf.fprintf oc "\n ],\n";
  Printf.fprintf oc " \"timing\": {\"jobs\": %d, \"cores\": %d, \"speedup_8v1_grid_1e5\": %.4f,\n"
    (jobs ())
    (Domain.recommended_domain_count ())
    speedup;
  Printf.fprintf oc "  \"rows\": [";
  List.iteri
    (fun i (fam, n, _, st, _, _, _, _, wall, eps) ->
      Printf.fprintf oc
        "%s\n   {\"family\": \"%s\", \"n\": %d, \"shards\": %d, \"wall_s\": %.6f, \
         \"events_per_sec\": %.1f}"
        (if i = 0 then "" else ",")
        fam n st.Shard.shards wall eps)
    rows;
  Printf.fprintf oc "\n  ]}}\n";
  close_out oc;
  Printf.printf "wrote %s: %d rows (heavy=%b)\n" out (List.length rows) heavy

(* The one command table: execution order, dispatch, and the usage text
   all come from this list, so a new experiment needs exactly one row. *)
let commands =
  [
    ("e1", "LR-sorting proof-size scaling (Lemma 4.1)", e1);
    ("e2", "LR-sorting empirical soundness", e2);
    ("e3", "path-outerplanarity scaling + soundness (Thm 1.2)", e3);
    ("e4", "outerplanarity block-cut composition (Thm 1.3)", e4);
    ("e5", "embedded planarity reduction (Thm 1.4)", e5);
    ("e6", "planarity proof-size vs Delta (Thm 1.5)", e6);
    ("e7", "series-parallel (Thm 1.6)", e7);
    ("e8", "treewidth <= 2 (Thm 1.7)", e8);
    ("e9", "one-round lower bound thresholds (Thm 1.8)", e9);
    ("e10", "results table: rounds/bits/completeness/soundness", e10);
    ("e11", "reduction chart (Figure 2) sub-protocol traces", e11);
    ("ablation", "design-choice ablations A1-A3", ablation);
    ("open-questions", "per-round communication breakdown", open_questions);
    ("timing", "bechamel wall-clock benches", timing);
    ("bounds", "claim-vs-measured bounds_report.json", bounds);
    ("trials", "engine soundness trials -> trials_report.json", trials);
    ("faults", "fault-injection sweep -> faults_report.json", faults);
    ("analysis", "static-analyzer pass timings -> BENCH_analysis.json", analysis);
    ("serve", "batched verification service -> BENCH_serve.json", serve);
    ("shard", "sharded network engine scaling -> BENCH_shard.json", shard);
  ]

let find_command p =
  let p = String.lowercase_ascii p in
  List.find_opt (fun (name, _, _) -> String.equal name p) commands

let usage oc =
  output_string oc "usage: main.exe [--jobs N] [COMMAND ...]\ncommands:\n";
  List.iter (fun (name, doc, _) -> Printf.fprintf oc "  %-16s %s\n" name doc) commands;
  output_string oc "with no COMMAND, every experiment runs in order (see EXPERIMENTS.md).\n"

let () =
  (* peel --jobs N (anywhere) off the experiment picks; any other flag is
     an error (exit 2, the usage-error code shared with lib/analysis/cli) *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            jobs_override := Some j;
            parse acc rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer (got %s)\n" v;
            usage stderr;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects a positive integer\n";
        usage stderr;
        exit 2
    | ("--help" | "-h") :: _ ->
        usage stdout;
        exit 0
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        Printf.eprintf "unknown flag %s\n" flag;
        usage stderr;
        exit 2
    | p :: rest -> parse (p :: acc) rest
  in
  let picks = parse [] (List.tl (Array.to_list Sys.argv)) in
  (* reject any unknown command before running anything *)
  let unknown = List.filter (fun p -> Option.is_none (find_command p)) picks in
  (match unknown with
  | [] -> ()
  | _ :: _ ->
      List.iter (fun p -> Printf.eprintf "unknown command %s\n" p) unknown;
      usage stderr;
      exit 2);
  match picks with
  | _ :: _ ->
      List.iter (fun p -> match find_command p with Some (_, _, f) -> f () | None -> ()) picks
  | [] -> List.iter (fun (_, _, f) -> f ()) commands
