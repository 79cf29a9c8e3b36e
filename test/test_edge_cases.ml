(* Edge cases across the protocol stack: degenerate sizes, invalid inputs,
   trivial families, and family relations. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- degenerate sizes -------------------------------------------------- *)

let test_lr_two_nodes () =
  let inst = { Lr_sorting.n = 2; path = [| 0; 1 |]; arcs = [] } in
  let r = Lr_sorting.run ~prover:Lr_sorting.Honest inst in
  Alcotest.(check bool) "n=2 accepted" true r.Lr_sorting.verdict.Dip.accepted

let test_path_op_single_edge () =
  let r =
    Path_outerplanarity.run ~prover:Path_outerplanarity.Honest
      { Path_outerplanarity.graph = Graph.path_graph 2; witness = Some [ 0; 1 ] }
  in
  Alcotest.(check bool) "single edge accepted" true r.Path_outerplanarity.verdict.Dip.accepted

let test_outerplanarity_triangle () =
  let r = Outerplanarity.run ~prover:Outerplanarity.Honest { Outerplanarity.graph = Graph.cycle_graph 3 } in
  Alcotest.(check bool) "triangle accepted" true r.Outerplanarity.verdict.Dip.accepted

let test_planarity_tree () =
  let r = Planarity.run ~prover:Planarity.Honest { Planarity.graph = Graph.star 9 } in
  Alcotest.(check bool) "tree accepted" true r.Planarity.verdict.Dip.accepted

let test_planar_embedding_path () =
  let g = Graph.path_graph 6 in
  let rot = Rotation.default g in
  Alcotest.(check bool) "path rotation planar" true (Rotation.is_planar_embedding rot);
  let r = Planar_embedding.run ~prover:Planar_embedding.Honest { Planar_embedding.graph = g; rot } in
  Alcotest.(check bool) "path accepted" true r.Planar_embedding.verdict.Dip.accepted

let test_sp_triangle () =
  let r =
    Series_parallel_dip.run ~prover:Series_parallel_dip.Honest
      { Series_parallel_dip.graph = Graph.cycle_graph 3; ears = None }
  in
  Alcotest.(check bool) "triangle accepted" true r.Series_parallel_dip.verdict.Dip.accepted

let test_tw2_path () =
  let r = Treewidth2_dip.run ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = Graph.path_graph 8 } in
  Alcotest.(check bool) "path accepted" true r.Treewidth2_dip.verdict.Dip.accepted

(* ---- invalid inputs ----------------------------------------------------- *)

let test_disconnected_rejected_by_api () =
  let g, _ = Graph.union_disjoint [ Graph.cycle_graph 3; Graph.cycle_graph 3 ] in
  Alcotest.check_raises "outerplanarity" (Invalid_argument "Outerplanarity.run: need a connected graph")
    (fun () -> ignore (Outerplanarity.run ~prover:Outerplanarity.Honest { Outerplanarity.graph = g }));
  Alcotest.check_raises "planarity" (Invalid_argument "Planarity.run: need a connected graph") (fun () ->
      ignore (Planarity.run ~prover:Planarity.Honest { Planarity.graph = g }))

let test_params_block_too_small () =
  Alcotest.check_raises "block < log n"
    (Invalid_argument "Lr_sorting.Params.make: block too small for position bits") (fun () ->
      ignore (Lr_sorting.Params.make ~block:3 4096))

(* ---- wrong-family cross checks ------------------------------------------ *)

let test_planarity_accepts_outerplanar () =
  (* outerplanar implies planar: the planarity protocol must accept *)
  let g = Gen.outerplanar ~blocks:3 4 in
  let r = Planarity.run ~seed:2 ~prover:Planarity.Honest { Planarity.graph = g } in
  Alcotest.(check bool) "outerplanar is planar" true r.Planarity.verdict.Dip.accepted

let test_outerplanarity_rejects_planar_nonouterplanar () =
  (* the 3x3 grid is planar but not outerplanar *)
  let rej = ref 0 in
  for seed = 0 to 9 do
    let r =
      Outerplanarity.run ~seed ~prover:Outerplanarity.Component_cheat { Outerplanarity.graph = Graph.grid 3 3 }
    in
    if not r.Outerplanarity.verdict.Dip.accepted then incr rej
  done;
  Alcotest.(check bool) "grid rejected" true (!rej >= 9)

let test_sp_rejects_grid () =
  let rej = ref 0 in
  for seed = 0 to 9 do
    let r =
      Series_parallel_dip.run ~seed ~prover:Series_parallel_dip.Ear_cheat
        { Series_parallel_dip.graph = Graph.grid 3 3; ears = None }
    in
    if not r.Series_parallel_dip.verdict.Dip.accepted then incr rej
  done;
  Alcotest.(check int) "grid rejected" 10 !rej

let test_tw2_accepts_outerplanar () =
  (* outerplanar implies treewidth <= 2 *)
  let g = Gen.outerplanar ~blocks:3 6 in
  let r = Treewidth2_dip.run ~seed:1 ~prover:Treewidth2_dip.Honest { Treewidth2_dip.graph = g } in
  Alcotest.(check bool) "outerplanar has tw <= 2" true r.Treewidth2_dip.verdict.Dip.accepted

let prop_family_inclusions =
  QCheck.Test.make ~name:"family chain: path-outerplanar => outerplanar => planar & tw<=2" ~count:25
    QCheck.(pair (int_bound 100000) (int_range 6 60))
    (fun (seed, n) ->
      let g, w = Gen.path_outerplanar ~n seed in
      Outerplanar.check_path_witness g w
      && Outerplanar.is_outerplanar g
      && Planar_test.is_planar g
      && Series_parallel.is_treewidth_le_2 g)

(* ---- seeds do not change verdicts on honest yes-instances ----------------- *)

let prop_seed_invariance =
  QCheck.Test.make ~name:"completeness holds for every seed (perfectness)" ~count:40
    QCheck.(triple (int_bound 100000) (int_bound 100000) (int_range 10 120))
    (fun (gseed, pseed, n) ->
      let g, w = Gen.path_outerplanar ~n gseed in
      (Path_outerplanarity.run ~seed:pseed ~prover:Path_outerplanarity.Honest
         { Path_outerplanarity.graph = g; witness = Some w })
        .Path_outerplanarity.verdict.Dip.accepted)

let () =
  Alcotest.run "edge_cases"
    [
      ( "degenerate sizes",
        [
          Alcotest.test_case "lr n=2" `Quick test_lr_two_nodes;
          Alcotest.test_case "path-op single edge" `Quick test_path_op_single_edge;
          Alcotest.test_case "outerplanarity triangle" `Quick test_outerplanarity_triangle;
          Alcotest.test_case "planarity tree" `Quick test_planarity_tree;
          Alcotest.test_case "embedding path" `Quick test_planar_embedding_path;
          Alcotest.test_case "sp triangle" `Quick test_sp_triangle;
          Alcotest.test_case "tw2 path" `Quick test_tw2_path;
        ] );
      ( "invalid inputs",
        [
          Alcotest.test_case "disconnected" `Quick test_disconnected_rejected_by_api;
          Alcotest.test_case "block too small" `Quick test_params_block_too_small;
        ] );
      ( "family relations",
        [
          Alcotest.test_case "planarity accepts outerplanar" `Quick test_planarity_accepts_outerplanar;
          Alcotest.test_case "outerplanarity rejects grid" `Quick test_outerplanarity_rejects_planar_nonouterplanar;
          Alcotest.test_case "sp rejects grid" `Quick test_sp_rejects_grid;
          Alcotest.test_case "tw2 accepts outerplanar" `Quick test_tw2_accepts_outerplanar;
          qtest prop_family_inclusions;
        ] );
      ("seed invariance", [ qtest prop_seed_invariance ]);
    ]
