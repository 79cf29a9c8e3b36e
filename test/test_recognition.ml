(* Recognition algorithms: rotation systems / face tracing, DMP planarity,
   outerplanarity, series-parallel, treewidth <= 2. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Rotation / Euler ------------------------------------------------ *)

let test_faces_triangle () =
  let g = Graph.cycle_graph 3 in
  let rot = Rotation.default g in
  Alcotest.(check int) "two faces" 2 (Rotation.face_count rot);
  Alcotest.(check bool) "planar" true (Rotation.is_planar_embedding rot)

let test_faces_count_dart_cover () =
  let g = Graph.grid 3 3 in
  let rot = Option.get (Planar_test.embed g) in
  let total_darts = List.fold_left (fun acc f -> acc + List.length f) 0 (Rotation.faces rot) in
  Alcotest.(check int) "every dart once" (2 * Graph.m g) total_darts

let test_k4_embeddings () =
  (* K4 has exactly 2 of 16 parent-fixed rotation systems planar *)
  let g = Graph.complete 4 in
  let rots_of v =
    match Array.to_list (Graph.neighbors g v) with
    | x :: rest ->
        let rec perms = function
          | [] -> [ [] ]
          | l -> List.concat_map (fun e -> List.map (fun p -> e :: p) (perms (List.filter (( <> ) e) l))) l
        in
        List.map (fun p -> Array.of_list (x :: p)) (perms rest)
    | [] -> [ [||] ]
  in
  let count = ref 0 in
  List.iter
    (fun r0 ->
      List.iter
        (fun r1 ->
          List.iter
            (fun r2 ->
              List.iter
                (fun r3 ->
                  if Rotation.is_planar_embedding (Rotation.create g [| r0; r1; r2; r3 |]) then incr count)
                (rots_of 3))
            (rots_of 2))
        (rots_of 1))
    (rots_of 0);
  Alcotest.(check int) "2 planar rotations" 2 !count

let test_rotation_validation () =
  let g = Graph.path_graph 3 in
  Alcotest.check_raises "bad rotation"
    (Invalid_argument "Rotation.create: rot.(v) not a permutation of neighbors") (fun () ->
      ignore (Rotation.create g [| [| 1 |]; [| 0; 0 |]; [| 1 |] |]))

let test_corrupt_swap_invalid () =
  let g = Graph.grid 4 4 in
  let rot = Option.get (Planar_test.embed g) in
  match Rotation.corrupt_swap rot (Rng.create 3) with
  | Some bad -> Alcotest.(check bool) "nonzero genus" false (Rotation.is_planar_embedding bad)
  | None -> Alcotest.fail "expected a corruption"

(* ---- Planarity -------------------------------------------------------- *)

let test_planarity_known () =
  Alcotest.(check bool) "K4" true (Planar_test.is_planar (Graph.complete 4));
  Alcotest.(check bool) "K5" false (Planar_test.is_planar (Graph.complete 5));
  Alcotest.(check bool) "K33" false (Planar_test.is_planar (Graph.complete_bipartite 3 3));
  Alcotest.(check bool) "K5 subdivided" false (Planar_test.is_planar (Graph.subdivide (Graph.complete 5) ~times:3));
  Alcotest.(check bool) "K33 subdivided" false (Planar_test.is_planar (Graph.subdivide (Graph.complete_bipartite 3 3) ~times:2));
  Alcotest.(check bool) "grid" true (Planar_test.is_planar (Graph.grid 7 9));
  Alcotest.(check bool) "tree" true (Planar_test.is_planar (Graph.star 30));
  Alcotest.(check bool) "petersen" false
    (Planar_test.is_planar
       (Graph.create ~n:10
          [ (0,1);(1,2);(2,3);(3,4);(4,0);(5,7);(7,9);(9,6);(6,8);(8,5);(0,5);(1,6);(2,7);(3,8);(4,9) ]))

let test_planarity_disconnected () =
  let g, _ = Graph.union_disjoint [ Graph.complete 4; Graph.cycle_graph 5 ] in
  Alcotest.(check bool) "disconnected planar" true (Planar_test.is_planar g);
  let g2, _ = Graph.union_disjoint [ Graph.complete 5; Graph.cycle_graph 5 ] in
  Alcotest.(check bool) "disconnected nonplanar" false (Planar_test.is_planar g2)

let test_embed_valid () =
  List.iter
    (fun g ->
      match Planar_test.embed g with
      | Some rot -> Alcotest.(check bool) "genus 0" true (Rotation.is_planar_embedding rot)
      | None -> Alcotest.fail "planar graph must embed")
    [ Graph.complete 4; Graph.grid 5 5; Graph.cycle_graph 9; Graph.star 12; Gen.planar ~n:100 3 ]

(* Pins every rotation system [Planar_test.embed] returns on a fixed corpus:
   a rewrite of the DMP loop must reproduce them byte for byte, because the
   honest prover of Theorem 1.5 and every planarity golden build on them. *)
let embed_corpus_digest =
  "7fdd4170275fcd7df044556330432ddfd9559964ff4af1bdd984a66396576ed9"

let test_embed_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add g =
    (match Planar_test.embed g with
    | None -> Buffer.add_string b "none"
    | Some rot ->
        Array.iter
          (fun r ->
            Array.iter (fun w -> Buffer.add_string b (string_of_int w ^ ",")) r;
            Buffer.add_char b ';')
          rot.Rotation.rot);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun n ->
      for seed = 1 to 10 do
        add (Gen.planar ~n seed);
        add (Gen.planar_bounded_degree ~n seed);
        (* [Gen.nonplanar] splices a 15-node subdivided K5: n >= 20 only. *)
        if n >= 20 then add (Gen.nonplanar ~n seed)
      done)
    [ 8; 33; 64; 160 ];
  List.iter add
    [
      Graph.complete 4;
      Graph.complete 5;
      Graph.complete_bipartite 3 3;
      Graph.grid 9 11;
      Graph.subdivide (Graph.complete 5) ~times:2;
    ];
  Alcotest.(check string) "embedding corpus digest" embed_corpus_digest (Sha256.hex (Buffer.contents b))

let prop_generated_planar_embeds =
  QCheck.Test.make ~name:"planarity: generated planar graphs embed with genus 0" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 80))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Planar_test.embed g with
      | Some rot -> Rotation.is_planar_embedding rot
      | None -> false)

let prop_nonplanar_detected =
  QCheck.Test.make ~name:"planarity: spliced K5 detected" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 25 60))
    (fun (seed, n) -> not (Planar_test.is_planar (Gen.nonplanar ~n seed)))

let prop_euler_bound =
  QCheck.Test.make ~name:"planarity: embedded graphs satisfy m <= 3n - 6" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      Graph.m g <= (3 * Graph.n g) - 6 || Graph.n g < 3)

(* ---- Outerplanarity --------------------------------------------------- *)

let test_outerplanar_known () =
  Alcotest.(check bool) "cycle" true (Outerplanar.is_outerplanar (Graph.cycle_graph 9));
  Alcotest.(check bool) "path" true (Outerplanar.is_outerplanar (Graph.path_graph 9));
  Alcotest.(check bool) "K4" false (Outerplanar.is_outerplanar (Graph.complete 4));
  Alcotest.(check bool) "K23" false (Outerplanar.is_outerplanar (Graph.complete_bipartite 2 3));
  Alcotest.(check bool) "grid 2xk" true (Outerplanar.is_outerplanar (Graph.grid 2 2));
  Alcotest.(check bool) "grid 3x3" false (Outerplanar.is_outerplanar (Graph.grid 3 3))

let test_ham_cycle_extraction () =
  for seed = 0 to 9 do
    let g = Gen.biconnected_outerplanar ~n:20 seed in
    match Outerplanar.hamiltonian_cycle g with
    | Some cyc ->
        Alcotest.(check int) "covers all" 20 (List.length (List.sort_uniq Int.compare cyc));
        let arr = Array.of_list cyc in
        let k = Array.length arr in
        for i = 0 to k - 1 do
          Alcotest.(check bool) "cycle edge" true (Graph.mem_edge g arr.(i) arr.((i + 1) mod k))
        done
    | None -> Alcotest.fail "biconnected outerplanar has a Hamiltonian cycle"
  done

let test_ham_cycle_none_for_k4 () =
  Alcotest.(check bool) "K4 has no outerplanar ham cycle" true
    (Outerplanar.hamiltonian_cycle (Graph.complete 4) = None)

let test_check_path_witness () =
  let g = Graph.create ~n:6 [ (0,1);(1,2);(2,3);(3,4);(4,5);(0,3);(0,5) ] in
  Alcotest.(check bool) "nested ok" true (Outerplanar.check_path_witness g [0;1;2;3;4;5]);
  let bad = Graph.add_edges g [ (1, 4) ] in
  Alcotest.(check bool) "crossing detected" false (Outerplanar.check_path_witness bad [0;1;2;3;4;5]);
  Alcotest.(check bool) "not a ham path" false (Outerplanar.check_path_witness g [0;1;2;3;5;4])

let test_check_witness_shared_endpoints () =
  (* edges sharing endpoints never cross *)
  let g = Graph.create ~n:5 [ (0,1);(1,2);(2,3);(3,4);(0,2);(0,3);(0,4) ] in
  Alcotest.(check bool) "fan nests" true (Outerplanar.check_path_witness g [0;1;2;3;4])

let test_triangulate_known () =
  (* the 5-cycle triangulates to 2n-3 = 7 edges *)
  match Outerplanar.triangulate (Graph.cycle_graph 5) with
  | Some t ->
      Alcotest.(check int) "edges" 7 (Graph.m t);
      Alcotest.(check bool) "outerplanar" true (Outerplanar.is_outerplanar t)
  | None -> Alcotest.fail "cycle triangulates"

let test_triangulate_rejects_k4 () =
  Alcotest.(check bool) "K4" true (Outerplanar.triangulate (Graph.complete 4) = None);
  Alcotest.(check bool) "path" true (Outerplanar.triangulate (Graph.path_graph 5) = None)

let prop_triangulate_maximal =
  QCheck.Test.make ~name:"outerplanar: triangulate reaches m = 2n - 3 and stays outerplanar"
    ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      match Outerplanar.triangulate g with
      | Some t ->
          Graph.m t = (2 * Graph.n t) - 3
          && Outerplanar.is_outerplanar t
          && Biconnectivity.is_biconnected t
          && List.for_all (fun e -> List.mem e (Graph.edges t)) (Graph.edges g)
      | None -> false)

let prop_maximal_outerplanar_path_witness =
  QCheck.Test.make ~name:"outerplanar: maximal graphs still admit nesting paths" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 4 30))
    (fun (seed, n) ->
      let g = Gen.maximal_outerplanar ~n seed in
      match Outerplanar.path_witness g with
      | Some w -> Outerplanar.check_path_witness g w
      | None -> false)

let prop_path_witness_valid =
  QCheck.Test.make ~name:"outerplanar: generated witnesses verify" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 5 80))
    (fun (seed, n) ->
      let g, w = Gen.path_outerplanar ~n seed in
      Outerplanar.check_path_witness g w)

let prop_find_path_witness =
  QCheck.Test.make ~name:"outerplanar: path_witness found on biconnected blocks" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 5 40))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      match Outerplanar.path_witness g with
      | Some p -> Outerplanar.check_path_witness g p
      | None -> false)

let prop_crossing_instances_rejected =
  QCheck.Test.make ~name:"outerplanar: K4-triple instances are not outerplanar" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 10 60))
    (fun (seed, n) ->
      let g, _ = Gen.path_crossing ~n seed in
      not (Outerplanar.is_outerplanar g))

(* ---- Series-parallel / treewidth -------------------------------------- *)

let test_sp_known () =
  Alcotest.(check bool) "K4" false (Series_parallel.is_series_parallel (Graph.complete 4));
  Alcotest.(check bool) "path" true (Series_parallel.is_series_parallel (Graph.path_graph 6));
  Alcotest.(check bool) "cycle" true (Series_parallel.is_series_parallel (Graph.cycle_graph 6));
  Alcotest.(check bool) "theta" true
    (Series_parallel.is_series_parallel (Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(1,3) ]));
  Alcotest.(check bool) "K4 subdivided" false
    (Series_parallel.is_series_parallel (Graph.subdivide (Graph.complete 4) ~times:1))

let test_tw2_known () =
  Alcotest.(check bool) "K4" false (Series_parallel.is_treewidth_le_2 (Graph.complete 4));
  Alcotest.(check bool) "tree" true (Series_parallel.is_treewidth_le_2 (Graph.star 10));
  Alcotest.(check bool) "cycle" true (Series_parallel.is_treewidth_le_2 (Graph.cycle_graph 10));
  Alcotest.(check bool) "grid3" false (Series_parallel.is_treewidth_le_2 (Graph.grid 3 3));
  Alcotest.(check bool) "K4 subdivided" false
    (Series_parallel.is_treewidth_le_2 (Graph.subdivide (Graph.complete 4) ~times:2))

let test_sp_decompose_terminals () =
  let g = Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(1,3) ] in
  match Series_parallel.decompose g with
  | Some t ->
      let s, e = Series_parallel.terminals t in
      Alcotest.(check bool) "terminals are nodes" true (s >= 0 && s < 4 && e >= 0 && e < 4 && s <> e)
  | None -> Alcotest.fail "theta graph is SP"

let prop_sp_recognition_roundtrip =
  QCheck.Test.make ~name:"sp: generated SP graphs are recognized" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 60))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Series_parallel.is_series_parallel g)

let prop_sp_graph_of_decompose =
  QCheck.Test.make ~name:"sp: decompose reproduces the edge set" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      match Series_parallel.decompose g with
      | Some t -> Graph.equal g (Series_parallel.graph_of_sp ~n:(Graph.n g) t)
      | None -> false)

let prop_ears_valid =
  QCheck.Test.make ~name:"sp: ears_of_sp passes check_nested_ears" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 60))
    (fun (seed, size) ->
      let tr, g = Gen.series_parallel ~size seed in
      Series_parallel.check_nested_ears g (Series_parallel.ears_of_sp tr))

let prop_ears_from_recognition =
  QCheck.Test.make ~name:"sp: ears from decompose pass the checker" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      match Series_parallel.decompose g with
      | Some t -> Series_parallel.check_nested_ears g (Series_parallel.ears_of_sp t)
      | None -> false)

let prop_sp_implies_tw2 =
  QCheck.Test.make ~name:"sp: series-parallel implies treewidth <= 2" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 50))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Series_parallel.is_treewidth_le_2 g)

let prop_sp_implies_planar =
  QCheck.Test.make ~name:"sp: series-parallel implies planar" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 4 50))
    (fun (seed, size) ->
      let _, g = Gen.series_parallel ~size seed in
      Planar_test.is_planar g)

let test_check_nested_ears_rejects () =
  (* ear with interior node reused *)
  let g = Graph.create ~n:4 [ (0,1);(1,2);(2,3);(0,3);(0,2) ] in
  Alcotest.(check bool) "bad decomposition rejected" false
    (Series_parallel.check_nested_ears g [ [0;1;2]; [0;1;3] ]);
  (* edges not partitioned *)
  Alcotest.(check bool) "missing edges rejected" false
    (Series_parallel.check_nested_ears g [ [0;1;2;3] ])

let () =
  Alcotest.run "recognition"
    [
      ( "rotation",
        [
          Alcotest.test_case "triangle faces" `Quick test_faces_triangle;
          Alcotest.test_case "dart cover" `Quick test_faces_count_dart_cover;
          Alcotest.test_case "K4 embeddings" `Quick test_k4_embeddings;
          Alcotest.test_case "validation" `Quick test_rotation_validation;
          Alcotest.test_case "corrupt swap" `Quick test_corrupt_swap_invalid;
        ] );
      ( "planarity",
        [
          Alcotest.test_case "known graphs" `Quick test_planarity_known;
          Alcotest.test_case "disconnected" `Quick test_planarity_disconnected;
          Alcotest.test_case "embeddings valid" `Quick test_embed_valid;
          Alcotest.test_case "embedding digest" `Quick test_embed_digest;
          qtest prop_generated_planar_embeds;
          qtest prop_nonplanar_detected;
          qtest prop_euler_bound;
        ] );
      ( "outerplanarity",
        [
          Alcotest.test_case "known graphs" `Quick test_outerplanar_known;
          Alcotest.test_case "ham cycle extraction" `Quick test_ham_cycle_extraction;
          Alcotest.test_case "K4 no cycle" `Quick test_ham_cycle_none_for_k4;
          Alcotest.test_case "path witness checker" `Quick test_check_path_witness;
          Alcotest.test_case "shared endpoints" `Quick test_check_witness_shared_endpoints;
          Alcotest.test_case "triangulate cycle" `Quick test_triangulate_known;
          Alcotest.test_case "triangulate rejects" `Quick test_triangulate_rejects_k4;
          qtest prop_triangulate_maximal;
          qtest prop_maximal_outerplanar_path_witness;
          qtest prop_path_witness_valid;
          qtest prop_find_path_witness;
          qtest prop_crossing_instances_rejected;
        ] );
      ( "series-parallel",
        [
          Alcotest.test_case "known graphs" `Quick test_sp_known;
          Alcotest.test_case "treewidth known" `Quick test_tw2_known;
          Alcotest.test_case "terminals" `Quick test_sp_decompose_terminals;
          Alcotest.test_case "bad ears rejected" `Quick test_check_nested_ears_rejects;
          qtest prop_sp_recognition_roundtrip;
          qtest prop_sp_graph_of_decompose;
          qtest prop_ears_valid;
          qtest prop_ears_from_recognition;
          qtest prop_sp_implies_tw2;
          qtest prop_sp_implies_planar;
        ] );
    ]
