(* Graph substrate: structure, traversal, biconnectivity, degeneracy,
   coloring, forest decomposition. *)

let qtest = QCheck_alcotest.to_alcotest

let random_connected_graph seed ~n ~extra =
  (* random spanning tree + extra random edges *)
  let rng = Rng.create seed in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let edges = ref [] in
  for i = 1 to n - 1 do
    edges := (perm.(i), perm.(Rng.int rng i)) :: !edges
  done;
  for _ = 1 to extra do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then edges := (a, b) :: !edges
  done;
  Graph.create ~n (List.map (fun (a, b) -> Graph.normalize_edge a b) !edges)

let graph_arb =
  QCheck.make
    ~print:(fun (seed, n, extra) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n extra)
    QCheck.Gen.(triple (int_bound 10000) (int_range 2 60) (int_bound 80))

(* ---- Graph basics --------------------------------------------------- *)

let test_create_dedup () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 0); (2, 3); (2, 3) ] in
  Alcotest.(check int) "m" 2 (Graph.m g)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop") (fun () ->
      ignore (Graph.create ~n:3 [ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Graph: node out of range") (fun () ->
      ignore (Graph.create ~n:3 [ (0, 5) ]))

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_mem_edge () =
  let g = Graph.cycle_graph 6 in
  Alcotest.(check bool) "member" true (Graph.mem_edge g 5 0);
  Alcotest.(check bool) "not member" false (Graph.mem_edge g 0 3);
  Alcotest.(check bool) "self" false (Graph.mem_edge g 2 2)

let test_constructions () =
  Alcotest.(check int) "path m" 9 (Graph.m (Graph.path_graph 10));
  Alcotest.(check int) "cycle m" 10 (Graph.m (Graph.cycle_graph 10));
  Alcotest.(check int) "K5 m" 10 (Graph.m (Graph.complete 5));
  Alcotest.(check int) "K33 m" 9 (Graph.m (Graph.complete_bipartite 3 3));
  Alcotest.(check int) "grid m" 12 (Graph.m (Graph.grid 3 3));
  Alcotest.(check int) "star deg" 9 (Graph.degree (Graph.star 10) 0)

let test_subdivide () =
  let g = Graph.subdivide (Graph.complete 4) ~times:2 in
  Alcotest.(check int) "n" (4 + (6 * 2)) (Graph.n g);
  Alcotest.(check int) "m" (6 * 3) (Graph.m g);
  Alcotest.(check int) "max degree preserved" 3 (Graph.max_degree g)

let test_induced () =
  let g = Graph.complete 5 in
  let sub, back = Graph.induced g [ 1; 3; 4 ] in
  Alcotest.(check int) "n" 3 (Graph.n sub);
  Alcotest.(check int) "m" 3 (Graph.m sub);
  Alcotest.(check (array int)) "back map" [| 1; 3; 4 |] back

let test_relabel () =
  let g = Graph.path_graph 3 in
  let g' = Graph.relabel g ~perm:[| 2; 0; 1 |] in
  Alcotest.(check bool) "edge 2-0" true (Graph.mem_edge g' 2 0);
  Alcotest.(check bool) "edge 0-1" true (Graph.mem_edge g' 0 1);
  Alcotest.(check bool) "no edge 2-1" false (Graph.mem_edge g' 2 1)

let test_union_disjoint () =
  let g, maps = Graph.union_disjoint [ Graph.path_graph 3; Graph.cycle_graph 3 ] in
  Alcotest.(check int) "n" 6 (Graph.n g);
  Alcotest.(check int) "m" 5 (Graph.m g);
  Alcotest.(check int) "offset" 3 maps.(1).(0)

let prop_degree_sum =
  QCheck.Test.make ~name:"graph: sum of degrees = 2m" ~count:100 graph_arb (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      let sum = List.fold_left (fun acc v -> acc + Graph.degree g v) 0 (List.init n Fun.id) in
      sum = 2 * Graph.m g)

let prop_edges_normalized =
  QCheck.Test.make ~name:"graph: edges normalized and unique" ~count:100 graph_arb
    (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      let es = Graph.edges g in
      List.for_all (fun (u, v) -> u < v) es && List.length (List.sort_uniq compare es) = List.length es)

(* ---- Traversal ------------------------------------------------------ *)

let test_bfs_distances () =
  let g = Graph.grid 3 3 in
  let d = Traversal.bfs g 0 in
  Alcotest.(check int) "corner" 4 d.(8);
  Alcotest.(check int) "center" 2 d.(4);
  Alcotest.(check int) "self" 0 d.(0)

let test_components () =
  let g = Graph.create ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let comp, k = Traversal.components g in
  Alcotest.(check int) "count" 3 k;
  Alcotest.(check bool) "same comp" true (comp.(2) = comp.(4));
  Alcotest.(check bool) "diff comp" true (comp.(0) <> comp.(5))

let test_spanning_tree () =
  let g = Graph.grid 4 4 in
  let p = Traversal.spanning_tree g 0 in
  Alcotest.(check int) "root self" 0 p.(0);
  (* every node reaches the root *)
  for v = 0 to 15 do
    let rec climb u steps =
      if steps > 16 then false else if u = 0 then true else climb p.(u) (steps + 1)
    in
    Alcotest.(check bool) "reaches root" true (climb v 0)
  done

let test_ham_path_of_edges () =
  Alcotest.(check (option (list int)))
    "path" (Some [ 0; 1; 2; 3 ])
    (Traversal.hamiltonian_path_of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]);
  Alcotest.(check (option (list int)))
    "branching rejected" None
    (Traversal.hamiltonian_path_of_edges ~n:4 [ (0, 1); (1, 2); (1, 3) ]);
  Alcotest.(check (option (list int)))
    "cycle+path rejected" None
    (Traversal.hamiltonian_path_of_edges ~n:5 [ (0, 1); (2, 3); (3, 4); (2, 4) ]);
  Alcotest.(check (option (list int))) "single node" (Some [ 0 ]) (Traversal.hamiltonian_path_of_edges ~n:1 [])

(* ---- Biconnectivity -------------------------------------------------- *)

let test_biconnected_cycle () =
  Alcotest.(check bool) "cycle" true (Biconnectivity.is_biconnected (Graph.cycle_graph 8));
  Alcotest.(check bool) "path" false (Biconnectivity.is_biconnected (Graph.path_graph 5));
  Alcotest.(check bool) "K4" true (Biconnectivity.is_biconnected (Graph.complete 4))

let test_cut_vertices () =
  (* two triangles sharing node 2 *)
  let g = Graph.create ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  let bc = Biconnectivity.compute g in
  Alcotest.(check int) "components" 2 (Array.length bc.Biconnectivity.components);
  Alcotest.(check bool) "cut 2" true bc.Biconnectivity.cut_vertex.(2);
  Alcotest.(check bool) "not cut 0" false bc.Biconnectivity.cut_vertex.(0)

let test_block_cut_rooted () =
  let g = Graph.create ~n:7 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4); (4, 5); (5, 6); (4, 6) ] in
  let bc = Biconnectivity.compute g in
  let rooted = Biconnectivity.root bc ~root_block:0 in
  let depths = Array.to_list rooted.Biconnectivity.block_depth in
  Alcotest.(check (list int)) "depths" [ 0; 1; 2 ] (List.sort Int.compare depths)

let prop_block_edges_partition =
  QCheck.Test.make ~name:"biconnectivity: blocks partition the edges" ~count:60 graph_arb
    (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      let bc = Biconnectivity.compute g in
      let all = List.concat (Array.to_list bc.Biconnectivity.component_edges) in
      List.sort compare all = Graph.edges g)

let prop_cut_vertex_truth =
  QCheck.Test.make ~name:"biconnectivity: cut vertices disconnect" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound 10000) (int_range 4 25)))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bc = Biconnectivity.compute g in
      List.for_all
        (fun v ->
          let others = List.filter (fun u -> u <> v) (List.init n Fun.id) in
          let sub, _ = Graph.induced g others in
          let disconnects = not (Traversal.is_connected sub) in
          bc.Biconnectivity.cut_vertex.(v) = disconnects)
        (List.init n Fun.id))

(* ---- Chain decomposition (Schmidt) ------------------------------------ *)

let test_chains_cycle () =
  match Biconnectivity.chain_decomposition (Graph.cycle_graph 6) with
  | Some [ chain ] ->
      Alcotest.(check int) "one chain, closed" 7 (List.length chain);
      Alcotest.(check bool) "cycle" true (List.hd chain = List.nth chain 6)
  | _ -> Alcotest.fail "cycle has exactly one chain"

let test_chains_tree () =
  Alcotest.(check bool) "tree has no chains" true
    (Biconnectivity.chain_decomposition (Graph.star 6) = None)

let prop_chains_agree_with_tarjan =
  QCheck.Test.make ~name:"biconnectivity: Schmidt agrees with Tarjan" ~count:80 graph_arb
    (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      Biconnectivity.is_biconnected g = Biconnectivity.is_biconnected_chains g)

let prop_chains_are_open_ears =
  QCheck.Test.make ~name:"biconnectivity: chains of a biconnected graph are open ears" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 4 40))
    (fun (seed, n) ->
      let g = Gen.biconnected_outerplanar ~n seed in
      match Biconnectivity.chain_decomposition g with
      | Some (first :: rest) ->
          let covered = Hashtbl.create 16 in
          List.iter (fun v -> Hashtbl.replace covered v ()) first;
          List.hd first = List.nth first (List.length first - 1)
          && List.for_all
               (fun chain ->
                 match chain with
                 | a :: _ ->
                     let b = List.nth chain (List.length chain - 1) in
                     let interior = List.filteri (fun i _ -> i > 0 && i < List.length chain - 1) chain in
                     let ok =
                       a <> b
                       && Hashtbl.mem covered a && Hashtbl.mem covered b
                       && List.for_all (fun v -> not (Hashtbl.mem covered v)) interior
                     in
                     List.iter (fun v -> Hashtbl.replace covered v ()) interior;
                     ok
                 | [] -> false)
               rest
      | _ -> false)

(* ---- Degeneracy / coloring / forests --------------------------------- *)

let test_degeneracy_values () =
  Alcotest.(check int) "tree" 1 (snd (Degeneracy.ordering (Graph.path_graph 10)));
  Alcotest.(check int) "cycle" 2 (snd (Degeneracy.ordering (Graph.cycle_graph 10)));
  Alcotest.(check int) "K5" 4 (snd (Degeneracy.ordering (Graph.complete 5)))

let test_planar_degeneracy_le_5 () =
  for seed = 0 to 9 do
    let g = Gen.planar ~n:80 seed in
    Alcotest.(check bool) "<= 5" true (snd (Degeneracy.ordering g) <= 5)
  done

let prop_coloring_proper =
  QCheck.Test.make ~name:"coloring: greedy is proper" ~count:60 graph_arb (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      Coloring.is_proper g (Coloring.greedy g))

let prop_coloring_degeneracy_bound =
  QCheck.Test.make ~name:"coloring: <= degeneracy + 1 colors" ~count:60 graph_arb
    (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      let colors = Coloring.greedy g in
      let _, d = Degeneracy.ordering g in
      Array.for_all (fun c -> c <= d) colors)

let prop_forest_decomposition_valid =
  QCheck.Test.make ~name:"forest decomposition: valid partition into forests" ~count:60 graph_arb
    (fun (seed, n, extra) ->
      let g = random_connected_graph seed ~n ~extra in
      Forest_decomposition.is_valid g (Forest_decomposition.compute g))

let test_forest_planar_count () =
  for seed = 0 to 9 do
    let g = Gen.planar ~n:60 seed in
    let d = Forest_decomposition.compute g in
    Alcotest.(check bool) "<= 5 forests" true (d.Forest_decomposition.forests <= 5)
  done

let test_forest_of_edge () =
  let g = Graph.cycle_graph 5 in
  let d = Forest_decomposition.compute g in
  Graph.iter_edges
    (fun (u, v) ->
      match Forest_decomposition.forest_of_edge d u v with
      | Some (f, child) ->
          Alcotest.(check bool) "child endpoint" true (child = u || child = v);
          Alcotest.(check bool) "forest in range" true (f >= 0 && f < d.Forest_decomposition.forests)
      | None -> Alcotest.fail "edge not covered")
    g

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "dedup" `Quick test_create_dedup;
          Alcotest.test_case "self loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "out of range" `Quick test_out_of_range_rejected;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "constructions" `Quick test_constructions;
          Alcotest.test_case "subdivide" `Quick test_subdivide;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "union disjoint" `Quick test_union_disjoint;
          qtest prop_degree_sum;
          qtest prop_edges_normalized;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs_distances;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
          Alcotest.test_case "hamiltonian path of edges" `Quick test_ham_path_of_edges;
        ] );
      ( "biconnectivity",
        [
          Alcotest.test_case "biconnected" `Quick test_biconnected_cycle;
          Alcotest.test_case "cut vertices" `Quick test_cut_vertices;
          Alcotest.test_case "rooted block-cut" `Quick test_block_cut_rooted;
          qtest prop_block_edges_partition;
          qtest prop_cut_vertex_truth;
          Alcotest.test_case "chains: cycle" `Quick test_chains_cycle;
          Alcotest.test_case "chains: tree" `Quick test_chains_tree;
          qtest prop_chains_agree_with_tarjan;
          qtest prop_chains_are_open_ears;
        ] );
      ( "degeneracy-coloring-forests",
        [
          Alcotest.test_case "degeneracy values" `Quick test_degeneracy_values;
          Alcotest.test_case "planar degeneracy <= 5" `Quick test_planar_degeneracy_le_5;
          qtest prop_coloring_proper;
          qtest prop_coloring_degeneracy_bound;
          qtest prop_forest_decomposition_valid;
          Alcotest.test_case "planar forests <= 5" `Quick test_forest_planar_count;
          Alcotest.test_case "forest_of_edge" `Quick test_forest_of_edge;
        ] );
    ]
