(* Graph I/O, duals, the LR yes-instance / acyclicity correspondence, and
   per-phase stats. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Graph_io ------------------------------------------------------------ *)

let test_parse_basic () =
  let g = Graph_io.parse_edge_list "n 5\n0 1\n1 2\n# comment\n\n3 4\n" in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check bool) "edge" true (Graph.mem_edge g 3 4)

let test_parse_infers_n () =
  let g = Graph_io.parse_edge_list "0 7\n" in
  Alcotest.(check int) "n inferred" 8 (Graph.n g)

let test_parse_inline_comment () =
  let g = Graph_io.parse_edge_list "0 1 # the first edge\n" in
  Alcotest.(check int) "m" 1 (Graph.m g)

let test_parse_errors () =
  let raises name msg text =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Graph_io.parse_edge_list text))
  in
  raises "garbage" "Graph_io: line 1: expected a node id, got \"a\"" "a b";
  raises "three fields" "Graph_io: line 2: expected 'u v', got 3 fields" "0 1\n0 1 2";
  raises "negative id" "Graph_io: line 1: negative node id -3" "-3 1";
  raises "self-loop" "Graph_io: line 3: self-loop 4 4" "0 1\n1 2\n4 4";
  raises "bad n" "Graph_io: line 1: bad node count \"five\"" "n five\n0 1";
  raises "out of range" "Graph_io: line 3: node id 9 out of range (n = 5)" "n 5\n0 1\n2 9"

let test_read_file_error () =
  let path = Filename.temp_file "dipp" ".txt" in
  let oc = open_out path in
  output_string oc "0 1\nbroken line here\n";
  close_out oc;
  Alcotest.check_raises "path prefixed"
    (Invalid_argument (path ^ ": Graph_io: line 2: expected 'u v', got 3 fields"))
    (fun () -> ignore (Graph_io.read_file path));
  Sys.remove path

let test_read_file_range_error () =
  (* the streaming reader holds only (line, u, v) triples, so a range
     violation against a later-declared bound must still name the line the
     edge came from *)
  let path = Filename.temp_file "dipp" ".txt" in
  let oc = open_out path in
  output_string oc "n 3\n0 1\n1 5\n2 0\n";
  close_out oc;
  Alcotest.check_raises "stored line number"
    (Invalid_argument (path ^ ": Graph_io: line 3: node id 5 out of range (n = 3)"))
    (fun () -> ignore (Graph_io.read_file path));
  Sys.remove path

let test_size_cap () =
  (* a 13-byte file must not make the parser allocate for three billion
     nodes: a pinned count or a node id over the cap is a line-numbered
     Invalid_argument before any graph storage exists *)
  let cases =
    [
      ("n 3000000000\n", "line 1: node count 3000000000 exceeds the cap of 16777216 nodes");
      ("0 3000000000\n", "line 1: node id 3000000000 exceeds the cap of 16777216 nodes");
    ]
  in
  List.iter
    (fun (text, msg) ->
      Alcotest.(check int) "13-byte input" 13 (String.length text);
      Alcotest.check_raises ("parse " ^ String.trim text)
        (Invalid_argument ("Graph_io: " ^ msg))
        (fun () -> ignore (Graph_io.parse_edge_list text));
      let path = Filename.temp_file "dipp" ".txt" in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Alcotest.check_raises ("read_file " ^ String.trim text)
        (Invalid_argument (path ^ ": Graph_io: " ^ msg))
        (fun () -> ignore (Graph_io.read_file path));
      Sys.remove path)
    cases;
  (* node ids run 0 .. max_nodes - 1, and 10^6-node graphs stay admitted *)
  Alcotest.check_raises "first id past the cap"
    (Invalid_argument
       (Printf.sprintf "Graph_io: line 1: node id %d exceeds the cap of %d nodes"
          Graph_io.max_nodes Graph_io.max_nodes))
    (fun () -> ignore (Graph_io.parse_edge_list (Printf.sprintf "0 %d\n" Graph_io.max_nodes)));
  Alcotest.(check int) "10^6 nodes parse" 1_000_000
    (Graph.n (Graph_io.parse_edge_list "n 1000000\n0 999999\n"))

let test_read_file_streams_large () =
  (* a file bigger than any parser chunk: the two-pass CSR build must
     produce the same graph the string parser does *)
  let n = 20_000 in
  let buf = Buffer.create (n * 12) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  for v = 1 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d %d\n" v (v / 2))
  done;
  let text = Buffer.contents buf in
  let path = Filename.temp_file "dipp" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  let g = Graph_io.read_file path in
  Sys.remove path;
  Alcotest.(check int) "n" n (Graph.n g);
  Alcotest.(check int) "m" (n - 1) (Graph.m g);
  Alcotest.(check bool) "same graph as the string parser" true
    (Graph.equal g (Graph_io.parse_edge_list text))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"graph_io: to_edge_list / parse roundtrip" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 5 60))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      Graph.equal g (Graph_io.parse_edge_list (Graph_io.to_edge_list g)))

let test_file_roundtrip () =
  let g = Gen.outerplanar ~blocks:3 1 in
  let path = Filename.temp_file "dipp" ".txt" in
  Graph_io.write_file path g;
  let g' = Graph_io.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g')

let test_dot_output () =
  let g = Graph.cycle_graph 3 in
  let dot = Graph_io.to_dot ~highlight:[ (0, 1) ] g in
  Alcotest.(check bool) "graph kw" true (String.length dot > 0 && String.sub dot 0 5 = "graph");
  Alcotest.(check bool) "edge present" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains dot "0 -- 1 [color=red, penwidth=2];" && contains dot "1 -- 2;")

(* ---- dual graphs ----------------------------------------------------------- *)

let test_dual_cube () =
  (* the 3-cube: 8 nodes, 12 edges, 6 faces; its dual is the octahedron *)
  let cube =
    Graph.create ~n:8
      [ (0,1);(1,2);(2,3);(3,0);(4,5);(5,6);(6,7);(7,4);(0,4);(1,5);(2,6);(3,7) ]
  in
  match Planar_test.embed cube with
  | None -> Alcotest.fail "cube is planar"
  | Some rot ->
      let d = Rotation.dual rot in
      Alcotest.(check int) "6 dual nodes" 6 (Graph.n d);
      Alcotest.(check int) "12 dual edges" 12 (Graph.m d);
      Alcotest.(check bool) "dual planar" true (Planar_test.is_planar d);
      Alcotest.(check int) "octahedron degrees" 4 (Graph.max_degree d)

let prop_dual_planar =
  QCheck.Test.make ~name:"dual: dual of a planar embedding is planar and connected" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 8 50))
    (fun (seed, n) ->
      let g = Gen.planar ~n seed in
      match Planar_test.embed g with
      | Some rot ->
          let d = Rotation.dual rot in
          Traversal.is_connected d && Planar_test.is_planar d
      | None -> false)

(* ---- LR instances vs acyclicity ------------------------------------------- *)

(* Kahn's algorithm: does the digraph on 0..n-1 with these arcs admit a
   topological order? *)
let is_acyclic ~n arcs =
  let indeg = Array.make n 0 and out = Array.make n [] in
  List.iter
    (fun (u, v) ->
      out.(u) <- v :: out.(u);
      indeg.(v) <- indeg.(v) + 1)
    arcs;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      out.(u)
  done;
  !seen = n

let prop_lr_instances_vs_topo =
  QCheck.Test.make ~name:"lr instances are yes iff the digraph is a DAG" ~count:40
    QCheck.(triple (int_bound 10000) (int_range 10 80) bool)
    (fun (seed, n, yes) ->
      let path, arcs = if yes then Gen.lr_yes ~n seed else Gen.lr_no ~n seed in
      let inst = { Lr_sorting.n; path; arcs } in
      let path_arcs = List.init (n - 1) (fun i -> (path.(i), path.(i + 1))) in
      Lr_sorting.is_yes_instance inst = is_acyclic ~n (path_arcs @ arcs))

(* ---- per-phase stats ---------------------------------------------------------- *)

let test_per_phase_shape () =
  let path, arcs = Gen.lr_yes ~n:200 1 in
  let r = Lr_sorting.run ~seed:1 ~prover:Lr_sorting.Honest { Lr_sorting.n = 200; path; arcs } in
  let phases = List.map fst r.Lr_sorting.stats.Dip.per_phase in
  Alcotest.(check (list bool)) "P-V-P-V-P"
    [ true; false; true; false; true ]
    (List.map (fun p -> p = Dip.Prover_phase) phases);
  List.iter
    (fun (_, bits) -> Alcotest.(check bool) "phase carries content" true (bits > 0))
    r.Lr_sorting.stats.Dip.per_phase;
  let max_phase = List.fold_left (fun acc (_, b) -> max acc b) 0 r.Lr_sorting.stats.Dip.per_phase in
  Alcotest.(check bool) "proof size = max prover phase" true
    (max_phase >= r.Lr_sorting.stats.Dip.proof_size_bits)

let () =
  Alcotest.run "io"
    [
      ( "graph-io",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "infer n" `Quick test_parse_infers_n;
          Alcotest.test_case "inline comment" `Quick test_parse_inline_comment;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "read_file error" `Quick test_read_file_error;
          Alcotest.test_case "read_file range error line number" `Quick
            test_read_file_range_error;
          Alcotest.test_case "read_file streams a large file" `Quick test_read_file_streams_large;
          Alcotest.test_case "size cap" `Quick test_size_cap;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "dot" `Quick test_dot_output;
          qtest prop_io_roundtrip;
        ] );
      ( "dual",
        [ Alcotest.test_case "cube/octahedron" `Quick test_dual_cube; qtest prop_dual_planar ] );
      ("topological-sort", [ qtest prop_lr_instances_vs_topo ]);
      ("per-phase", [ Alcotest.test_case "shape" `Quick test_per_phase_shape ]);
    ]
