type instance = { graph : Graph.t }

type prover = Honest | Best_rotation

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  inner : Planar_embedding.result;
  transcript : (Dip.phase * Bits.t array) list;
}

let bits_for x =
  let rec go w = if 1 lsl w > x then w else go (w + 1) in
  max 1 (go 1)

let run ?(seed = 0) ?(c = 3) ?(retain = false) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then invalid_arg "Planarity.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  (* The claimed rotation system. *)
  let rot =
    match (prover, Dipp_graph.Planarity.embed g) with
    | Honest, Some r -> r
    | Honest, None -> Rotation.default g (* non-planar: no valid embedding exists *)
    | Best_rotation, _ -> (
        (* best effort: embed a maximal planar subgraph and default the rest *)
        match Dipp_graph.Planarity.embed g with Some r -> r | None -> Rotation.default g)
  in
  (* Round 1: the prover writes (rho_u(e), rho_v(e)) on every edge, homed in
     node labels via Lemma 2.4: O(log Delta) bits per node. *)
  let el = Edge_labels.create g in
  let wd = bits_for (max 1 (Graph.max_degree g - 1)) in
  let rho_index v u =
    let r = rot.Rotation.rot.(v) in
    let rec find i = if r.(i) = u then i else find (i + 1) in
    find 0
  in
  let edge_bits (u, v) =
    let w = Bits.Writer.create ~capacity:(2 * wd) () in
    Bits.Writer.int w ~width:wd (rho_index u v);
    Bits.Writer.int w ~width:wd (rho_index v u);
    Bits.Writer.contents w
  in
  let assignment = Edge_labels.assign el ~width:(2 * wd) edge_bits in
  let el_setup = Edge_labels.setup_labels el in
  (* Node-label writer, preallocated once from the registry envelope so
     a serve-path request never climbs the grow ladder. *)
  let node_cap =
    match Bounds.find "planarity" with
    | Some row -> Bounds.envelope row ~n ~delta:(max 2 (Graph.max_degree g))
    | None -> 64
  in
  let nw = Bits.Writer.create ~capacity:(max 64 node_cap) () in
  let r1_node v =
    Bits.Writer.reset nw;
    Bits.Writer.bits nw el_setup.(v);
    Bits.Writer.bits nw assignment.(v);
    Bits.Writer.contents nw
  in
  (* dipp-refine: width <= 16*loglog + 8*logdelta + 20 *)
  Dip.record_prover meter (Array.init n r1_node);
  (* Each node reconstructs its clockwise order from the rho values it can
     read (all its incident edges' labels) and checks they form a
     permutation of 0..deg-1; then the embedded-planarity protocol runs. *)
  let perm_ok =
    Dip.all_accept ~n (fun v ->
        let seen = Array.make (Graph.degree g v) false in
        Array.for_all
          (fun u ->
            let i = rho_index v u in
            if i < Array.length seen && not seen.(i) then begin
              seen.(i) <- true;
              true
            end
            else false)
          (Graph.neighbors g v))
  in
  let inner_prover : Planar_embedding.prover =
    match prover with Honest -> Planar_embedding.Honest | Best_rotation -> Planar_embedding.Crossing_sweep
  in
  let inner =
    Planar_embedding.run ~seed:(seed + 3) ~c ~prover:inner_prover
      { Planar_embedding.graph = g; rot }
  in
  let own = Dip.stats meter in
  let stats = Dip.merge_parallel [ own; inner.Planar_embedding.stats ] in
  let accepted = perm_ok.Dip.accepted && inner.Planar_embedding.verdict.Dip.accepted in
  {
    verdict =
      { Dip.accepted; rejecting = perm_ok.Dip.rejecting @ inner.Planar_embedding.verdict.Dip.rejecting };
    stats;
    inner;
    transcript = Dip.transcript meter;
  }
