type instance = { graph : Graph.t }

type prover = Honest | Component_cheat | Merge_components

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  component_results : Path_outerplanarity.result list;
  transcript : (Dip.phase * Bits.t array) list;
}

(* ------------------------------------------------------------------ *)
(* Theorem 6.1: biconnected outerplanarity.                            *)
(* ------------------------------------------------------------------ *)

let cycle_to_path_from cyc ~start_ =
  (* cut the cycle at an edge incident to [start_] so the path begins there
     (any node when [start_ = None]) *)
  let arr = Array.of_list cyc in
  let k = Array.length arr in
  let s =
    match start_ with
    | None -> 0
    | Some v ->
        let rec find i = if arr.(i) = v then i else find (i + 1) in
        find 0
  in
  List.init k (fun i -> arr.((s + i) mod k))

let biconnected_witness ?start_ g =
  let n = Graph.n g in
  if n = 1 then Some [ 0 ]
  else if n = 2 then
    Some (match start_ with Some 1 -> [ 1; 0 ] | _ -> [ 0; 1 ])
  else
    match Outerplanar.hamiltonian_cycle g with
    | Some cyc -> Some (cycle_to_path_from cyc ~start_)
    | None -> None

let run_biconnected ?(seed = 0) ?(c = 3) ?param_n ?retain ~prover g =
  let witness = biconnected_witness g in
  let result =
    Path_outerplanarity.run ~seed ~c ?param_n ?retain ~prover
      { Path_outerplanarity.graph = g; witness }
  in
  (* Theorem 6.1's extra condition: the committed path's endpoints are
     adjacent (P closes into the Hamiltonian cycle).  The closing edge is
     marked by the prover; each endpoint checks the mark on one of its
     incident edges.  Here: endpoints of the committed path verify
     adjacency. *)
  let closing_ok =
    match witness with
    | Some (first :: _ as w) when List.length w >= 3 ->
        Graph.mem_edge g first (List.nth w (List.length w - 1))
    | Some _ -> true
    | None -> false
  in
  if closing_ok then result
  else
    {
      result with
      Path_outerplanarity.verdict = { Dip.accepted = false; rejecting = [ 0 ] };
    }

(* ------------------------------------------------------------------ *)
(* Theorem 1.3: general outerplanarity via the block-cut tree.         *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0) ?(c = 3) ?(retain = false) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n = 0 || not (Traversal.is_connected g) then invalid_arg "Outerplanarity.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  let rng = Rng.create (seed + 101) in
  let pa = Lr_sorting.Params.make ~c n in
  let nb = Fp.bit_width pa.Lr_sorting.Params.p in
  let bc = Biconnectivity.compute g in
  let k = Array.length bc.Biconnectivity.components in
  let rooted = Biconnectivity.root bc ~root_block:0 in

  (* -------- per-component Hamiltonian paths P_C ---------------------- *)
  (* P_C starts at the C-separating node (any node for the root block). *)
  let comp_paths =
    Array.init k (fun b ->
        let nodes = bc.Biconnectivity.components.(b) in
        let sub, back = Graph.induced g nodes in
        let sep = rooted.Biconnectivity.separating.(b) in
        let start_ =
          if sep < 0 then None
          else
            let rec pos i = function
              | [] -> None
              | x :: r -> if x = sep then Some i else pos (i + 1) r
            in
            pos 0 (Array.to_list back)
        in
        match biconnected_witness ?start_ sub with
        | Some p -> Some (List.map (fun v -> back.(v)) p)
        | None -> None)
  in
  (* Merge_components cheat: drop one separating node's special role by
     splicing its two components' paths into one claimed component. *)
  let cheat_merge = prover = Merge_components && k >= 2 in

  (* -------- spanning structure F = union of the P_C ------------------ *)
  let parent = Array.make n (-1) in
  let assigned = Array.make n false in
  Array.iteri
    (fun b path ->
      match path with
      | Some p ->
          let rec chain = function
            | a :: (bnode :: _ as rest) ->
                (* orient towards the separating node: parent = predecessor *)
                if not assigned.(bnode) then begin
                  parent.(bnode) <- a;
                  assigned.(bnode) <- true
                end;
                chain rest
            | _ -> ()
          in
          ignore b;
          chain p
      | None -> ())
    comp_paths;
  let parent =
    if not cheat_merge then parent
    else begin
      (* claim the separating node of block 1 is interior: re-root block 1's
         path away from the junction, leaving two roots *)
      let p = Array.copy parent in
      (match comp_paths.(min 1 (k - 1)) with
      | Some (first :: second :: _) ->
          if p.(second) = first then p.(second) <- -1
      | _ -> ());
      p
    end
  in
  let enc = Forest_encoding.encode g ~parent in
  let cbits = Forest_encoding.color_bits enc in
  let cut_bit = bc.Biconnectivity.cut_vertex in
  (* leaders: the node after the separating node on each P_C (first node for
     the root block) *)
  let leader = Array.make n false in
  Array.iteri
    (fun b path ->
      match (path, rooted.Biconnectivity.separating.(b)) with
      | Some (first :: _), s when s < 0 -> leader.(first) <- true
      | Some (_ :: second :: _), _ -> leader.(second) <- true
      | _ -> ())
    comp_paths;
  (* Node-label writer, preallocated once from the registry envelope so
     a serve-path request never climbs the grow ladder. *)
  let node_cap =
    match Bounds.find "outerplanarity" with
    | Some row -> Bounds.envelope row ~n ~delta:(max 2 (Graph.max_degree g))
    | None -> 64
  in
  let nw = Bits.Writer.create ~capacity:(max 64 node_cap) () in
  let r1_node v =
    Bits.Writer.reset nw;
    Bits.Writer.bits nw (Forest_encoding.to_bits ~cbits enc.(v));
    Bits.Writer.bool nw cut_bit.(v);
    Bits.Writer.bool nw leader.(v);
    Bits.Writer.contents nw
  in
  (* dipp-refine: width <= 10*loglog + 10 *)
  Dip.record_prover meter (Array.init n r1_node);

  (* -------- verifier coins: ST coins + sep/lead samples --------------- *)
  let reps = max 2 (nb / 2) in
  let st_coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits:4 ~parent (Rng.split rng 1) in
  let samples =
    Array.init n (fun v ->
        if cut_bit.(v) || leader.(v) then Some (Bits.random (Rng.split rng (500 + v)) nb) else None)
  in
  let st_coin_bits = Spanning_tree_verify.coins_to_bits ~tag_bits:4 st_coins in
  Dip.record_verifier meter
    (Array.init n (fun v ->
         Bits.concat [ st_coin_bits.(v); (match samples.(v) with Some s -> s | None -> Bits.empty) ]));

  (* -------- prover response: ST + sep/lead broadcasts ------------------ *)
  let st_resp = Spanning_tree_verify.honest_response ~reps ~parent st_coins in
  let blk_of = Array.make n (-1) in
  Array.iteri
    (fun b nodes ->
      List.iter
        (fun v -> if (not cut_bit.(v)) || rooted.Biconnectivity.separating.(b) <> v then blk_of.(v) <- b)
        nodes)
    bc.Biconnectivity.components;
  let sep_tag b =
    let s = rooted.Biconnectivity.separating.(b) in
    if s < 0 then Bits.empty else Option.value ~default:Bits.empty samples.(s)
  in
  let lead_tag = Array.make k Bits.empty in
  Array.iteri
    (fun b path ->
      match (path, rooted.Biconnectivity.separating.(b)) with
      | Some (first :: _), s when s < 0 -> lead_tag.(b) <- Option.value ~default:Bits.empty samples.(first)
      | Some (_ :: second :: _), _ -> lead_tag.(b) <- Option.value ~default:Bits.empty samples.(second)
      | _ -> ())
    comp_paths;
  let sep_of v = if blk_of.(v) >= 0 then sep_tag blk_of.(v) else Bits.empty in
  let lead_of v = if blk_of.(v) >= 0 then lead_tag.(blk_of.(v)) else Bits.empty in
  let st_resp_bits = Spanning_tree_verify.response_to_bits ~tag_bits:4 st_resp in
  let r3_node v =
    Bits.Writer.reset nw;
    Bits.Writer.bits nw st_resp_bits.(v);
    Bits.Writer.bits nw (sep_of v);
    Bits.Writer.bits nw (lead_of v);
    Bits.Writer.contents nw
  in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter (Array.init n r3_node);

  (* -------- per-component Theorem 6.1 runs ----------------------------- *)
  let comp_prover : Path_outerplanarity.prover =
    match prover with
    | Honest | Merge_components -> Path_outerplanarity.Honest
    | Component_cheat -> Path_outerplanarity.Crossing_sweep
  in
  let component_results =
    List.filter_map
      (fun b ->
        let nodes = bc.Biconnectivity.components.(b) in
        if List.length nodes < 3 then None
        else begin
          let sub, back = Graph.induced g nodes in
          let witness =
            Option.map
              (fun p ->
                let inv = Array.make n (-1) in
                Array.iteri (fun i orig -> inv.(orig) <- i) back;
                List.map (fun v -> inv.(v)) p)
              comp_paths.(b)
          in
          let r =
            Path_outerplanarity.run ~seed:(seed + (13 * b)) ~c ~param_n:n ~prover:comp_prover
              { Path_outerplanarity.graph = sub; witness }
          in
          (* Theorem 6.1 closing-edge check *)
          let closing_ok =
            match witness with
            | Some (first :: _ as w) when List.length w >= 3 ->
                Graph.mem_edge sub first (List.nth w (List.length w - 1))
            | Some _ -> true
            | None -> false
          in
          Some
            (if closing_ok then r
             else { r with Path_outerplanarity.verdict = { Dip.accepted = false; rejecting = [ 0 ] } })
        end)
      (List.init k Fun.id)
  in

  (* -------- verification of the decomposition stage -------------------- *)
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  let verify v =
    let ok = ref true in
    let fail () = ok := false in
    if
      not
        (Spanning_tree_verify.verify_node ~reps ~parent ~children ~graph:g ~coins:st_coins
           ~response:st_resp v)
    then fail ();
    (* sep/lead sampled bits are echoed correctly *)
    (match samples.(v) with
    | Some s ->
        if leader.(v) && not (Bits.equal (lead_of v) s) then fail ();
        (* a cut node checks the sep tags of the components it leads into
           through its F-children *)
        if cut_bit.(v) then
          List.iter
            (fun ch ->
              if leader.(ch) && blk_of.(ch) >= 0 && not (Bits.equal (sep_of ch) s) then fail ())
            children.(v)
    | None -> ());
    (* a non-cut node's G-neighbors are all in its own component *)
    if not cut_bit.(v) then
      Array.iter
        (fun u ->
          let same = Bits.equal (sep_of u) (sep_of v) && Bits.equal (lead_of u) (lead_of v) in
          let u_is_my_sep = cut_bit.(u) && (match samples.(u) with Some s -> Bits.equal (sep_of v) s | None -> false) in
          if not (same || u_is_my_sep) then fail ())
        (Graph.neighbors g v);
    !ok
  in
  let structural = Dip.all_accept ~n verify in
  let comp_ok =
    List.for_all (fun r -> r.Path_outerplanarity.verdict.Dip.accepted) component_results
  in
  let verdict = { Dip.accepted = structural.Dip.accepted && comp_ok; rejecting = structural.Dip.rejecting } in
  let comp_stats = List.map (fun r -> r.Path_outerplanarity.stats) component_results in
  let max_comp =
    List.fold_left
      (fun acc s ->
        {
          acc with
          Dip.proof_size_bits = max acc.Dip.proof_size_bits s.Dip.proof_size_bits;
          max_node_total_bits = max acc.Dip.max_node_total_bits s.Dip.max_node_total_bits;
          total_prover_bits = acc.Dip.total_prover_bits + s.Dip.total_prover_bits;
          total_verifier_bits = acc.Dip.total_verifier_bits + s.Dip.total_verifier_bits;
          interaction_rounds = max acc.Dip.interaction_rounds s.Dip.interaction_rounds;
        })
      (Dip.stats meter) comp_stats
  in
  { verdict; stats = max_comp; component_results; transcript = Dip.transcript meter }
