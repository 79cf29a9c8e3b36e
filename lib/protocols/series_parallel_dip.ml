type instance = { graph : Graph.t; ears : int list list option }

type prover = Honest | Ear_cheat | Fake_ears

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  host_results : Path_outerplanarity.result list;
  transcript : (Dip.phase * Bits.t array) list;
}

let derive_ears g =
  Option.map Series_parallel.ears_of_sp (Series_parallel.decompose g)

(* Sub-ear of each ear: the full first ear; interiors of the others. *)
let sub_ear idx ear = if idx = 0 then ear else List.filteri (fun i _ -> i > 0 && i < List.length ear - 1) ear

let run ?(seed = 0) ?(c = 3) ?param_n ?(retain = false) ~prover inst =
  let g = inst.graph in
  let n = Graph.n g in
  if n < 2 || not (Traversal.is_connected g) then invalid_arg "Series_parallel_dip.run: need a connected graph";
  let meter = Dip.meter ~retain () in
  let rng = Rng.create (seed + 211) in
  let sizing_n = max n (Option.value ~default:n param_n) in
  let pa = Lr_sorting.Params.make ~c sizing_n in
  let nb = Fp.bit_width pa.Lr_sorting.Params.p in

  (* -------- the committed decomposition ------------------------------ *)
  let ears =
    match inst.ears with
    | Some e -> e
    | None -> (
        match derive_ears g with
        | Some e -> e
        | None ->
            (* no decomposition exists: commit the longest DFS path as a lone
               "ear" (edge-valid; every uncovered node/edge rejects) *)
            let order = Traversal.dfs_order g 0 in
            let rec prefix = function
              | a :: (b :: _ as rest) when Graph.mem_edge g a b -> a :: prefix rest
              | a :: _ -> [ a ]
              | [] -> []
            in
            [ prefix order ])
  in
  let ears_arr = Array.of_list (List.map Array.of_list ears) in
  let k = Array.length ears_arr in
  let sub_ears = Array.of_list (List.mapi (fun i e -> Array.of_list (sub_ear i e)) ears) in
  let sub_ears =
    if prover = Fake_ears && Array.length sub_ears.(0) >= 4 then begin
      (* break the first sub-ear in half (claims two paths are one ear) *)
      let s = Array.copy sub_ears in
      let a = s.(0) in
      let half = Array.length a / 2 in
      s.(0) <- Array.sub a 0 half;
      (* the dropped nodes stay unassigned *)
      s
    end
    else sub_ears
  in
  (* node -> sub-ear index (-1 if unassigned, a malformed commitment) *)
  let owner = Array.make n (-1) in
  Array.iteri (fun i sub -> Array.iter (fun v -> if owner.(v) = -1 then owner.(v) <- i) sub) sub_ears;
  (* F: per sub-ear, parent = predecessor on the sub-ear path *)
  let parent = Array.make n (-1) in
  Array.iter
    (fun sub -> Array.iteri (fun i v -> if i > 0 then parent.(v) <- sub.(i - 1)) sub)
    sub_ears;
  (* hosts: deepest earlier ear containing both endpoints, normalized to a
     non-empty sub-ear *)
  let node_on_ear = Array.make n [] in
  Array.iteri (fun i ear -> Array.iter (fun v -> node_on_ear.(v) <- i :: node_on_ear.(v)) ear) ears_arr;
  let rec normalize_host j = if j = 0 || Array.length sub_ears.(j) > 0 then j else normalize_host (host_of j)
  and host_of i =
    if i = 0 then -1
    else begin
      let ear = ears_arr.(i) in
      let a = ear.(0) and b = ear.(Array.length ear - 1) in
      let common = List.filter (fun j -> j < i && List.mem j node_on_ear.(b)) node_on_ear.(a) in
      match List.sort (fun x y -> Int.compare y x) common with
      | h :: _ -> normalize_host h
      | [] -> 0
    end
  in
  let host = Array.init k host_of in
  (* connecting edges: (sub-ear endpoint, ear endpoint) for ears with
     non-empty interiors; single-edge/interior-less ears are chords *)
  let connecting = Hashtbl.create 16 in
  Array.iteri
    (fun i ear ->
      if i > 0 && Array.length sub_ears.(i) > 0 then begin
        let sub = sub_ears.(i) in
        let len = Array.length ear in
        Hashtbl.replace connecting (Graph.normalize_edge ear.(0) sub.(0)) (sub.(0), ear.(0));
        Hashtbl.replace connecting
          (Graph.normalize_edge ear.(len - 1) sub.(Array.length sub - 1))
          (sub.(Array.length sub - 1), ear.(len - 1))
      end)
    ears_arr;

  (* -------- Round 1 (prover): forest encoding + marks ----------------- *)
  let enc = Forest_encoding.encode g ~parent in
  let cbits = Forest_encoding.color_bits enc in
  let el = Edge_labels.create g in
  let r1_edge e = Bits.of_bool (Hashtbl.mem connecting e) in
  let r1_edges = Edge_labels.assign el ~width:1 r1_edge in
  let el_setup = Edge_labels.setup_labels el in
  (* Node-label writer, preallocated once from the registry envelope so
     a serve-path request never climbs the grow ladder. *)
  let node_cap =
    match Bounds.find "series_parallel_dip" with
    | Some row -> Bounds.envelope row ~n:sizing_n ~delta:(max 2 (Graph.max_degree g))
    | None -> 64
  in
  let nw = Bits.Writer.create ~capacity:(max 64 node_cap) () in
  let r1_node v =
    Bits.Writer.reset nw;
    Bits.Writer.bits nw (Forest_encoding.to_bits ~cbits enc.(v));
    Bits.Writer.bits nw el_setup.(v);
    Bits.Writer.bits nw r1_edges.(v);
    Bits.Writer.contents nw
  in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter (Array.init n r1_node);

  (* -------- Round 2 (verifier): sub-ear tags + per-sub-ear ST coins ---- *)
  let leader = Array.make n false in
  Array.iter (fun sub -> if Array.length sub > 0 then leader.(sub.(0)) <- true) sub_ears;
  let tag_sample =
    Array.init n (fun v -> if leader.(v) then Some (Bits.random (Rng.split rng (700 + v)) nb) else None)
  in
  let reps = max 2 (nb / 2) in
  (* one ST execution per sub-ear, on the induced subgraph *)
  let st_runs =
    Array.to_list sub_ears
    |> List.filteri (fun _ _ -> true)
    |> List.map (fun sub ->
           if Array.length sub = 0 then None
           else begin
             let nodes = Array.to_list sub in
             let subg, back = Graph.induced g nodes in
             let inv = Array.make n (-1) in
             Array.iteri (fun i orig -> inv.(orig) <- i) back;
             let sparent =
               Array.init (Array.length back) (fun i ->
                   let orig = back.(i) in
                   if parent.(orig) >= 0 && inv.(parent.(orig)) >= 0 then inv.(parent.(orig)) else -1)
             in
             let coins = Spanning_tree_verify.draw_coins ~reps ~tag_bits:4 ~parent:sparent (Rng.split rng (back.(0) + 1)) in
             Some (subg, back, inv, sparent, coins)
           end)
  in
  let coin_bits = Array.make n Bits.empty in
  List.iter
    (function
      | Some (_, back, _, _, coins) ->
          let bits = Spanning_tree_verify.coins_to_bits ~tag_bits:4 coins in
          Array.iteri (fun i orig -> coin_bits.(orig) <- bits.(i)) back
      | None -> ())
    st_runs;
  Dip.record_verifier meter
    (Array.init n (fun v ->
         Bits.concat [ coin_bits.(v); (match tag_sample.(v) with Some s -> s | None -> Bits.empty) ]));

  (* -------- Round 3 (prover): tag broadcasts + ST responses ------------ *)
  let ear_tag =
    Array.map
      (fun sub -> if Array.length sub = 0 then Bits.empty else Option.value ~default:Bits.empty tag_sample.(sub.(0)))
      sub_ears
  in
  let ear_of v = if owner.(v) >= 0 then ear_tag.(owner.(v)) else Bits.empty in
  let pred_of v =
    if owner.(v) >= 0 && owner.(v) > 0 then ear_tag.(host.(owner.(v))) else Bits.empty
  in
  let st_resps =
    List.map
      (Option.map (fun (subg, back, inv, sparent, coins) ->
           let resp = Spanning_tree_verify.honest_response ~reps ~parent:sparent coins in
           (subg, back, inv, sparent, coins, resp)))
      st_runs
  in
  let resp_bits = Array.make n Bits.empty in
  List.iter
    (function
      | Some (_, back, _, _, _, resp) ->
          let bits = Spanning_tree_verify.response_to_bits ~tag_bits:4 resp in
          Array.iteri (fun i orig -> resp_bits.(orig) <- bits.(i)) back
      | None -> ())
    st_resps;
  (* chord-host tags on edge labels: each interior-less ear (= one edge) and
     each attached-ear virtual chord carries its host's tag; here the real
     chord edges are the interior-less ears *)
  let chord_host = Hashtbl.create 16 in
  Array.iteri
    (fun i ear ->
      if i > 0 && Array.length sub_ears.(i) = 0 then
        Hashtbl.replace chord_host (Graph.normalize_edge ear.(0) ear.(Array.length ear - 1)) ear_tag.(host.(i)))
    ears_arr;
  let zero_tag = Bits.of_string (String.make nb '0') in
  let r3_edge e = match Hashtbl.find_opt chord_host e with Some t -> t | None -> zero_tag in
  let r3_edges = Edge_labels.assign el ~width:nb r3_edge in
  let r3_node v =
    Bits.Writer.reset nw;
    Bits.Writer.bits nw resp_bits.(v);
    Bits.Writer.bits nw (ear_of v);
    Bits.Writer.bits nw (pred_of v);
    Bits.Writer.bits nw r3_edges.(v);
    Bits.Writer.contents nw
  in
  (* dipp-refine: width <= 20*loglog + 20 *)
  Dip.record_prover meter (Array.init n r3_node);

  (* -------- per-host derived path-outerplanarity runs ------------------ *)
  let chords_of_host = Array.make k [] in
  Array.iteri
    (fun i ear ->
      if i > 0 then begin
        let h = host.(i) in
        let a = ear.(0) and b = ear.(Array.length ear - 1) in
        chords_of_host.(h) <- (a, b) :: chords_of_host.(h)
      end)
    ears_arr;
  let host_prover : Path_outerplanarity.prover =
    match prover with
    | Honest | Fake_ears -> Path_outerplanarity.Honest
    | Ear_cheat -> Path_outerplanarity.Crossing_sweep
  in
  let host_results =
    List.filter_map
      (fun j ->
        let ear = ears_arr.(j) in
        let len = Array.length ear in
        if List.is_empty chords_of_host.(j) || len < 3 then None
        else begin
          let index_on = Hashtbl.create 8 in
          Array.iteri (fun i v -> Hashtbl.replace index_on v i) ear;
          let chords =
            List.filter_map
              (fun (a, b) ->
                match (Hashtbl.find_opt index_on a, Hashtbl.find_opt index_on b) with
                | Some ia, Some ib when abs (ia - ib) >= 2 -> Some (Graph.normalize_edge ia ib)
                | Some _, Some _ -> None (* spans one path edge: nests trivially *)
                | _ -> None (* endpoint not on the claimed host: tag checks handle it *))
              chords_of_host.(j)
          in
          let path_edges = List.init (len - 1) (fun i -> (i, i + 1)) in
          let derived = Graph.create ~n:len (path_edges @ chords) in
          Some
            (Path_outerplanarity.run ~seed:(seed + (17 * j)) ~c ~param_n:sizing_n
               ~prover:host_prover
               { Path_outerplanarity.graph = derived; witness = Some (List.init len Fun.id) })
        end)
      (List.init k Fun.id)
  in

  (* -------- verification ------------------------------------------------ *)
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  (* membership set of u: own ear tag + ear tags across incident connecting
     edges where u is the ear-endpoint side *)
  let membership u =
    let own = ear_of u in
    let extra =
      List.filter_map
        (fun w ->
          match Hashtbl.find_opt connecting (Graph.normalize_edge u w) with
          | Some (sub_end, ear_end) when ear_end = u && sub_end = w -> Some (ear_of w)
          | _ -> None)
        (Array.to_list (Graph.neighbors g u))
    in
    own :: extra
  in
  let verify v =
    let ok = ref true in
    let fail () = ok := false in
    (* every node belongs to a sub-ear and has consistent F-structure *)
    if owner.(v) = -1 then fail ();
    if List.length children.(v) > 1 then fail ();
    (* ST verification within the node's sub-ear *)
    (match if owner.(v) >= 0 then List.nth st_resps owner.(v) else None with
    | Some (subg, _, inv, sparent, coins, resp) ->
        let sv = inv.(v) in
        if sv >= 0 then begin
          let schildren = Array.make (Graph.n subg) [] in
          Array.iteri (fun x p -> if p >= 0 then schildren.(p) <- x :: schildren.(p)) sparent;
          if
            not
              (Spanning_tree_verify.verify_node ~reps ~parent:sparent ~children:schildren
                 ~graph:subg ~coins ~response:resp sv)
          then fail ()
        end
        else fail ()
    | None -> if owner.(v) >= 0 then fail ());
    (* leaders check their sampled tag was echoed *)
    (match tag_sample.(v) with
    | Some s -> if leader.(v) && not (Bits.equal (ear_of v) s) then fail ()
    | None -> ());
    (* sub-ear tag consistency along F *)
    if parent.(v) >= 0 then begin
      if not (Bits.equal (ear_of v) (ear_of parent.(v))) then fail ();
      if not (Bits.equal (pred_of v) (pred_of parent.(v))) then fail ()
    end;
    (* connecting edges: the ear endpoint checks the attached ear's claimed
       host is one it belongs to *)
    Array.iter
      (fun w ->
        match Hashtbl.find_opt connecting (Graph.normalize_edge v w) with
        | Some (sub_end, ear_end) when ear_end = v && sub_end = w ->
            let claimed = pred_of w in
            if not (List.exists (Bits.equal claimed) (membership v)) then fail ()
        | _ -> ())
      (Graph.neighbors g v);
    (* chord ears: both endpoints check the chord's host tag membership *)
    Array.iter
      (fun w ->
        let e = Graph.normalize_edge v w in
        match Hashtbl.find_opt chord_host e with
        | Some t -> if not (List.exists (Bits.equal t) (membership v)) then fail ()
        | None -> ())
      (Graph.neighbors g v);
    !ok
  in
  let structural = Dip.all_accept ~n verify in
  (* every graph edge must be accounted for: on a sub-ear path, a connecting
     edge, or a chord ear (otherwise some edge belongs to no ear) *)
  let edges_covered =
    Graph.fold_edges
      (fun (u, v) acc ->
        acc
        && (parent.(u) = v || parent.(v) = u
           || Hashtbl.mem connecting (u, v)
           || Hashtbl.mem chord_host (u, v)))
      g true
  in
  let hosts_ok = List.for_all (fun r -> r.Path_outerplanarity.verdict.Dip.accepted) host_results in
  let verdict =
    {
      Dip.accepted = structural.Dip.accepted && hosts_ok && edges_covered;
      rejecting = structural.Dip.rejecting;
    }
  in
  let stats =
    List.fold_left
      (fun acc r ->
        let s = r.Path_outerplanarity.stats in
        {
          acc with
          Dip.proof_size_bits = max acc.Dip.proof_size_bits s.Dip.proof_size_bits;
          max_node_total_bits = max acc.Dip.max_node_total_bits s.Dip.max_node_total_bits;
          total_prover_bits = acc.Dip.total_prover_bits + s.Dip.total_prover_bits;
          total_verifier_bits = acc.Dip.total_verifier_bits + s.Dip.total_verifier_bits;
          interaction_rounds = max acc.Dip.interaction_rounds s.Dip.interaction_rounds;
        })
      (Dip.stats meter) host_results
  in
  { verdict; stats; host_results; transcript = Dip.transcript meter }
