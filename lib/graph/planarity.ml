(* ------------------------------------------------------------------ *)
(* DMP on a biconnected graph with >= 3 nodes.                         *)
(* ------------------------------------------------------------------ *)

let find_cycle g =
  (* DFS until a back edge closes a cycle; biconnected with n >= 3 always
     has one. *)
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let state = Array.make n 0 in
  let exception Found of int list in
  try
    let rec dfs v =
      state.(v) <- 1;
      Array.iter
        (fun w ->
          if state.(w) = 0 then begin
            parent.(w) <- v;
            dfs w
          end
          else if state.(w) = 1 && w <> parent.(v) then begin
            (* cycle w .. v *)
            let rec climb u acc = if u = w then u :: acc else climb parent.(u) (u :: acc) in
            raise (Found (climb v []))
          end)
        (Graph.neighbors g v);
      state.(v) <- 2
    in
    dfs 0;
    invalid_arg "Planarity.find_cycle: acyclic biconnected graph"
  with Found c -> c

(* Index of [w] in the sorted neighbour array [a], searching [lo, hi). *)
let rec position a w lo hi =
  if lo >= hi then invalid_arg "Planarity: not an edge";
  let mid = (lo + hi) / 2 in
  if a.(mid) < w then position a w (mid + 1) hi else if a.(mid) > w then position a w lo mid else mid

let record r c a b face =
  r.(0) <- c;
  r.(1) <- a;
  r.(2) <- b;
  r.(3) <- face

(* DMP grows an embedded subgraph H by one fragment path per step.  Faces are
   boundary walks named by integer ids, and faces are preferred newest
   first, f1 before f2: a split face gives way to f2 then f1 under the next
   two ids, so the first admissible face is the largest admissible id.
   [faces_of.(v)] holds the ids of the live faces through [v], and a face is
   admissible for a fragment when it holds all of the fragment's
   attachments, counted over the attachments' faces.  A step rescans the
   fragments (chords off the adjacency arrays, components of G - H by BFS):
   O(n + m) plus the faces their attachments touch. *)
let embed_biconnected g =
  let n = Graph.n g and m = Graph.m g in
  if n >= 3 && m > (3 * n) - 6 then None
  else begin
    (* Dart (v, w) is [off.(v)] plus the index of [w] among v's neighbours. *)
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do off.(v + 1) <- off.(v) + Graph.degree g v done;
    let dart v w = off.(v) + position (Graph.neighbors g v) w 0 (off.(v + 1) - off.(v)) in
    let on_h = Array.make n false and dart_on = Array.make (2 * m) false and edges_left = ref m in
    let mark_path p lo hi =
      for i = lo to hi - 1 do
        let u = min p.(i) p.(i + 1) and v = max p.(i) p.(i + 1) in
        on_h.(u) <- true;
        on_h.(v) <- true;
        dart_on.(dart u v) <- true;
        decr edges_left
      done
    in
    (* The faces of a 2-connected plane graph are simple cycles, so [v] lies
       on at most [degree v] of them. *)
    let faces = Array.make ((2 * m) + 2) [||] and nfaces = ref 0 in
    let faces_of = Array.init n (fun v -> Array.make (Graph.degree g v) 0) and nfo = Array.make n 0 in
    let new_face verts =
      faces.(!nfaces) <- verts;
      Array.iter
        (fun v ->
          faces_of.(v).(nfo.(v)) <- !nfaces;
          nfo.(v) <- nfo.(v) + 1)
        verts;
      incr nfaces
    in
    let kill_face id =
      Array.iter
        (fun v ->
          let fs = faces_of.(v) and i = ref 0 in
          while fs.(!i) <> id do incr i done;
          nfo.(v) <- nfo.(v) - 1;
          fs.(!i) <- fs.(nfo.(v)))
        faces.(id);
      faces.(id) <- [||]
    in
    let cyc = Array.of_list (find_cycle g) in
    let k = Array.length cyc in
    mark_path (Array.append cyc [| cyc.(0) |]) 0 k;
    new_face (Array.init k (fun i -> cyc.(k - 1 - i)));
    new_face cyc;
    (* Work arrays stamped by [tick], which names every component of G - H and
       every admissibility count, so nothing is ever cleared. *)
    let tick = ref 0 and comp = Array.make n 0 and queue = Array.make n 0 and prev = Array.make n 0 in
    let att = Array.make n 0 and att_seen = Array.make n 0 and path = Array.make (n + 1) 0 in
    let cnt = Array.make ((2 * m) + 2) 0 and cnt_tick = Array.make ((2 * m) + 2) 0 in
    (* Fragment records [| component (0: a chord); a; b; face |]: the head,
       and the first fragment with exactly one admissible face ([a] = -1:
       none). *)
    let head = Array.make 4 0 and unique = Array.make 4 0 in
    let exception Nonplanar in
    (* Fragments are visited chords first in [iter_edges] order, then
       components by ascending seed: the reverse of the preference order, so
       the last fragment visited is the head and the last one with exactly
       one admissible face is the first such.  [att.(0 .. na - 1)] are the
       attachments of fragment [c], and [a < b] the two smallest. *)
    let visit c na a b =
      incr tick;
      let t = !tick and adm = ref 0 and best = ref (-1) in
      for i = 0 to na - 1 do
        let fs = faces_of.(att.(i)) in
        for j = 0 to nfo.(att.(i)) - 1 do
          let f = fs.(j) in
          if cnt_tick.(f) <> t then begin
            cnt_tick.(f) <- t;
            cnt.(f) <- 0
          end;
          cnt.(f) <- cnt.(f) + 1;
          if cnt.(f) = na then begin
            incr adm;
            best := max !best f
          end
        done
      done;
      if !adm = 0 then raise Nonplanar;
      record head c a b !best;
      if !adm = 1 then record unique c a b !best
    in
    let scan () =
      unique.(1) <- -1;
      for u = 0 to n - 1 do
        let nbrs = if on_h.(u) then Graph.neighbors g u else [||] in
        for j = 0 to Array.length nbrs - 1 do
          let v = nbrs.(j) in
          if u < v && on_h.(v) && not dart_on.(off.(u) + j) then begin
            att.(0) <- u;
            att.(1) <- v;
            visit 0 2 u v
          end
        done
      done;
      let base = !tick in
      for s = 0 to n - 1 do
        if (not on_h.(s)) && comp.(s) <= base then begin
          incr tick;
          let c = !tick and qh = ref 0 and qt = ref 1 and na = ref 0 in
          let a = ref max_int and b = ref max_int in
          comp.(s) <- c;
          queue.(0) <- s;
          while !qh < !qt do
            let nbrs = Graph.neighbors g queue.(!qh) in
            incr qh;
            for j = 0 to Array.length nbrs - 1 do
              let w = nbrs.(j) in
              if on_h.(w) && att_seen.(w) <> c then begin
                att_seen.(w) <- c;
                att.(!na) <- w;
                incr na;
                if w < !a then begin
                  b := !a;
                  a := w
                end
                else b := min !b w
              end
              else if (not on_h.(w)) && comp.(w) <> c then begin
                comp.(w) <- c;
                queue.(!qt) <- w;
                incr qt
              end
            done
          done;
          if !b = max_int then invalid_arg "Planarity.fragment_path: fragment with < 2 attachments";
          visit c !na !a !b
        end
      done
    in
    (* BFS from [a] through component [c] (visited vertices are re-stamped
       [-c]) to the first vertex popped that is adjacent to [b].  The path
       a .. b is written into [path] ending at index [n]; returns its start. *)
    let fragment_path c a b =
      let qh = ref 0 and qt = ref 0 and target = ref (-1) in
      let push v =
        Array.iter
          (fun w ->
            if comp.(w) = c then begin
              comp.(w) <- -c;
              prev.(w) <- v;
              queue.(!qt) <- w;
              incr qt
            end)
          (Graph.neighbors g v)
      in
      push a;
      while !target < 0 && !qh < !qt do
        let v = queue.(!qh) in
        incr qh;
        if Graph.mem_edge g v b then target := v else push v
      done;
      if !target < 0 then invalid_arg "Planarity.fragment_path: no path (graph not biconnected?)";
      let i = ref n and v = ref !target in
      path.(n) <- b;
      while !v <> a do
        decr i;
        path.(!i) <- !v;
        v := prev.(!v)
      done;
      path.(!i - 1) <- a;
      !i - 1
    in
    (* Split face [id] along path.(lo .. n): f1 walks a ..face.. b and back
       along the interior, f2 walks b ..face.. a and on along the interior. *)
    let split id lo =
      let f = faces.(id) in
      let r = Array.length f and q = n - lo - 1 in
      let index x =
        let i = ref 0 in
        while f.(!i) <> x do incr i done;
        !i
      in
      let ia = index path.(lo) and ib = index path.(n) in
      let l1 = ((ib - ia + r) mod r) + 1 and l2 = ((ia - ib + r) mod r) + 1 in
      let f1 = Array.init (l1 + q) (fun i -> if i < l1 then f.((ia + i) mod r) else path.(n - 1 - i + l1)) in
      let f2 = Array.init (l2 + q) (fun i -> if i < l2 then f.((ib + i) mod r) else path.(lo + 1 + i - l2)) in
      kill_face id;
      new_face f2;
      new_face f1
    in
    match
      while !edges_left > 0 do
        scan ();
        let r = if unique.(1) >= 0 then unique else head in
        let lo =
          if r.(0) > 0 then fragment_path r.(0) r.(1) r.(2)
          else begin
            path.(n - 1) <- r.(1);
            path.(n) <- r.(2);
            n - 1
          end
        in
        split r.(3) lo;
        mark_path path lo n
      done
    with
    | exception Nonplanar -> None
    | () ->
        (* In the face tracing convention of {!Rotation.faces} the dart after
           (u, v) is (v, next_around v u), so consecutive darts (u, v), (v, w)
           of a face walk give next_around v u = w, stored at dart (v, u). *)
        let succ = Array.make (2 * m) 0 in
        for id = 0 to !nfaces - 1 do
          let f = faces.(id) in
          let r = Array.length f in
          Array.iteri (fun i u -> succ.(dart f.((i + 1) mod r) u) <- f.((i + 2) mod r)) f
        done;
        let rotation v =
          let nbrs = Graph.neighbors g v in
          let out = Array.make (Array.length nbrs) nbrs.(0) in
          for i = 1 to Array.length out - 1 do out.(i) <- succ.(dart v out.(i - 1)) done;
          out
        in
        Some (Rotation.create g (Array.init n rotation))
  end

(* ------------------------------------------------------------------ *)
(* General graphs: per component, per block, then merge.               *)
(* ------------------------------------------------------------------ *)

let embed_connected g =
  let n = Graph.n g in
  if n = 0 then Some (Rotation.default g)
  else if Graph.m g = 0 then Some (Rotation.default g)
  else begin
    let bc = Biconnectivity.compute g in
    let rotations = Array.init n (fun _ -> []) in
    let failed = ref false in
    Array.iter
      (fun es ->
        if not !failed then begin
          let module S = Set.Make (Int) in
          let nodes = S.elements (List.fold_left (fun s (u, v) -> S.add u (S.add v s)) S.empty es) in
          match nodes with
          | [] | [ _ ] -> ()
          | [ u; v ] ->
              rotations.(u) <- [ v ] :: rotations.(u);
              rotations.(v) <- [ u ] :: rotations.(v)
          | _ ->
              let sub, back = Graph.induced g nodes in
              (match embed_biconnected sub with
              | None -> failed := true
              | Some rot ->
                  Array.iteri
                    (fun local orig ->
                      let named = Array.to_list (Array.map (fun w -> back.(w)) rot.Rotation.rot.(local)) in
                      rotations.(orig) <- named :: rotations.(orig))
                    back)
        end)
      bc.Biconnectivity.component_edges;
    if !failed then None
    else
      let rot = Array.init n (fun v -> Array.of_list (List.concat rotations.(v))) in
      Some (Rotation.create g rot)
  end

let embed g =
  let n = Graph.n g in
  if n = 0 then Some (Rotation.default g)
  else begin
    let comp, k = Traversal.components g in
    let rot = Array.init n (fun _ -> [||]) in
    let failed = ref false in
    for c = 0 to k - 1 do
      if not !failed then begin
        let nodes = List.filter (fun v -> comp.(v) = c) (List.init n Fun.id) in
        let sub, back = Graph.induced g nodes in
        match embed_connected sub with
        | None -> failed := true
        | Some r ->
            Array.iteri (fun local orig -> rot.(orig) <- Array.map (fun w -> back.(w)) r.Rotation.rot.(local)) back
      end
    done;
    if !failed then None else Some (Rotation.create g rot)
  end

let is_planar g = Option.is_some (embed g)
