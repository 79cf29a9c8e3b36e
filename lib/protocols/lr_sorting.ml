type instance = {
  n : int;
  path : int array;
  arcs : (int * int) list;
}

let validate_instance inst =
  let n = inst.n in
  if Array.length inst.path <> n then invalid_arg "Lr_sorting: path length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then invalid_arg "Lr_sorting: path not a permutation";
      seen.(v) <- true)
    inst.path;
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) inst.path;
  let heads = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n || u = v then invalid_arg "Lr_sorting: bad arc";
      if abs (pos.(u) - pos.(v)) = 1 then invalid_arg "Lr_sorting: arc duplicates a path edge";
      heads.(u) <- v :: heads.(u))
    inst.arcs;
  (* each arc carries its own labels, so a repeat would be a second label
     for one arc: [last.(v)] is the last tail seen with head [v] *)
  let last = Array.make n (-1) in
  Array.iteri
    (fun u vs ->
      List.iter
        (fun v ->
          if last.(v) = u then invalid_arg "Lr_sorting: repeated arc";
          last.(v) <- u)
        vs)
    heads

let positions inst =
  let pos = Array.make inst.n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) inst.path;
  pos

let is_yes_instance inst =
  let pos = positions inst in
  List.for_all (fun (u, v) -> pos.(u) < pos.(v)) inst.arcs

let underlying_graph inst =
  let path_edges = List.init (inst.n - 1) (fun i -> (inst.path.(i), inst.path.(i + 1))) in
  Graph.create ~n:inst.n (path_edges @ List.map (fun (u, v) -> Graph.normalize_edge u v) inst.arcs)

module Params = struct
  type t = { n : int; block : int; nblocks : int; p : Fp.t; p2 : Fp.t }

  let ceil_log2 n =
    let rec go w = if 1 lsl w >= n then w else go (w + 1) in
    go 0

  let make ?(c = 3) ?block n =
    if n < 1 then invalid_arg "Lr_sorting.Params.make";
    (* block >= 2 keeps x2 = pos + 1 representable even when nblocks hits
       2^block (only possible for n = 2); the ?block override is for the
       block-size ablation (a larger block needs wider index fields, a
       smaller one cannot hold the position bits) *)
    let block =
      match block with
      | None -> max 2 (ceil_log2 n)
      | Some b ->
          if b < ceil_log2 n then invalid_arg "Lr_sorting.Params.make: block too small for position bits";
          max 2 b
    in
    let nblocks = max 1 (n / block) in
    let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
    let p = Fp.create (Prime.next_prime (max 64 (pow block c))) in
    let p2 = Fp.create (Prime.next_prime (2 * block * block * p.Fp.p)) in
    { n; block; nblocks; p; p2 }
end

(* Positions are encoded MSB-first on [block] bits; blocks can be wider
   than the native int (block-size ablation), so shifts are guarded. *)
let shift_right_safe x k = if k >= 62 then 0 else x lsr k

(* ------------------------------------------------------------------ *)
(* Layout: which node sits where.                                      *)
(* ------------------------------------------------------------------ *)

module Layout = struct
  type t = {
    params : Params.t;
    pos : int array;  (* node -> path position *)
    blk : int array;  (* node -> block id *)
    idx : int array;  (* node -> 1-based index within its block *)
  }

  let make params inst =
    let pos = positions inst in
    let bsize = params.Params.block and nb = params.Params.nblocks in
    let blk = Array.map (fun p -> min (p / bsize) (nb - 1)) pos in
    let idx = Array.make inst.n 0 in
    Array.iteri (fun v p -> idx.(v) <- p - (blk.(v) * bsize) + 1) pos;
    { params; pos; blk; idx }

  (* bit j (1-based, MSB first) of a B-bit value *)
  let bit_at t x j = shift_right_safe x (t.params.Params.block - j) land 1 = 1
end

(* ------------------------------------------------------------------ *)
(* Labels.                                                             *)
(* ------------------------------------------------------------------ *)

type vb_flag = Left_of | At_vb | Right_of

type r1_node = { j : int; bit1 : bool; bit2 : bool; flag : vb_flag; m_head : int; m_tail : int }
type r1_arc = Inner | Outer of { i : int }
type r3_node = {
  r_e : int;
  rp_e : int;
  rb_e : int;
  pre1 : int;
  pre2 : int;
  f1 : int;
  f2 : int;
  prep : int;  (* phi^b_idx(r') prefix for the commitment scheme *)
}
type r5_node = { z_e : int; ph1 : int; ph2 : int; pt1 : int; pt2 : int }

type coins2 = { r : int option; rp : int option; rb : int option }
(* per node: leftmost path node carries r and rp; block leaders carry rb *)

type coins4 = { z : int option }

(* Serialization widths. *)
let bits_for x =
  let rec go w = if 1 lsl w > x then w else go (w + 1) in
  max 1 (go 1)

let flag_code = function Left_of -> 0 | At_vb -> 1 | Right_of -> 2

(* One encoder per label round: fields appended into a Writer sized for
   the label up front, so encoding never climbs the grow ladder. *)

let r1_node_bits (pa : Params.t) l =
  (* block = Theta(log n): a block index fits in loglog n + O(1) bits *)
  (* dipp-refine: value <= loglog + 2 *)
  let wi = bits_for (2 * pa.Params.block) and wm = bits_for ((2 * pa.Params.block) + 1) in
  let w = Bits.Writer.create ~capacity:(wi + 4 + (2 * wm)) () in
  Bits.Writer.int w ~width:wi l.j;
  Bits.Writer.bool w l.bit1;
  Bits.Writer.bool w l.bit2;
  Bits.Writer.int w ~width:2 (flag_code l.flag);
  Bits.Writer.int w ~width:wm l.m_head;
  Bits.Writer.int w ~width:wm l.m_tail;
  Bits.Writer.contents w

let r1_arc_bits (pa : Params.t) l =
  (* dipp-refine: value <= loglog + 2 *)
  let wi = bits_for (pa.Params.block + 1) in
  let w = Bits.Writer.create ~capacity:(wi + 1) () in
  (match l with
  | Inner ->
      Bits.Writer.bool w false;
      Bits.Writer.int w ~width:wi 0
  | Outer { i } ->
      Bits.Writer.bool w true;
      Bits.Writer.int w ~width:wi i);
  Bits.Writer.contents w

let r3_node_bits (pa : Params.t) l =
  (* p = poly(block) = polylog(n): a field element fits in O(loglog n) bits *)
  (* dipp-refine: value <= 3*loglog + 6 *)
  let wp = Fp.bit_width pa.Params.p in
  let w = Bits.Writer.create ~capacity:(8 * wp) () in
  Bits.Writer.int w ~width:wp l.r_e;
  Bits.Writer.int w ~width:wp l.rp_e;
  Bits.Writer.int w ~width:wp l.rb_e;
  Bits.Writer.int w ~width:wp l.pre1;
  Bits.Writer.int w ~width:wp l.pre2;
  Bits.Writer.int w ~width:wp l.f1;
  Bits.Writer.int w ~width:wp l.f2;
  Bits.Writer.int w ~width:wp l.prep;
  Bits.Writer.contents w

let r5_node_bits (pa : Params.t) l =
  (* dipp-refine: value <= 5*loglog + 12 *)
  let wq = Fp.bit_width pa.Params.p2 in
  let w = Bits.Writer.create ~capacity:(5 * wq) () in
  Bits.Writer.int w ~width:wq l.z_e;
  Bits.Writer.int w ~width:wq l.ph1;
  Bits.Writer.int w ~width:wq l.ph2;
  Bits.Writer.int w ~width:wq l.pt1;
  Bits.Writer.int w ~width:wq l.pt2;
  Bits.Writer.contents w

(* ------------------------------------------------------------------ *)
(* Prover plans.                                                       *)
(* ------------------------------------------------------------------ *)

type prover = Honest | Forge_pairs | Shift_positions | Fake_inner

(* A plan claims a position per block and labels each arc for round 1.
   The committed value of an outer arc is always phi of its tail block's
   prefix (round 3). *)
type plan = {
  claimed_x1 : int array;  (* per block *)
  decide : (int * int) -> r1_arc;
}

(* Most significant-first distinguishing index of x < y (B-bit): the first
   bit position where they differ (then x has 0, y has 1). *)
let distinguishing (pa : Params.t) x y =
  let b = pa.Params.block in
  let rec go j =
    if j > b then None
    else
      let bx = shift_right_safe x (b - j) land 1 and by = shift_right_safe y (b - j) land 1 in
      if bx <> by then Some j else go (j + 1)
  in
  go 1

(* The honest commitment between two claims: their distinguishing index. *)
let outer_by_claims pa xu xv = Outer { i = Option.value ~default:1 (distinguishing pa xu xv) }

(* For a backward arc: the best forged commitment — an index where the tail
   block's bit is 0 and ideally the head block's bit is 1. *)
let forged (pa : Params.t) xu xv =
  let b = pa.Params.block in
  let bit x j = shift_right_safe x (b - j) land 1 in
  let rec scan pred j = if j > b then None else if pred j then Some j else scan pred (j + 1) in
  match scan (fun j -> bit xu j = 0 && bit xv j = 1) 1 with
  | Some i -> Outer { i }
  | None -> Outer { i = Option.value ~default:1 (scan (fun j -> bit xu j = 0) 1) }

(* True claims, honest labels on forward arcs (inner within a block, else
   the claims' distinguishing index); [backward honest x bu bv] labels an
   arc from block bu back to block bv. *)
let plan_with (pa : Params.t) (lay : Layout.t) backward =
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  let honest bu bv = if bu = bv then Inner else outer_by_claims pa claimed_x1.(bu) claimed_x1.(bv) in
  let decide (u, v) =
    let bu = lay.Layout.blk.(u) and bv = lay.Layout.blk.(v) in
    if lay.Layout.pos.(u) < lay.Layout.pos.(v) then honest bu bv else backward honest claimed_x1 bu bv
  in
  { claimed_x1; decide }

let shift_plan (pa : Params.t) (lay : Layout.t) inst =
  let pos = lay.Layout.pos in
  let claimed_x1 = Array.init pa.Params.nblocks Fun.id in
  (* Renumber the head block of the first backward cross-block arc so that
     the arc becomes consistent with the claims. *)
  (match List.find_opt (fun (u, v) -> pos.(u) > pos.(v) && lay.Layout.blk.(u) <> lay.Layout.blk.(v)) inst.arcs with
  | Some (u, v) -> claimed_x1.(lay.Layout.blk.(v)) <- claimed_x1.(lay.Layout.blk.(u)) + 1
  | None -> ());
  let decide (u, v) =
    let xu = claimed_x1.(lay.Layout.blk.(u)) and xv = claimed_x1.(lay.Layout.blk.(v)) in
    if lay.Layout.blk.(u) = lay.Layout.blk.(v) then
      if lay.Layout.idx.(u) < lay.Layout.idx.(v) then Inner else forged pa xu xv
    else if xu < xv then outer_by_claims pa xu xv
    else forged pa xu xv
  in
  { claimed_x1; decide }

let plan_for prover pa lay inst =
  match prover with
  | Honest -> plan_with pa lay (fun honest _ bu bv -> honest bu bv)
  | Forge_pairs -> plan_with pa lay (fun _ x bu bv -> forged pa x.(bu) x.(bv))
  | Shift_positions -> shift_plan pa lay inst
  | Fake_inner ->
      (* claim a backward arc is inner-block and hope for a tag collision
         (or, inside one block, an index miracle) *)
      plan_with pa lay (fun _ _ _ _ -> Inner)

(* ------------------------------------------------------------------ *)
(* The execution.                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  params : Params.t;
  transcript : (Dip.phase * Bits.t array) list;
}

(* The three per-block prefix tables of round 3: entry [b * (B + 1) + i]
   is phi of the multiset {k <= i : bit k of xs.(b) is 1} evaluated at r
   over f, so each node field, arc commitment and round-5 phi_left is one
   lookup.  Indices are clamped to [0, B]. *)
let prefix_table (pa : Params.t) f xs r =
  let b = pa.Params.block in
  let t = Array.make (Array.length xs * (b + 1)) 1 in
  Array.iteri
    (fun blk x ->
      let base = blk * (b + 1) in
      for k = 1 to b do
        let prev = t.(base + k - 1) in
        t.(base + k) <- (if shift_right_safe x (b - k) land 1 = 1 then Fp.mul f prev (Fp.sub f k r) else prev)
      done)
    xs;
  fun blk i -> t.((blk * (b + 1)) + max 0 (min i b))

(* Encoded element of a committed pair. *)
let enc (p : Fp.t) i j = ((i - 1) * p.Fp.p) + j

(* acc * (e - z)^m over f: the m copies of one S2 element. *)
let mul_power f acc e z m =
  let x = Fp.sub f e z in
  let acc = ref acc in
  for _ = 1 to m do
    acc := Fp.mul f !acc x
  done;
  !acc

(* Per-index scratch for [fold_pairs], covering every index an r1 arc label
   can carry. *)
type scratch = { stamp : int array; first : int array; extra : int list array }

let scratch (pa : Params.t) =
  let k = 1 lsl bits_for (pa.Params.block + 1) in
  { stamp = Array.make k (-1); first = Array.make k 0; extra = Array.make k [] }

(* Folds [f acc i j fresh] over the distinct committed pairs (i, j) on the
   outer arcs [ids] of node [v].  While [sc.stamp.(i) = v], [sc.first.(i)]
   holds the first j met at index i and [sc.extra.(i)] any others; [fresh]
   is false for a second j at one index (a conflict only a cheating prover
   makes), so honest labels fold in O(degree) without allocating. *)
let fold_pairs sc v ~arc_r1 ~arc_j f acc ids =
  List.fold_left
    (fun acc k ->
      match arc_r1.(k) with
      | Inner -> acc
      | Outer { i } ->
          let j = arc_j.(k) in
          if sc.stamp.(i) <> v then begin
            sc.stamp.(i) <- v;
            sc.first.(i) <- j;
            sc.extra.(i) <- [];
            f acc i j true
          end
          else if sc.first.(i) = j || List.exists (Int.equal j) sc.extra.(i) then acc
          else begin
            sc.extra.(i) <- j :: sc.extra.(i);
            f acc i j false
          end)
    acc ids

let unit5 = { z_e = 0; ph1 = 1; ph2 = 1; pt1 = 1; pt2 = 1 }

(* ------------------------------------------------------------------ *)
(* The per-node decision function.                                     *)
(*                                                                     *)
(* Everything a node reads is its own and its path-neighbors' labels   *)
(* and coins — all present in the five recorded frames — so this is    *)
(* shared verbatim between the live run and transcript replay.  Arc    *)
(* labels are read by arc id: the arc's position in [inst.arcs].       *)
(* ------------------------------------------------------------------ *)

let node_checks (pa : Params.t) inst ~(r1 : r1_node array) ~(r3 : r3_node array)
    ~(r5 : r5_node array) ~(coins2 : coins2 array) ~(coins4 : coins4 array) ~arc_r1 ~arc_j =
  let n = inst.n in
  let pos = positions inst in
  let bsize = pa.Params.block in
  let p = pa.Params.p and p2 = pa.Params.p2 in
  let arcs = Array.of_list inst.arcs in
  let arcs_into = Array.make n [] and arcs_from = Array.make n [] in
  Array.iteri
    (fun k (u, v) ->
      arcs_into.(v) <- k :: arcs_into.(v);
      arcs_from.(u) <- k :: arcs_from.(u))
    arcs;
  let sc_in = scratch pa and sc_out = scratch pa in
  let left_nbr v = if pos.(v) = 0 then None else Some inst.path.(pos.(v) - 1) in
  let right_nbr v = if pos.(v) = n - 1 then None else Some inst.path.(pos.(v) + 1) in
  let same_block_left v =
    match left_nbr v with Some u when r1.(v).j = r1.(u).j + 1 -> Some u | _ -> None
  in
  let verify v =
    let own1 = r1.(v) and own3 = r3.(v) and own5 = r5.(v) in
    let ok = ref true in
    let fail () = ok := false in
    let left = left_nbr v and right = right_nbr v and block_left = same_block_left v in
    (* S: index structure *)
    (match left with
    | None -> if own1.j <> 1 then fail ()
    | Some u ->
        let ju = r1.(u).j in
        if not (own1.j = ju + 1 || (own1.j = 1 && ju >= bsize)) then fail ());
    if own1.j < 1 || own1.j > (2 * bsize) - 1 then fail ();
    (* C: consecutive-number flags and bits (bit-carrying nodes only) *)
    if own1.j <= bsize then begin
      (match own1.flag with
      | Right_of -> if not (own1.bit1 && not own1.bit2) then fail ()
      | At_vb -> if own1.bit1 || not own1.bit2 then fail ()
      | Left_of -> if own1.bit1 <> own1.bit2 then fail ());
      (* neighbour flag pattern, within the bit-carrying prefix of the block *)
      let right_in_bits =
        match right with
        | Some u when r1.(u).j = own1.j + 1 && r1.(u).j <= bsize -> Some u
        | _ -> None
      in
      (match own1.flag with
      | Right_of -> (
          match right_in_bits with Some u -> if r1.(u).flag <> Right_of then fail () | None -> ())
      | At_vb ->
          (match right_in_bits with Some u -> if r1.(u).flag <> Right_of then fail () | None -> ());
          (match block_left with Some u -> if r1.(u).flag <> Left_of then fail () | None -> ())
      | Left_of -> (
          match block_left with Some u -> if r1.(u).flag <> Left_of then fail () | None -> ()));
      if own1.j = 1 && own1.flag = Right_of then fail ()
    end;
    (* E1: global broadcasts *)
    (match left with
    | None ->
        (match coins2.(v).r with Some r0 -> if own3.r_e <> r0 then fail () | None -> fail ());
        (match coins2.(v).rp with Some rp0 -> if own3.rp_e <> rp0 then fail () | None -> fail ())
    | Some u ->
        if own3.r_e <> r3.(u).r_e then fail ();
        if own3.rp_e <> r3.(u).rp_e then fail ());
    (* E2: block tag broadcast *)
    (if own1.j = 1 then
       match coins2.(v).rb with Some s -> if own3.rb_e <> s then fail () | None -> fail ()
     else
       match block_left with
       | Some u -> if own3.rb_e <> r3.(u).rb_e then fail ()
       | None -> fail ());
    (* E3/E6: prefix chains *)
    let factor field x_bit elem rr = if x_bit && elem <= bsize then Fp.sub field elem rr else 1 in
    let base3 =
      match block_left with
      | Some u -> (r3.(u).pre1, r3.(u).pre2, r3.(u).prep)
      | None -> (1, 1, 1)
    in
    let b1, b2, bp = base3 in
    if own3.pre1 <> Fp.mul p b1 (factor p own1.bit1 own1.j own3.r_e) then fail ();
    if own3.pre2 <> Fp.mul p b2 (factor p own1.bit2 own1.j own3.r_e) then fail ();
    if own3.prep <> Fp.mul p bp (factor p own1.bit1 own1.j own3.rp_e) then fail ();
    (* E4: total claims chain + endpoint pinning *)
    (match block_left with
    | Some u -> if own3.f1 <> r3.(u).f1 || own3.f2 <> r3.(u).f2 then fail ()
    | None -> ());
    let rightmost_of_block =
      match right with None -> true | Some u -> r1.(u).j = 1
    in
    if rightmost_of_block then begin
      if own3.f1 <> own3.pre1 then fail ();
      if own3.f2 <> own3.pre2 then fail ()
    end;
    (* E5: adjacent blocks hold consecutive positions *)
    (match right with
    | Some u when r1.(u).j = 1 -> if own3.f2 <> r3.(u).f1 then fail ()
    | _ -> ());
    (* E7/E8: arc checks *)
    let my_in = arcs_into.(v) and my_out = arcs_from.(v) in
    (* inner arcs *)
    let inner_ok k =
      match arc_r1.(k) with
      | Outer _ -> true
      | Inner ->
          let u, w = arcs.(k) in
          r1.(u).j < r1.(w).j && r3.(u).rb_e = r3.(w).rb_e
    in
    if not (List.for_all inner_ok my_in && List.for_all inner_ok my_out) then fail ();
    (* M1: z echo *)
    (if own1.j = 1 then
       match coins4.(v).z with Some z -> if own5.z_e <> z then fail () | None -> fail ()
     else
       match block_left with
       | Some u -> if own5.z_e <> r5.(u).z_e then fail ()
       | None -> fail ());
    (* outer arcs, each distinct committed pair once: index bounds, one
       pair per index and side, no index on both sides; and the S1
       products of the verification scheme (M2) *)
    let l5 = match block_left with Some u -> r5.(u) | None -> unit5 in
    let s1 sc ~both acc ids =
      fold_pairs sc v ~arc_r1 ~arc_j
        (fun acc i j fresh ->
          if i < 1 || i > bsize || (not fresh) || both i then fail ();
          Fp.mul p2 acc (Fp.sub p2 (enc p i j) own5.z_e))
        acc ids
    in
    if own5.ph1 <> s1 sc_in ~both:(fun _ -> false) l5.ph1 my_in then fail ();
    if own5.pt1 <> s1 sc_out ~both:(fun i -> sc_in.stamp.(i) = v) l5.pt1 my_out then fail ();
    (* M2: the S2 products, read from the left neighbour's prefix (or 1 at
       the leader) *)
    let phi_left_check = match block_left with Some u -> r3.(u).prep | None -> 1 in
    let s2 bit m acc =
      if own1.j <= bsize && own1.bit1 = bit then mul_power p2 acc (enc p own1.j phi_left_check) own5.z_e m
      else acc
    in
    if own5.ph2 <> s2 true own1.m_head l5.ph2 then fail ();
    if own5.pt2 <> s2 false own1.m_tail l5.pt2 then fail ();
    (* M3: block totals agree *)
    if rightmost_of_block then begin
      if own5.ph1 <> own5.ph2 then fail ();
      if own5.pt1 <> own5.pt2 then fail ()
    end;
    !ok
  in
  verify

let run ?(seed = 0) ?(c = 3) ?block ?(retain = false) ~prover inst =
  validate_instance inst;
  let n = inst.n in
  let pa = Params.make ~c ?block n in
  let lay = Layout.make pa inst in
  let meter = Dip.meter ~retain () in
  let pos = lay.Layout.pos and blk = lay.Layout.blk and idx = lay.Layout.idx in
  let bsize = pa.Params.block in
  let p = pa.Params.p and p2 = pa.Params.p2 in
  let plan = plan_for prover pa lay inst in
  let x1 = plan.claimed_x1 in
  let x2 = Array.map (fun x -> x + 1) x1 in
  let bit1_of v = idx.(v) <= bsize && Layout.bit_at lay x1.(blk.(v)) idx.(v) in
  let bit2_of v = idx.(v) <= bsize && Layout.bit_at lay x2.(blk.(v)) idx.(v) in
  (* arc id = position in [inst.arcs] = frame slot [n + id] *)
  let arcs = Array.of_list inst.arcs in

  (* ---- Round 1 (prover): structure + commitments + multiplicities ---- *)
  let arc_r1 = Array.map plan.decide arcs in
  (* Multiplicities: for each block b and index i, the number of distinct
     nodes of b holding a *claim-consistent* committed pair with index i, on
     the head side (incoming arcs) and tail side (outgoing arcs). *)
  let m_head = Array.make n 0 and m_tail = Array.make n 0 in
  (* credit the node at index i of block b, if the block has one *)
  let bump arr b i =
    let q = (b * bsize) + i - 1 in
    if i >= 1 && i <= bsize && q < n then arr.(inst.path.(q)) <- arr.(inst.path.(q)) + 1
  in
  let claim_prefix_eq bu bv i =
    i = 1 || shift_right_safe x1.(bu) (bsize - i + 1) = shift_right_safe x1.(bv) (bsize - i + 1)
  in
  (* one bit per (side, node, index): set the first time that node's pair
     at that index is counted *)
  let counted = Bytes.make (((2 * n * (bsize + 1)) + 7) / 8) '\000' in
  let first_count side v i =
    let k = (((2 * v) + side) * (bsize + 1)) + i in
    let c = Char.code (Bytes.get counted (k lsr 3)) and mask = 1 lsl (k land 7) in
    c land mask = 0 && (Bytes.set counted (k lsr 3) (Char.chr (c lor mask)); true)
  in
  Array.iteri
    (fun k (u, v) ->
      match arc_r1.(k) with
      | Inner -> ()
      | Outer { i } ->
          let bu = blk.(u) and bv = blk.(v) in
          (* the committed j is phi of the tail block's prefix: it matches
             the head block's own prefix iff the claimed prefixes coincide *)
          if i <= bsize && (not (Layout.bit_at lay x1.(bu) i)) && first_count 0 u i then bump m_tail bu i;
          if i <= bsize && Layout.bit_at lay x1.(bv) i && claim_prefix_eq bu bv i && first_count 1 v i then
            bump m_head bv i)
    arcs;
  (* least significant 0 bit of each block's x1, as a 1-based MSB-first
     index; None if x1 is all ones on B bits *)
  let vb_index =
    Array.map
      (fun x ->
        let rec go j = if j < 1 then None else if not (Layout.bit_at lay x j) then Some j else go (j - 1) in
        go bsize)
      x1
  in
  let r1 : r1_node array =
    Array.init n (fun v ->
        let flag =
          match vb_index.(blk.(v)) with
          | None -> Left_of
          | Some jb -> if idx.(v) < jb then Left_of else if idx.(v) = jb then At_vb else Right_of
        in
        {
          j = idx.(v);
          bit1 = bit1_of v;
          bit2 = bit2_of v;
          flag;
          m_head = m_head.(v);
          m_tail = m_tail.(v);
        })
  in
  Dip.record_prover meter
    (Array.append (Array.map (fun l -> r1_node_bits pa l) r1) (Array.map (fun a -> r1_arc_bits pa a) arc_r1));

  (* ---- Round 2 (verifier): r, r', r_b ---- *)
  let rng = Rng.create seed in
  let is_leader v = r1.(v).j = 1 in
  let coins2 : coins2 array =
    Array.init n (fun v ->
        let leftmost = pos.(v) = 0 in
        {
          r = (if leftmost then Some (Fp.sample p (Rng.split rng (2 * v))) else None);
          rp = (if leftmost then Some (Fp.sample p (Rng.split rng ((2 * v) + 1))) else None);
          rb = (if is_leader v then Some (Fp.sample p (Rng.split rng (n + v))) else None);
        })
  in
  (* dipp-refine: value <= 3*loglog + 6 *)
  let wp = Fp.bit_width p in
  Dip.record_verifier meter
    (Array.map
       (fun (cn : coins2) ->
         Bits.concat
           (List.filter_map
              (fun o -> Option.map (Bits.of_int ~width:wp) o)
              [ cn.r; cn.rp; cn.rb ]))
       coins2);

  (* ---- Round 3 (prover): broadcasts, prefix evaluations, commitments ---- *)
  let leftmost_node = inst.path.(0) in
  let r, rp =
    (* the leftmost path node always draws r and r' in round 2 *)
    match (coins2.(leftmost_node).r, coins2.(leftmost_node).rp) with
    | Some r, Some rp -> (r, rp)
    | None, _ | _, None -> assert false
  in
  let block_leader = Array.make pa.Params.nblocks (-1) in
  Array.iteri (fun v i -> if i = 1 then block_leader.(blk.(v)) <- v) idx;
  let rb_of_block =
    Array.map (fun l -> match coins2.(l).rb with Some rb -> rb | None -> assert false) block_leader
  in
  let pre1 = prefix_table pa p x1 r and pre2 = prefix_table pa p x2 r and prep = prefix_table pa p x1 rp in
  let r3 : r3_node array =
    Array.init n (fun v ->
        let b = blk.(v) and i = idx.(v) in
        {
          r_e = r;
          rp_e = rp;
          rb_e = rb_of_block.(b);
          pre1 = pre1 b i;
          pre2 = pre2 b i;
          f1 = pre1 b bsize;
          f2 = pre2 b bsize;
          prep = prep b i;
        })
  in
  let arc_j =
    Array.mapi (fun k (u, _) -> match arc_r1.(k) with Inner -> 0 | Outer { i } -> prep blk.(u) (i - 1)) arcs
  in
  Dip.record_prover meter
    (Array.append (Array.map (fun l -> r3_node_bits pa l) r3) (Array.map (fun j -> Bits.of_int ~width:wp j) arc_j));

  (* ---- Round 4 (verifier): z per block ---- *)
  let coins4 : coins4 array =
    Array.init n (fun v ->
        { z = (if is_leader v then Some (Fp.sample p2 (Rng.split rng ((2 * n) + v))) else None) })
  in
  let wq = Fp.bit_width p2 in
  Dip.record_verifier meter
    (Array.map (fun (cn : coins4) -> match cn.z with Some z -> Bits.of_int ~width:wq z | None -> Bits.empty) coins4);

  (* ---- Round 5 (prover): verification-scheme multiset equalities ---- *)
  let z_of_block =
    Array.map (fun l -> match coins4.(l).z with Some z -> z | None -> assert false) block_leader
  in
  let in_arcs = Array.make n [] and out_arcs = Array.make n [] in
  Array.iteri
    (fun k (u, v) ->
      in_arcs.(v) <- k :: in_arcs.(v);
      out_arcs.(u) <- k :: out_arcs.(u))
    arcs;
  let sc_in = scratch pa and sc_out = scratch pa in
  (* Per node, in path order: each block's four prefix chains, extended by
     the node's S1 pairs (deduped) and its S2 copies of
     (idx, phi^b_{idx-1}(r')). *)
  let r5 : r5_node array = Array.make n unit5 in
  Array.iteri
    (fun position v ->
      let b = blk.(v) and i = idx.(v) in
      let z = z_of_block.(b) in
      let l = if i = 1 then unit5 else r5.(inst.path.(position - 1)) in
      let s1 sc acc ids =
        fold_pairs sc v ~arc_r1 ~arc_j (fun acc i j _ -> Fp.mul p2 acc (Fp.sub p2 (enc p i j) z)) acc ids
      in
      let s2 bit m acc = if i <= bsize && bit1_of v = bit then mul_power p2 acc (enc p i (prep b (i - 1))) z m else acc in
      r5.(v) <-
        {
          z_e = z;
          ph1 = s1 sc_in l.ph1 in_arcs.(v);
          ph2 = s2 true m_head.(v) l.ph2;
          pt1 = s1 sc_out l.pt1 out_arcs.(v);
          pt2 = s2 false m_tail.(v) l.pt2;
        })
    inst.path;
  Dip.record_prover meter (Array.map (fun l -> r5_node_bits pa l) r5);

  (* ---- Verification: purely local checks at each node ---- *)
  let verify = node_checks pa inst ~r1 ~r3 ~r5 ~coins2 ~coins4 ~arc_r1 ~arc_j in
  let verdict = Dip.all_accept ~n verify in
  { verdict; stats = Dip.stats meter; params = pa; transcript = Dip.transcript meter }

(* ------------------------------------------------------------------ *)
(* Decision-only transcript replay.                                    *)
(* ------------------------------------------------------------------ *)

(* Decoders are strict inverses of the serializers above: every element
   must parse completely (no trailing bits), so any tampering that changes
   a label's length — and most that change its content — is caught either
   here or by the re-run decision functions. *)

let fail_decode what = invalid_arg ("Lr_sorting.replay: malformed " ^ what)

let reader_all what b f =
  let r = Bits.Reader.of_bits b in
  let v = f r in
  if Bits.Reader.remaining r <> 0 then fail_decode what;
  v

let decode_r1_node (pa : Params.t) b =
  let wi = bits_for (2 * pa.Params.block) and wm = bits_for ((2 * pa.Params.block) + 1) in
  reader_all "r1 node label" b (fun r ->
      let j = Bits.Reader.int r ~width:wi in
      let bit1 = Bits.Reader.bool r in
      let bit2 = Bits.Reader.bool r in
      let flag =
        match Bits.Reader.int r ~width:2 with
        | 0 -> Left_of
        | 1 -> At_vb
        | 2 -> Right_of
        | _ -> fail_decode "r1 flag"
      in
      let m_head = Bits.Reader.int r ~width:wm in
      let m_tail = Bits.Reader.int r ~width:wm in
      { j; bit1; bit2; flag; m_head; m_tail })

let decode_r1_arc (pa : Params.t) b =
  let wi = bits_for (pa.Params.block + 1) in
  reader_all "r1 arc label" b (fun r ->
      let outer = Bits.Reader.bool r in
      let i = Bits.Reader.int r ~width:wi in
      if outer then Outer { i }
      else if i <> 0 then fail_decode "r1 arc padding"
      else Inner)

let decode_r3_node (pa : Params.t) b =
  let wp = Fp.bit_width pa.Params.p in
  reader_all "r3 node label" b (fun r ->
      (* Array.init reads the fields in order *)
      let f = Array.init 8 (fun _ -> Bits.Reader.int r ~width:wp) in
      { r_e = f.(0); rp_e = f.(1); rb_e = f.(2); pre1 = f.(3); pre2 = f.(4); f1 = f.(5); f2 = f.(6); prep = f.(7) })

let decode_r3_arc (pa : Params.t) b =
  let wp = Fp.bit_width pa.Params.p in
  reader_all "r3 arc label" b (fun r -> Bits.Reader.int r ~width:wp)

let decode_r5_node (pa : Params.t) b =
  let wq = Fp.bit_width pa.Params.p2 in
  reader_all "r5 node label" b (fun r ->
      let f = Array.init 5 (fun _ -> Bits.Reader.int r ~width:wq) in
      { z_e = f.(0); ph1 = f.(1); ph2 = f.(2); pt1 = f.(3); pt2 = f.(4) })

let decode_coins2 (pa : Params.t) ~leftmost ~leader b =
  let wp = Fp.bit_width pa.Params.p in
  reader_all "round-2 coins" b (fun r ->
      let take () = Some (Bits.Reader.int r ~width:wp) in
      let rr = if leftmost then take () else None in
      let rp = if leftmost then take () else None in
      let rb = if leader then take () else None in
      { r = rr; rp; rb })

let decode_coins4 (pa : Params.t) ~leader b =
  let wq = Fp.bit_width pa.Params.p2 in
  reader_all "round-4 coins" b (fun r ->
      { z = (if leader then Some (Bits.Reader.int r ~width:wq) else None) })

let replay ?(c = 3) ?block inst frames =
  validate_instance inst;
  let n = inst.n in
  let pa = Params.make ~c ?block n in
  let pos = positions inst in
  let nar = List.length inst.arcs in
  match frames with
  | [
   (Dip.Prover_phase, f1);
   (Dip.Verifier_phase, f2);
   (Dip.Prover_phase, f3);
   (Dip.Verifier_phase, f4);
   (Dip.Prover_phase, f5);
  ] -> (
      try
        if
          Array.length f1 <> n + nar
          || Array.length f3 <> n + nar
          || Array.length f2 <> n
          || Array.length f4 <> n
          || Array.length f5 <> n
        then fail_decode "frame arity";
        let r1 = Array.init n (fun v -> decode_r1_node pa f1.(v)) in
        let r3 = Array.init n (fun v -> decode_r3_node pa f3.(v)) in
        let r5 = Array.init n (fun v -> decode_r5_node pa f5.(v)) in
        let coins2 =
          Array.init n (fun v ->
              decode_coins2 pa ~leftmost:(pos.(v) = 0) ~leader:(r1.(v).j = 1) f2.(v))
        in
        let coins4 = Array.init n (fun v -> decode_coins4 pa ~leader:(r1.(v).j = 1) f4.(v)) in
        let arc_r1 = Array.init nar (fun k -> decode_r1_arc pa f1.(n + k)) in
        let arc_j = Array.init nar (fun k -> decode_r3_arc pa f3.(n + k)) in
        let verify = node_checks pa inst ~r1 ~r3 ~r5 ~coins2 ~coins4 ~arc_r1 ~arc_j in
        Ok (Dip.all_accept ~n verify)
      with
      | Invalid_argument msg -> Error msg
      | Bits.Reader.Underflow -> Error "Lr_sorting.replay: label underflow")
  | _ -> Error "Lr_sorting.replay: expected a 5-round P-V-P-V-P transcript"
