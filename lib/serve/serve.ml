(* Batched verification service.

   Consumes a stream of (family, instance parameters, seed) verification
   requests and answers them at maximum throughput: instance construction
   (graph generation, witness extraction) is amortized across requests
   sharing a topology via a content-addressed prepared-instance cache,
   honest-prover executions are memoized through Label_cache, and batches
   fan out over the Domain pool.

   Determinism contract: the response log (and its digest) is a pure
   function of the request stream — identical for every DIPP_JOBS value,
   and with the caches on or off.  Only latencies and the throughput
   summary are timing-dependent, and those never enter the log.  Pooled
   workers therefore never print and only touch shared state through the
   two mutex-guarded caches. *)

module Gen = Dipp_gen.Gen
module Pool = Dipp_engine.Pool
module Trace = Dipp_trace.Trace
module Label_cache = Dipp_trace.Label_cache

type request = {
  family : string;
  n : int;  (* size parameter, interpreted per family *)
  gseed : int;  (* instance generator seed *)
  seed : int;  (* verification run seed *)
  budget : int;  (* max per-node label bits the client accepts *)
}

type response = {
  index : int;
  req : request;
  accepted : bool;
  nodes : int;  (* actual node count of the prepared instance *)
  max_bits : int;
  proof_bits : int;
}

type outcome = { response : response; latency_s : float }

(* ---- families --------------------------------------------------------- *)

type prepared = {
  instance_key : string;  (* content address of the constructed instance *)
  nodes : int;
  exec : seed:int -> Dip.verdict * Dip.stats;
}

type family = {
  name : string;
  bounds_row : string;  (* row id in the Bounds registry *)
  min_n : int;
  prepare : n:int -> gseed:int -> prepared;
}

let content_key ~name ~n ~gseed ~digest =
  Sha256.hex
    (String.concat "\x00" [ name; string_of_int n; string_of_int gseed; digest ])

(* Size parameters feed the generators the same way the trace registry's
   pinned entries do; block-built families scale their block count with n
   so a request's n stays the one knob for instance size. *)
let blocks_of_n n = max 1 (n / 8)

let lr_family =
  {
    name = "lr";
    bounds_row = "lr_sorting";
    min_n = 4;
    prepare =
      (fun ~n ~gseed ->
        let path, arcs = Gen.lr_yes ~n gseed in
        let inst = { Lr_sorting.n; path; arcs } in
        {
          instance_key = content_key ~name:"lr" ~n ~gseed ~digest:(Label_cache.lr_key inst);
          nodes = n;
          exec =
            (fun ~seed ->
              let r = Lr_sorting.run ~seed ~prover:Lr_sorting.Honest inst in
              (r.Lr_sorting.verdict, r.Lr_sorting.stats));
        })
  }

let po_family =
  {
    name = "path_outerplanarity";
    bounds_row = "path_outerplanarity";
    min_n = 4;
    prepare =
      (fun ~n ~gseed ->
        let g, w = Gen.path_outerplanar ~n gseed in
        {
          instance_key =
            content_key ~name:"path_outerplanarity" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Path_outerplanarity.run ~seed ~prover:Path_outerplanarity.Honest
                  { Path_outerplanarity.graph = g; witness = Some w }
              in
              (r.Path_outerplanarity.verdict, r.Path_outerplanarity.stats));
        })
  }

let outerplanarity_family =
  {
    name = "outerplanarity";
    bounds_row = "outerplanarity";
    min_n = 8;
    prepare =
      (fun ~n ~gseed ->
        let g = Gen.outerplanar ~blocks:(blocks_of_n n) gseed in
        {
          instance_key =
            content_key ~name:"outerplanarity" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Outerplanarity.run ~seed ~prover:Outerplanarity.Honest
                  { Outerplanarity.graph = g }
              in
              (r.Outerplanarity.verdict, r.Outerplanarity.stats));
        })
  }

let planar_embedding_family =
  {
    name = "planar_embedding";
    bounds_row = "planar_embedding";
    min_n = 4;
    prepare =
      (fun ~n ~gseed ->
        let g = Gen.planar ~n gseed in
        let rot =
          match Gen.embedding g with
          | Some rot -> rot
          | None -> invalid_arg "Serve: planar instance has no embedding"
        in
        {
          instance_key =
            content_key ~name:"planar_embedding" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Planar_embedding.run ~seed ~prover:Planar_embedding.Honest
                  { Planar_embedding.graph = g; rot }
              in
              (r.Planar_embedding.verdict, r.Planar_embedding.stats));
        })
  }

let planarity_family =
  {
    name = "planarity";
    bounds_row = "planarity";
    min_n = 4;
    prepare =
      (fun ~n ~gseed ->
        let g = Gen.planar ~n gseed in
        {
          instance_key = content_key ~name:"planarity" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Planarity.run ~seed ~prover:Planarity.Honest { Planarity.graph = g }
              in
              (r.Planarity.verdict, r.Planarity.stats));
        })
  }

let series_parallel_family =
  {
    name = "series_parallel";
    bounds_row = "series_parallel_dip";
    min_n = 4;
    prepare =
      (fun ~n ~gseed ->
        let tr, g = Gen.series_parallel ~size:n gseed in
        let ears = Series_parallel.ears_of_sp tr in
        {
          instance_key =
            content_key ~name:"series_parallel" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Series_parallel_dip.run ~seed ~prover:Series_parallel_dip.Honest
                  { Series_parallel_dip.graph = g; ears = Some ears }
              in
              (r.Series_parallel_dip.verdict, r.Series_parallel_dip.stats));
        })
  }

let treewidth2_family =
  {
    name = "treewidth2";
    bounds_row = "treewidth2_dip";
    min_n = 8;
    prepare =
      (fun ~n ~gseed ->
        let g = Gen.treewidth2 ~blocks:(blocks_of_n n) gseed in
        {
          instance_key = content_key ~name:"treewidth2" ~n ~gseed ~digest:(Trace.graph_digest g);
          nodes = Graph.n g;
          exec =
            (fun ~seed ->
              let r =
                Treewidth2_dip.run ~seed ~prover:Treewidth2_dip.Honest
                  { Treewidth2_dip.graph = g }
              in
              (r.Treewidth2_dip.verdict, r.Treewidth2_dip.stats));
        })
  }

(* List order fixes the binary-format family ids; append only. *)
let families =
  [
    lr_family;
    po_family;
    outerplanarity_family;
    planar_embedding_family;
    planarity_family;
    series_parallel_family;
    treewidth2_family;
  ]

let family_names = List.map (fun f -> f.name) families

let find_family name = List.find_opt (fun f -> String.equal f.name name) families

let family_id name =
  let rec go i = function
    | [] -> None
    | f :: tl -> if String.equal f.name name then Some i else go (i + 1) tl
  in
  go 0 families

(* ---- request validation ----------------------------------------------- *)

let max_request_n = 100_000

(* Conservative degree bound: the envelope is monotone in delta, so any
   honest instance of the family at size n fits under it. *)
let envelope_of fam ~n =
  match Bounds.find fam.bounds_row with
  | Some row -> Some (Bounds.envelope row ~n ~delta:(max 2 (n - 1)))
  | None -> None

let validate_request r =
  match find_family r.family with
  | None -> Error (Printf.sprintf "unknown family %S" r.family)
  | Some fam ->
      if r.n < fam.min_n || r.n > max_request_n then
        Error (Printf.sprintf "family %s: n=%d outside [%d, %d]" fam.name r.n fam.min_n max_request_n)
      else if r.gseed < 0 then Error (Printf.sprintf "negative gseed %d" r.gseed)
      else if r.seed < 0 then Error (Printf.sprintf "negative seed %d" r.seed)
      else if r.budget < 1 then Error (Printf.sprintf "non-positive label budget %d" r.budget)
      else (
        match envelope_of fam ~n:r.n with
        | Some env when r.budget > env ->
            Error
              (Printf.sprintf
                 "family %s: label budget %d bits exceeds the registry envelope %d bits at n=%d"
                 fam.name r.budget env r.n)
        | _ -> Ok fam)

(* ---- request stream codec --------------------------------------------- *)

let magic = "DIPP-SERVE 1\n"
let frame_bytes = 17 (* u8 family id + 4 x u32be *)

let requests_to_text reqs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# family n gseed seed budget\n";
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d %d %d\n" r.family r.n r.gseed r.seed r.budget))
    reqs;
  Buffer.contents buf

let requests_to_binary reqs =
  let buf = Buffer.create (String.length magic + (Array.length reqs * frame_bytes)) in
  Buffer.add_string buf magic;
  Array.iter
    (fun r ->
      let id = match family_id r.family with Some i -> i | None -> 255 in
      Buffer.add_uint8 buf id;
      Buffer.add_int32_be buf (Int32.of_int r.n);
      Buffer.add_int32_be buf (Int32.of_int r.gseed);
      Buffer.add_int32_be buf (Int32.of_int r.seed);
      Buffer.add_int32_be buf (Int32.of_int r.budget))
    reqs;
  Buffer.contents buf

let parse_text s =
  let lines = String.split_on_char '\n' s in
  (* explicit CRLF handling: a stream written on (or piped through) a
     Windows toolchain ends every line in "\r\n"; splitting on '\n' alone
     leaves the '\r' glued to the last field, so chop it before parsing *)
  let strip_cr line =
    let len = String.length line in
    if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line
  in
  let parse_line lineno line acc =
    let line = String.trim (strip_cr line) in
    if String.length line = 0 || line.[0] = '#' then Ok acc
    else
      match String.split_on_char ' ' line |> List.filter (fun t -> String.length t > 0) with
      | [ family; n; gseed; seed; budget ] -> (
          match
            (int_of_string_opt n, int_of_string_opt gseed, int_of_string_opt seed,
             int_of_string_opt budget)
          with
          | Some n, Some gseed, Some seed, Some budget ->
              Ok ({ family; n; gseed; seed; budget } :: acc)
          | _ -> Error (Printf.sprintf "request line %d: malformed integer field" lineno))
      | _ -> Error (Printf.sprintf "request line %d: expected `family n gseed seed budget'" lineno)
  in
  let rec go lineno acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: tl -> (
        match parse_line lineno line acc with Ok acc -> go (lineno + 1) acc tl | Error e -> Error e)
  in
  go 1 [] lines

let parse_binary s =
  let body_len = String.length s - String.length magic in
  if body_len mod frame_bytes <> 0 then
    Error
      (Printf.sprintf "truncated binary request stream: %d stray byte(s) after %d frame(s)"
         (body_len mod frame_bytes) (body_len / frame_bytes))
  else begin
    let count = body_len / frame_bytes in
    let u32 off = Int32.to_int (String.get_int32_be s off) in
    let rec go i acc =
      if i = count then Ok (Array.of_list (List.rev acc))
      else begin
        let off = String.length magic + (i * frame_bytes) in
        let id = Char.code s.[off] in
        match List.nth_opt families id with
        | None -> Error (Printf.sprintf "request frame %d: unknown family id %d" i id)
        | Some fam ->
            let r =
              {
                family = fam.name;
                n = u32 (off + 1);
                gseed = u32 (off + 5);
                seed = u32 (off + 9);
                budget = u32 (off + 13);
              }
            in
            go (i + 1) (r :: acc)
      end
    in
    go 0 []
  end

let parse_requests s =
  let is_binary =
    String.length s >= String.length magic && String.equal (String.sub s 0 (String.length magic)) magic
  in
  if is_binary then parse_binary s else parse_text s

(* ---- prepared-instance cache ------------------------------------------ *)

(* Content-addressed, bounded-residency memo of constructed instances.
   Same discipline as Label_cache: one mutex guards the tables, one atomic
   carries the lookup total, and every reported counter is a pure function
   of the work set (never of the domain schedule).

   Eviction keeps the [pc_capacity] smallest keys by byte order.  Unlike
   FIFO/LRU, that resident set is schedule-independent: inserting a key and
   discarding the largest commutes, so any interleaving of the same lookups
   converges to the same table.

   The state and its accessors live at the top level (not inside the
   [Prepared_cache] namespace below) so dipp-race inventories them and
   proves the locking discipline; the analyzer only scans top-level
   bindings. *)

let pc_default_capacity = 64
let pc_table : (string, prepared) Hashtbl.t = Hashtbl.create 64
let pc_lock = Mutex.create ()
let pc_lookups = Atomic.make 0
let pc_capacity = Atomic.make pc_default_capacity

(* distinct keys ever prepared; never evicted, so the derived counters stay
   monotone under eviction *)
let pc_seen : (string, unit) Hashtbl.t = Hashtbl.create 64
let pc_set_capacity c = Atomic.set pc_capacity (max 1 c)

let pc_find_or_prepare ~key f =
  Atomic.incr pc_lookups;
  Mutex.lock pc_lock;
  let cached = Hashtbl.find_opt pc_table key in
  Mutex.unlock pc_lock;
  match cached with
  | Some p -> p
  | None ->
      let p = f () in
      Mutex.lock pc_lock;
      (* racing domains may both prepare the same instance; both built the
         same pure value, so either write is fine *)
      Hashtbl.replace pc_seen key ();
      Hashtbl.replace pc_table key p;
      (* evict down to capacity, largest key first (inlined here so the
         whole table access pattern sits under one lock scope) *)
      let cap = Atomic.get pc_capacity in
      while Hashtbl.length pc_table > cap do
        let worst =
          Hashtbl.fold
            (fun k _ acc ->
              match acc with
              | None -> Some k
              | Some k' -> if String.compare k k' > 0 then Some k else Some k')
            pc_table None
        in
        match worst with Some k -> Hashtbl.remove pc_table k | None -> ()
      done;
      Mutex.unlock pc_lock;
      p

let pc_stats () =
  Mutex.lock pc_lock;
  let distinct = Hashtbl.length pc_seen and resident = Hashtbl.length pc_table in
  Mutex.unlock pc_lock;
  (Atomic.get pc_lookups, distinct, resident, Atomic.get pc_capacity)

let pc_reset () =
  Mutex.lock pc_lock;
  Hashtbl.reset pc_table;
  Hashtbl.reset pc_seen;
  Mutex.unlock pc_lock;
  Atomic.set pc_lookups 0;
  Atomic.set pc_capacity pc_default_capacity

module Prepared_cache = struct
  let set_capacity = pc_set_capacity
  let find_or_prepare = pc_find_or_prepare
  let stats = pc_stats
  let reset = pc_reset

  let report () =
    let lookups, distinct, resident, capacity = stats () in
    Printf.sprintf
      "prepared-cache: %d lookup(s), %d distinct topolog%s, %d resident (capacity %d)" lookups
      distinct
      (if distinct = 1 then "y" else "ies")
      resident capacity
end

(* ---- execution --------------------------------------------------------- *)

exception Bad_request of string

let answer index r =
  match validate_request r with
  | Error e -> raise (Bad_request (Printf.sprintf "request %d: %s" index e))
  | Ok fam ->
      let pkey = content_key ~name:fam.name ~n:r.n ~gseed:r.gseed ~digest:"prepared" in
      let prep = Prepared_cache.find_or_prepare ~key:pkey (fun () -> fam.prepare ~n:r.n ~gseed:r.gseed) in
      let lkey =
        Label_cache.key ~protocol:("serve|" ^ fam.name) ~instance:prep.instance_key ~seed:r.seed
      in
      let verdict, stats =
        Label_cache.find_or_run ~key:lkey (fun () -> prep.exec ~seed:r.seed)
      in
      let max_bits = stats.Dip.max_node_total_bits in
      {
        index;
        req = r;
        accepted = verdict.Dip.accepted && max_bits <= r.budget;
        nodes = prep.nodes;
        max_bits;
        proof_bits = stats.Dip.proof_size_bits;
      }

(* Validation runs up front, before any pooled work: a malformed request
   fails the whole batch with [Bad_request] (exit code 2 at the CLI) and
   never reaches — let alone wedges — a worker domain. *)
let validate_batch reqs =
  Array.iteri
    (fun i r ->
      match validate_request r with
      | Ok _ -> ()
      | Error e -> raise (Bad_request (Printf.sprintf "request %d: %s" i e)))
    reqs

(* Unix.gettimeofday is wall-clock time: an NTP slew or step between the
   two reads can make the delta negative.  The stdlib ships no monotonic
   clock (Mtime is not vendored), so clamp at zero — a latency is never
   negative. *)
let monotonic_latency ~t0 ~t1 = if t1 > t0 then t1 -. t0 else 0.

let execute ?jobs reqs =
  validate_batch reqs;
  Pool.run ?jobs (Array.length reqs) (fun i ->
      let t0 = Unix.gettimeofday () in
      let response = answer i reqs.(i) in
      { response; latency_s = monotonic_latency ~t0 ~t1:(Unix.gettimeofday ()) })

(* ---- response log ------------------------------------------------------ *)

let response_line r =
  Printf.sprintf "#%d %s n=%d g=%d s=%d b=%d %s nodes=%d max_bits=%d proof_bits=%d" r.index
    r.req.family r.req.n r.req.gseed r.req.seed r.req.budget
    (if r.accepted then "ACCEPT" else "REJECT")
    r.nodes r.max_bits r.proof_bits

(* Pool.run returns results in request order, so the log is already
   order-normalized regardless of the domain schedule. *)
let response_log outcomes =
  Array.map (fun o -> response_line o.response) outcomes

let log_digest lines = Sha256.hex (String.concat "\n" (Array.to_list lines))

(* Nearest-rank percentile, computed entirely in integer arithmetic:
   rank = ceil(pct * n / 100) for pct in [1, 100].  The previous float
   formulation (int_of_float (ceil (q *. float n)) - 1) was fragile —
   0.99 *. 100. evaluates to 99.00000000000001, whose ceiling lands on
   index 99 instead of the nearest-rank index 98. *)
let percentile sorted ~pct =
  let n = Array.length sorted in
  if n = 0 || pct < 1 || pct > 100 then None
  else begin
    let rank = ((pct * n) + 99) / 100 in
    Some sorted.(min (n - 1) (max 0 (rank - 1)))
  end

let latency_percentiles outcomes =
  let lat = Array.map (fun o -> o.latency_s) outcomes in
  Array.sort Float.compare lat;
  match (percentile lat ~pct:50, percentile lat ~pct:99) with
  | Some p50, Some p99 -> Some (p50, p99)
  | _ -> None
