(* The four workloads.  Each builds its inputs from the seed alone, makes
   one kind of timed call into the library's public interfaces (library
   defaults throughout: no codec argument, caches as shipped), checks the
   call's outputs, and reports the counters that must repeat exactly from
   call to call. *)

open Dipp

type call = {
  units : int;  (* work done: requests, nodes certified, or events *)
  latencies : float array;  (* per-request service time, seconds; [||]: one request per call *)
  attempted : int;
  failed : int;
  proof_bits : int;  (* the largest single prover label *)
  ok : bool;  (* every output check of the call passed *)
  counters : string;  (* deterministic: must repeat exactly per call *)
}

type t = {
  unit_name : string;
  request_name : string;  (* what one latency sample covers *)
  domains : int;  (* domains the timed call runs on *)
  setup : unit -> unit;  (* (re)builds the inputs *)
  call : unit -> call;
  sentinels : unit -> (string * bool) list;  (* untimed, once per run *)
  probe : unit -> unit;  (* traced runs only: extra layer calls, each in a span *)
  layers : calls:int -> (string * float) list;  (* per-layer metrics after a traced run *)
}

(* Every per-layer metric with its unit.  A traced run prints all of
   them; a layer the workload does not reach reads 0. *)
let per_layer_units =
  let fam suffix unit = List.map (fun f -> (Printf.sprintf "serve.%s.%s" f suffix, unit)) Serve.family_names in
  [ ("serve.parse_s", "s"); ("serve.execute_s", "s"); ("serve.log_s", "s"); ("gen.stream_s", "s") ]
  @ fam "p50_ms" "ms" @ fam "busy_share" "share"
  @ [
      ("serve.prepared.lookups", "count");
      ("serve.prepared.distinct", "count");
      ("serve.prepared.repeat_share", "share");
      ("label_cache.lookups", "count");
      ("label_cache.hits", "count");
      ("label_cache.hit_share", "share");
      ("serve.rejected", "count");
      ("lr_sorting.run_s", "s");
      ("lr_sorting.replay_s", "s");
      ("lr_sorting.prove_s", "s");
      ("lr_sorting.run_words_per_node", "words");
      ("lr_sorting.replay_words_per_node", "words");
      ("lr_sorting.total_prover_bits", "bits");
      ("lr_sorting.max_node_total_bits", "bits");
      ("gen.lr_yes_s", "s");
      ("planar_test.embed_s", "s");
      ("planar_test.embed_words_per_node", "words");
      ("planar_embedding.run_s", "s");
      ("planar_embedding.words_per_node", "words");
      ("planarity.run_s", "s");
      ("planarity.residual_s", "s");
      ("planarity.lr_nodes", "count");
      ("gen.planar_s", "s");
      ("shard.execute_s", "s");
      ("shard.reference_s", "s");
      ("shard.events", "count");
      ("shard.windows", "count");
      ("shard.cross_messages", "count");
      ("shard.events_per_window", "count");
      ("net.sent", "count");
      ("net.delivered", "count");
      ("net.dropped", "count");
      ("net.corrupted", "count");
      ("net.duplicated", "count");
      ("net.late", "count");
      ("net.retransmits", "count");
      ("net.acks", "count");
      ("net.delivered_share", "share");
      ("net.retransmit_share", "share");
      ("partition.make_s", "s");
      ("net_protocols.build_s", "s");
      ("net.replay_check_s", "s");
      ("gen.triangulated_grid_s", "s");
      ("gc.minor_words", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.overhead_ratio", "ratio");
      ("trace.unattributed_share", "share");
    ]

(* ---- helpers ----------------------------------------------------------- *)

let get name r = match !r with Some v -> v | None -> failwith (name ^ ": inputs not built")

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Seconds per call spent in spans of one name (summed, so a layer's
   share and the residual of a chain stay additive), and their words. *)
let span_s ~calls name =
  List.fold_left (fun acc s -> acc +. Span.duration s) 0. (Span.named name) /. float (max 1 calls)

let span_words ~calls name =
  List.fold_left (fun acc (s : Span.t) -> acc +. s.words) 0. (Span.named name) /. float (max 1 calls)

let budget_ok row ~n ~delta (stats : Dip.stats) =
  match Bounds.find row with
  | Some r -> Dip.check_budget (Bounds.budget r ~n ~delta) stats = []
  | None -> false

(* ---- serve-mix ---------------------------------------------------------- *)

(* 7 families x 2 sizes; every (family, size) cell holds 5 topologies x 6
   run seeds, then the stream replays every third base position — 10
   exact repeats per cell — so both caches see the same hit counts for
   every workload seed. *)
let serve_cells =
  [
    ("lr", "lr_sorting", [ 64; 128 ]);
    ("path_outerplanarity", "path_outerplanarity", [ 48; 64 ]);
    ("outerplanarity", "outerplanarity", [ 32; 64 ]);
    ("planar_embedding", "planar_embedding", [ 24; 48 ]);
    ("planarity", "planarity", [ 24; 48 ]);
    ("series_parallel", "series_parallel_dip", [ 24; 40 ]);
    ("treewidth2", "treewidth2_dip", [ 32; 64 ]);
  ]

let serve_stream seed =
  let base =
    List.concat_map
      (fun (family, row, sizes) ->
        let budget n =
          match Bounds.find row with
          | Some r -> Bounds.envelope r ~n ~delta:(max 2 (n - 1))
          | None -> failwith ("no bounds row " ^ row)
        in
        List.concat_map
          (fun n ->
            List.concat_map
              (fun g ->
                List.init 6 (fun s ->
                    { Serve.family; n; gseed = (seed * 10) + g; seed = (seed * 10) + s; budget = budget n }))
              [ 0; 1; 2; 3; 4 ])
          sizes)
      serve_cells
  in
  let repeats = List.filteri (fun i _ -> i mod 3 = 0) base in
  Array.of_list (base @ repeats)

let serve_mix seed =
  let text = ref None in
  let fam_lat : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let last = ref (0, 0, 0, 0, 0) in
  let setup () = text := Some (Span.with_ "gen.stream" (fun () -> Serve.requests_to_text (serve_stream seed))) in
  let call () =
    Label_cache.reset ();
    Serve.Prepared_cache.reset ();
    let reqs =
      match Span.with_ "serve.parse" (fun () -> Serve.parse_requests (get "serve-mix" text)) with
      | Ok r -> r
      | Error e -> failwith ("serve-mix: stream does not parse: " ^ e)
    in
    let outs = Span.with_ "serve.execute" (fun () -> Serve.execute ~jobs:1 reqs) in
    let digest = Span.with_ "serve.log" (fun () -> Serve.log_digest (Serve.response_log outs)) in
    let lookups, distinct, _, _ = Serve.Prepared_cache.stats () in
    let hits, misses = Label_cache.stats () in
    let rejected = ref 0 and ok = ref (Array.length outs = Array.length reqs) in
    let proof = ref 0 and proof_sum = ref 0 and max_sum = ref 0 in
    Array.iter
      (fun (o : Serve.outcome) ->
        let r = o.response in
        if not r.accepted then incr rejected;
        if r.accepted && r.max_bits > r.req.budget then ok := false;
        if r.nodes < 1 then ok := false;
        proof := max !proof r.proof_bits;
        proof_sum := !proof_sum + r.proof_bits;
        max_sum := !max_sum + r.max_bits;
        let prev = Option.value ~default:[] (Hashtbl.find_opt fam_lat r.req.family) in
        Hashtbl.replace fam_lat r.req.family (o.latency_s :: prev))
      outs;
    last := (lookups, distinct, hits, hits + misses, !rejected);
    {
      units = Array.length outs;
      latencies = Array.map (fun (o : Serve.outcome) -> o.latency_s) outs;
      attempted = Array.length outs;
      failed = !rejected;
      proof_bits = !proof;
      ok = !ok;
      counters =
        Printf.sprintf
          "digest=%s prepared.lookups=%d prepared.distinct=%d label_cache.lookups=%d \
           label_cache.hits=%d proof_bits.sum=%d max_bits.sum=%d rejected=%d"
          digest lookups distinct (hits + misses) hits !proof_sum !max_sum !rejected;
    }
  in
  let layers ~calls =
    let lookups, distinct, hits, lc_lookups, rejected = !last in
    let share a b = if b > 0 then float a /. float b else 0. in
    let busy f = List.fold_left ( +. ) 0. (Option.value ~default:[] (Hashtbl.find_opt fam_lat f)) in
    let total = List.fold_left (fun acc f -> acc +. busy f) 0. Serve.family_names in
    [
      ("serve.parse_s", span_s ~calls "serve.parse");
      ("serve.execute_s", span_s ~calls "serve.execute");
      ("serve.log_s", span_s ~calls "serve.log");
      ("gen.stream_s", median (List.map Span.duration (Span.named "gen.stream")));
      ("serve.prepared.lookups", float lookups);
      ("serve.prepared.distinct", float distinct);
      ("serve.prepared.repeat_share", 1. -. share distinct lookups);
      ("label_cache.lookups", float lc_lookups);
      ("label_cache.hits", float hits);
      ("label_cache.hit_share", share hits lc_lookups);
      ("serve.rejected", float rejected);
    ]
    @ List.concat_map
        (fun f ->
          let lat = Option.value ~default:[] (Hashtbl.find_opt fam_lat f) in
          [
            (Printf.sprintf "serve.%s.p50_ms" f, 1e3 *. median lat);
            (Printf.sprintf "serve.%s.busy_share" f, if total > 0. then busy f /. total else 0.);
          ])
        Serve.family_names
  in
  {
    unit_name = "request";
    request_name = "one stream request";
    domains = 1;
    setup;
    call;
    (* every batch's digest equals the first batch's: checked through the
       counters line, which carries the digest *)
    sentinels = (fun () -> []);
    probe = (fun () -> ());
    layers;
  }

(* ---- lr-large ----------------------------------------------------------- *)

let lr_n = 1 lsl 14

let lr_large seed =
  let inst = ref None in
  let last = ref None in
  let transcript = ref None in
  let setup () =
    let path, arcs = Span.with_ "gen.lr_yes" (fun () -> Gen.lr_yes ~n:lr_n seed) in
    inst := Some { Lr_sorting.n = lr_n; path; arcs }
  in
  let call () =
    let i = get "lr-large" inst in
    let r = Span.with_ "lr_sorting.run" (fun () -> Lr_sorting.run ~seed ~prover:Lr_sorting.Honest i) in
    let s = r.Lr_sorting.stats in
    last := Some s;
    let good = r.verdict.accepted && budget_ok "lr_sorting" ~n:lr_n ~delta:2 s in
    {
      units = lr_n;
      latencies = [||];
      attempted = 1;
      failed = (if good then 0 else 1);
      proof_bits = s.proof_size_bits;
      ok = true;
      counters =
        Printf.sprintf "accepted=%b proof_bits=%d max_node_total_bits=%d total_prover_bits=%d \
                        total_verifier_bits=%d rounds=%d"
          r.verdict.accepted s.proof_size_bits s.max_node_total_bits s.total_prover_bits
          s.total_verifier_bits s.interaction_rounds;
    }
  in
  let sentinels () =
    let path, arcs = Gen.lr_no ~n:lr_n seed in
    let no = { Lr_sorting.n = lr_n; path; arcs } in
    List.map
      (fun (name, prover) ->
        let r = Lr_sorting.run ~seed ~prover no in
        ("lr_no/" ^ name ^ " rejected", not r.verdict.accepted))
      [
        ("Forge_pairs", Lr_sorting.Forge_pairs);
        ("Shift_positions", Lr_sorting.Shift_positions);
        ("Fake_inner", Lr_sorting.Fake_inner);
      ]
  in
  (* decode + decide only, against a transcript retained once per run *)
  let probe () =
    let i = get "lr-large" inst in
    let frames =
      match !transcript with
      | Some t -> t
      | None ->
          let t = (Lr_sorting.run ~seed ~retain:true ~prover:Lr_sorting.Honest i).transcript in
          transcript := Some t;
          t
    in
    match Span.with_ "lr_sorting.replay" (fun () -> Lr_sorting.replay i frames) with
    | Ok v when v.accepted -> ()
    | Ok _ -> failwith "lr-large: replay of an honest transcript rejects"
    | Error e -> failwith ("lr-large: replay failed: " ^ e)
  in
  let layers ~calls =
    let run_s = span_s ~calls "lr_sorting.run" and replay_s = span_s ~calls "lr_sorting.replay" in
    let per_node x = x /. float lr_n in
    let prover, node =
      match !last with Some s -> (s.Dip.total_prover_bits, s.max_node_total_bits) | None -> (0, 0)
    in
    [
      ("lr_sorting.run_s", run_s);
      ("lr_sorting.replay_s", replay_s);
      ("lr_sorting.prove_s", run_s -. replay_s);
      ("lr_sorting.run_words_per_node", per_node (span_words ~calls "lr_sorting.run"));
      ("lr_sorting.replay_words_per_node", per_node (span_words ~calls "lr_sorting.replay"));
      ("lr_sorting.total_prover_bits", float prover);
      ("lr_sorting.max_node_total_bits", float node);
      ("gen.lr_yes_s", median (List.map Span.duration (Span.named "gen.lr_yes")));
    ]
  in
  {
    unit_name = "node";
    request_name = "one Lr_sorting.run call";
    domains = 1;
    setup;
    call;
    sentinels;
    probe;
    layers;
  }

(* ---- planarity-batch ------------------------------------------------------ *)

let planarity_n = 160
let planarity_batch_size = 24

let planarity_batch seed =
  let graphs = ref None in
  let lr_nodes = ref 0 in
  let setup () =
    graphs :=
      Some
        (Array.init planarity_batch_size (fun i ->
             Span.with_ "gen.planar" (fun () -> Gen.planar ~n:planarity_n ((seed * 100) + i))))
  in
  let call () =
    let gs = get "planarity-batch" graphs in
    let failed = ref 0 and proof = ref 0 and lr = ref 0 and units = ref 0 in
    let runs =
      Array.mapi
        (fun i g ->
          let r =
            Span.with_ "planarity.run" (fun () ->
                Planarity.run ~seed:(seed + i) ~prover:Planarity.Honest { Planarity.graph = g })
          in
          let s = r.Planarity.stats in
          let n = Graph.n g in
          units := !units + n;
          if not (r.verdict.accepted && budget_ok "planarity" ~n ~delta:(Graph.max_degree g) s) then
            incr failed;
          proof := max !proof s.proof_size_bits;
          (match r.inner.inner.lr with Some l -> lr := !lr + l.params.n | None -> ());
          Printf.sprintf "%b/%d/%d" r.verdict.accepted s.proof_size_bits s.max_node_total_bits)
        gs
    in
    lr_nodes := !lr;
    {
      units = !units;
      latencies = [||];
      attempted = Array.length gs;
      failed = !failed;
      proof_bits = !proof;
      ok = true;
      counters = Printf.sprintf "lr_nodes=%d graphs=%s" !lr (String.concat "," (Array.to_list runs));
    }
  in
  let sentinels () =
    let g = Gen.nonplanar ~n:planarity_n seed in
    let r = Planarity.run ~seed ~prover:Planarity.Best_rotation { Planarity.graph = g } in
    [ ("nonplanar/Best_rotation rejected", not r.verdict.accepted) ]
  in
  (* the two stages of the chain, called directly on the same graphs *)
  let probe () =
    Array.iteri
      (fun i g ->
        match Span.with_ "planar_test.embed" (fun () -> Planar_test.embed g) with
        | None -> failwith "planarity-batch: generated graph has no embedding"
        | Some rot ->
            let r =
              Span.with_ "planar_embedding.run" (fun () ->
                  Planar_embedding.run ~seed:(seed + i) ~prover:Planar_embedding.Honest
                    { Planar_embedding.graph = g; rot })
            in
            if not r.verdict.accepted then failwith "planarity-batch: honest embedding rejected")
      (get "planarity-batch" graphs)
  in
  let layers ~calls =
    let nodes = float (planarity_n * planarity_batch_size) in
    let run_s = span_s ~calls "planarity.run" in
    let embed_s = span_s ~calls "planar_test.embed" in
    let pe_s = span_s ~calls "planar_embedding.run" in
    [
      ("planar_test.embed_s", embed_s);
      ("planar_test.embed_words_per_node", span_words ~calls "planar_test.embed" /. nodes);
      ("planar_embedding.run_s", pe_s);
      ("planar_embedding.words_per_node", span_words ~calls "planar_embedding.run" /. nodes);
      ("planarity.run_s", run_s);
      ("planarity.residual_s", run_s -. embed_s -. pe_s);
      ("planarity.lr_nodes", float !lr_nodes);
      ("gen.planar_s", median (List.map Span.duration (Span.named "gen.planar")));
    ]
  in
  {
    unit_name = "node";
    request_name = "one batch call";
    domains = 1;
    setup;
    call;
    sentinels;
    probe;
    layers;
  }

(* ---- net-chaos ------------------------------------------------------------ *)

let net_n = 10_000
let net_model = Fault.chaos ~rate:0.05

let net_chaos seed =
  let inputs = ref None in
  let reference = ref None in
  let last = ref None in
  let setup () =
    let g = Span.with_ "gen.triangulated_grid" (fun () -> Gen.triangulated_grid ~n:net_n seed) in
    let proto =
      Span.with_ "net_protocols.build" (fun () ->
          let parent = Array.mapi (fun v p -> if p = v then -1 else p) (Traversal.spanning_tree g 0) in
          Net_protocols.pls_spanning_tree ~graph:g ~parent)
    in
    inputs := Some (g, proto)
  in
  let run ~shards ~jobs =
    let _, proto = get "net-chaos" inputs in
    Shard.execute_ex ~shards ~jobs ~rng:(Rng.create seed) ~model:net_model proto
  in
  let reference_result () =
    match !reference with
    | Some r -> r
    | None ->
        let r, _ = Span.with_ "shard.reference" (fun () -> run ~shards:1 ~jobs:1) in
        reference := Some r;
        r
  in
  let call () =
    let (res : Net.result), st = Span.with_ "shard.execute" (fun () -> run ~shards:4 ~jobs:2) in
    last := Some (res.stats, st);
    let _, proto = get "net-chaos" inputs in
    let bits = Array.fold_left (Array.fold_left (fun acc b -> max acc (Bits.length b))) 0 proto.rounds in
    let s = res.stats in
    {
      units = st.events;
      latencies = [||];
      attempted = 1;
      failed = (if res = reference_result () then 0 else 1);
      proof_bits = bits;
      ok = st.events > 0;
      counters =
        Printf.sprintf
          "accepted=%b rejecting=%d crashed=%d heard=%h events=%d windows=%d cross_messages=%d \
           sent=%d delivered=%d dropped=%d corrupted=%d duplicated=%d late=%d retransmits=%d acks=%d"
          res.accepted (List.length res.rejecting) (List.length res.crashed_nodes) res.heard st.events
          st.windows st.cross_messages s.sent s.delivered s.dropped s.corrupted s.duplicated s.late
          s.retransmits s.acks;
    }
  in
  let sentinels () =
    let _, proto = get "net-chaos" inputs in
    let sharded, _ = run ~shards:4 ~jobs:2 in
    let replay = Span.with_ "net.replay_check" (fun () -> Net.replay_check proto ~frames:proto.rounds) in
    [
      ("shards:4 jobs:2 equals shards:1 jobs:1", sharded = reference_result ());
      ("Net.replay_check accepts the fault-free frames", replay.accepted);
    ]
  in
  let probe () =
    let g, proto = get "net-chaos" inputs in
    ignore (Span.with_ "partition.make" (fun () -> Partition.make ~blocks:4 g) : Partition.t);
    ignore
      (Span.with_ "net.replay_check" (fun () -> Net.replay_check proto ~frames:proto.rounds)
        : Dip.verdict)
  in
  let layers ~calls =
    let share a b = if b > 0 then float a /. float b else 0. in
    let med name = median (List.map Span.duration (Span.named name)) in
    let counts =
      match !last with
      | None -> []
      | Some ((s : Net.stats), (st : Shard.run_stats)) ->
          [
            ("shard.events", float st.events);
            ("shard.windows", float st.windows);
            ("shard.cross_messages", float st.cross_messages);
            ("shard.events_per_window", share st.events st.windows);
            ("net.sent", float s.sent);
            ("net.delivered", float s.delivered);
            ("net.dropped", float s.dropped);
            ("net.corrupted", float s.corrupted);
            ("net.duplicated", float s.duplicated);
            ("net.late", float s.late);
            ("net.retransmits", float s.retransmits);
            ("net.acks", float s.acks);
            ("net.delivered_share", share s.delivered (s.sent + s.acks));
            ("net.retransmit_share", share s.retransmits s.sent);
          ]
    in
    [
      ("shard.execute_s", span_s ~calls "shard.execute");
      ("shard.reference_s", med "shard.reference");
      ("partition.make_s", med "partition.make");
      ("net_protocols.build_s", med "net_protocols.build");
      ("net.replay_check_s", med "net.replay_check");
      ("gen.triangulated_grid_s", med "gen.triangulated_grid");
    ]
    @ counts
  in
  {
    unit_name = "event";
    request_name = "one Shard.execute_ex round-trip";
    domains = 2;
    setup;
    call;
    sentinels;
    probe;
    layers;
  }

let all =
  [
    ("serve-mix", serve_mix);
    ("lr-large", lr_large);
    ("planarity-batch", planarity_batch);
    ("net-chaos", net_chaos);
  ]

let names = List.map fst all
let make name seed = Option.map (fun f -> f seed) (List.assoc_opt name all)
