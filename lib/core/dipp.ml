(** Distributed interactive proofs for planarity — public API.

    An implementation of Gil and Parter, "New Distributed Interactive
    Proofs for Planarity: A Matter of Left and Right" (PODC 2025).

    The protocol entry points (one per theorem):
    - {!Lr_sorting} (Lemma 4.1/4.2),
    - {!Path_outerplanarity} (Theorem 1.2),
    - {!Outerplanarity} (Theorem 1.3 and 6.1),
    - {!Planar_embedding} (Theorem 1.4),
    - {!Planarity} (Theorem 1.5),
    - {!Series_parallel_dip} (Theorem 1.6),
    - {!Treewidth2_dip} (Theorem 1.7);

    baselines and the Theorem 1.8 experiment:
    - {!Pls_lr_sorting}, {!Pls_path_outerplanar}, {!Pls_spanning_tree},
      {!Lower_bound};

    and the substrates: graphs and recognition algorithms under
    {!Graph}..{!Series_parallel}, DIP machinery under {!Dip},
    {!Forest_encoding}, {!Edge_labels}, {!Spanning_tree_verify},
    {!Multiset_equality}, and instance generators under {!Gen}. *)

(* utilities *)
module Bits = Dipp_util.Bits
module Rng = Dipp_util.Rng
module Min_heap = Dipp_util.Min_heap
module Prime = Dipp_util.Prime
module Fp = Dipp_util.Fp
module Poly = Dipp_util.Poly
module Sha256 = Dipp_util.Sha256

(* graph substrate *)
module Graph = Dipp_graph.Graph
module Traversal = Dipp_graph.Traversal
module Partition = Dipp_graph.Partition
module Biconnectivity = Dipp_graph.Biconnectivity
module Degeneracy = Dipp_graph.Degeneracy
module Coloring = Dipp_graph.Coloring
module Forest_decomposition = Dipp_graph.Forest_decomposition
module Rotation = Dipp_graph.Rotation
module Planar_test = Dipp_graph.Planarity
module Outerplanar = Dipp_graph.Outerplanar
module Series_parallel = Dipp_graph.Series_parallel

(* generators *)
module Gen = Dipp_gen.Gen

(* DIP framework and shared sub-protocols *)
module Dip = Dipp_dip.Dip
module Forest_encoding = Dipp_dip.Forest_encoding
module Edge_labels = Dipp_dip.Edge_labels
module Spanning_tree_verify = Dipp_dip.Spanning_tree_verify
module Multiset_equality = Dipp_dip.Multiset_equality

(* the paper's protocols *)
module Bounds = Dipp_protocols.Bounds
module Lr_sorting = Dipp_protocols.Lr_sorting
module Path_outerplanarity = Dipp_protocols.Path_outerplanarity
module Outerplanarity = Dipp_protocols.Outerplanarity
module Planar_embedding = Dipp_protocols.Planar_embedding
module Planarity = Dipp_protocols.Planarity
module Series_parallel_dip = Dipp_protocols.Series_parallel_dip
module Treewidth2_dip = Dipp_protocols.Treewidth2_dip

(* trial engine *)
module Pool = Dipp_engine.Pool
module Engine = Dipp_engine.Engine
module Soundness = Dipp_engine.Soundness

(* fault-injecting network runtime *)
module Fault = Dipp_net.Fault
module Net = Dipp_net.Net
module Shard = Dipp_net.Shard
module Net_protocols = Dipp_net.Net_protocols
module Fault_sweep = Dipp_engine.Fault_sweep

(* transcripts: record/replay + label cache *)
module Trace = Dipp_trace.Trace
module Label_cache = Dipp_trace.Label_cache
module Serve = Dipp_serve.Serve
module Trace_registry = Dipp_trace.Registry

(* baselines + lower bound *)
module Pls_lr_sorting = Dipp_baselines.Pls_lr_sorting
module Pls_path_outerplanar = Dipp_baselines.Pls_path_outerplanar
module Pls_spanning_tree = Dipp_baselines.Pls_spanning_tree
module Lower_bound = Dipp_baselines.Lower_bound
module Graph_io = Dipp_graph.Graph_io
