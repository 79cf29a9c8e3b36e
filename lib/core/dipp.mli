(** Distributed interactive proofs for planarity — public API.

    An implementation of Gil and Parter, "New Distributed Interactive
    Proofs for Planarity: A Matter of Left and Right" (PODC 2025).
    Everything here is a re-export; see the per-module interfaces for the
    actual contracts. *)

(* utilities *)
module Bits = Dipp_util.Bits
module Rng = Dipp_util.Rng
module Prime = Dipp_util.Prime
module Fp = Dipp_util.Fp
module Poly = Dipp_util.Poly
module Sha256 = Dipp_util.Sha256
module Min_heap = Dipp_util.Min_heap

(* graph substrate *)
module Graph = Dipp_graph.Graph
module Traversal = Dipp_graph.Traversal
module Biconnectivity = Dipp_graph.Biconnectivity
module Degeneracy = Dipp_graph.Degeneracy
module Coloring = Dipp_graph.Coloring
module Forest_decomposition = Dipp_graph.Forest_decomposition
module Rotation = Dipp_graph.Rotation
module Planar_test = Dipp_graph.Planarity
module Outerplanar = Dipp_graph.Outerplanar
module Series_parallel = Dipp_graph.Series_parallel
module Partition = Dipp_graph.Partition

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

(* trial engine: deterministic multicore experiment execution *)
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
