(** Plain-text graph exchange.

    Edge-list format: one edge per line as two whitespace-separated node
    ids; blank lines and [#] comments ignored; an optional leading line
    [n <count>] pins the node count (otherwise 1 + max id).  DOT output is
    provided for visual inspection of instances and counterexamples. *)

val max_nodes : int
(** The size cap, 2{^24} = 16 777 216 nodes: a pinned [n] may be at most
    [max_nodes] and a node id at most [max_nodes - 1].  Both are checked on
    the line that carries them, before any graph storage is allocated. *)

val parse_edge_list : string -> Graph.t
(** Raises [Invalid_argument] with a 1-based line-numbered message on any
    malformed input: a non-numeric or negative endpoint, a line with a
    field count other than two, a self-loop, a bad [n] directive, a count
    or node id over {!max_nodes}, or a node id out of range of a pinned
    [n]. *)

val to_edge_list : Graph.t -> string
(** Canonical form: [n <count>] first, then edges sorted ascending — the
    transcript subsystem hashes this text as the graph digest. *)

val read_file : string -> Graph.t
(** {!parse_edge_list} on the file contents; parse errors are re-raised
    with the path prepended to the line-numbered message. *)

val write_file : string -> Graph.t -> unit

val to_dot : ?name:string -> ?highlight:Graph.edge list -> Graph.t -> string
(** Undirected DOT; [highlight] edges are drawn bold red (used for
    counterexample edges, e.g. the Theorem 1.8 fooling arc). *)

val rotation_to_dot : Rotation.t -> string
(** DOT with rotation orders recorded as edge port annotations. *)
