(** Outerplanarity DIPs (paper §6, Theorems 6.1 and 1.3).

    Theorem 6.1: a biconnected graph is outerplanar iff it is
    path-outerplanar w.r.t. a Hamiltonian path whose endpoints are joined by
    an edge; the protocol is {!Path_outerplanarity} plus that one check.

    Theorem 1.3 (general outerplanarity): the prover commits to the
    block–cut tree rooted at some component; every biconnected component C
    gets a Hamiltonian path P_C emerging from its separating cut node, the
    union of the P_C is certified to be a spanning tree (Lemma 2.5), cut
    node/leader random tags glue the decomposition together, and the
    biconnected protocol runs on all components in parallel.  A cut node
    belongs to several components; the paper defers its per-component labels
    to its component neighbors (constant blow-up) — we account for that
    deferral in the reported stats (DESIGN.md). *)

type instance = { graph : Graph.t }

type prover =
  | Honest
  | Component_cheat  (** best-effort labels on non-outerplanar components *)
  | Merge_components  (** pretends two components are one *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  component_results : Path_outerplanarity.result list;
  transcript : (Dip.phase * Bits.t array) list;
      (** the top-level meter's retained frames; non-empty iff [retain] —
          component sub-runs meter separately and are not retained *)
}

val run_biconnected :
  ?seed:int ->
  ?c:int ->
  ?param_n:int ->
  ?retain:bool ->
  prover:Path_outerplanarity.prover ->
  Graph.t ->
  Path_outerplanarity.result
(** Theorem 6.1: requires a biconnected input; uses the cycle-cut witness
    and adds the endpoints-adjacent check (folded into the witness choice:
    the committed path always has adjacent endpoints, and the verifier
    checks the closing edge exists). *)

val run :
  ?seed:int ->
  ?c:int ->
  ?retain:bool ->
  prover:prover ->
  instance ->
  result
(** Theorem 1.3 on connected graphs; every biconnected component with at
    least three nodes gets its own {!Path_outerplanarity} run. *)
