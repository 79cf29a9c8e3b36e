(** Series-parallel DIP (paper §8, Theorem 1.6).

    The prover commits a nested ear decomposition (Lemma 8.1): the node set
    is partitioned into sub-ears (the ear interiors, plus the first ear in
    full), encoded as a forest of paths (Lemma 2.3) with connecting-edge
    marks; each sub-ear is certified to be a simple path spanning its
    induced subgraph (Lemma 2.5); per-sub-ear random tags r_Q realize the
    ear/pred_ear checks of the paper (condition 1); and, per host ear, a
    derived path-outerplanarity instance — the host path plus one virtual
    chord per attached ear — certifies the nesting condition (3) through
    {!Path_outerplanarity}.

    Two normalizations, recorded in DESIGN.md: hosts are normalized to the
    deepest earlier ear containing both endpoints *whose sub-ear is
    non-empty* (single-edge hosts defer to their own host, which spans the
    same interval, so nesting is unaffected); and ear-endpoint membership is
    checked through locally computable membership sets
    M(u) = {ear(u)} + {ear(w) : (w,u) is a connecting edge}, which covers
    the paper's "endpoints may coincide with the host's endpoints" cases. *)

type instance = {
  graph : Graph.t;
  ears : int list list option;  (** a nested ear decomposition, if known *)
}

type prover =
  | Honest
  | Ear_cheat  (** best-effort labels when some host's chords cross *)
  | Fake_ears  (** commits a malformed decomposition (broken sub-ear) *)

type result = {
  verdict : Dip.verdict;
  stats : Dip.stats;
  host_results : Path_outerplanarity.result list;
  transcript : (Dip.phase * Bits.t array) list;
      (** the top-level meter's retained frames; non-empty iff [retain] —
          component sub-runs meter separately and are not retained *)
}

val derive_ears : Graph.t -> int list list option
(** Honest witness: SP-tree recognition + Eppstein's construction. *)

val run :
  ?seed:int ->
  ?c:int ->
  ?param_n:int ->
  ?retain:bool ->
  prover:prover ->
  instance ->
  result
(** Each host ear's derived instance gets its own
    {!Path_outerplanarity} run. *)
