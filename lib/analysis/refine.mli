(** dipp-refine: a numeric refinement pass proving per-expression
    proof-size bounds at lint time.

    An interprocedural interval/affine abstract interpretation over the
    parsetree: every integer carries an interval of affine forms over
    the symbolic terms [loglog] ([ceil_log2 (ceil_log2 n)]), [log]
    ([ceil_log2 n]) and [logdelta] ([ceil_log2 (max 2 delta)]); every
    [Bits.t] carries an interval on its length.  Transfer functions
    cover the [Bits] constructors (including the [Writer] accumulator),
    [Array]/[List]/[String] combinators and integer arithmetic;
    let-bound and cross-module helpers (through {!Typed_scan}) are
    evaluated at their call sites so summaries are affine in the actual
    arguments, with recursion guards, loop widening and an evaluation
    fuel making the pass total.

    Trusted declared widths enter through annotation comments on the
    binding's (or call's) own line or the line above:

    {v (* dipp-refine: value <= 3*loglog + 6 *)
       (* dipp-refine: width <= 40*loglog + 40 *) v}

    Both assert the value (an int, resp. a [Bits.t] length or function
    result width) lies in [0, FORM]; FORM is a [+]-separated sum of
    [INT], [NAME] and [INT*NAME] atoms where NAME is [loglog], [log],
    [logdelta] or a parameter name of the annotated function.
    Annotations are the axioms of the analysis — [bench bounds] keeps
    them honest by reporting claim / inferred / measured side by side. *)

val rule_budget : string
(** ["refine-budget"]: in a module with a bounds-registry row
    (lib/protocols/bounds.ml), every [Dip.record_prover] site reachable
    from [run] must have a label-width upper bound provably within the
    declared envelope shape; unprovable or exceeding sites are
    per-expression findings naming the inferred interval.  Parallel
    sub-protocol composition sums remain a runtime check
    ({!Dip.check_budget}); the static rule bounds each phase's widest
    own label. *)

val rule_index : string
(** ["refine-index"]: array/string/[Bits] subscripts inside decision
    functions and [Dip.all_accept] callbacks are re-proved in bounds;
    provable violations are findings, proved-safe subscripts are
    collected in {!result.safe}.  [Bits.unsafe_sub] and [Bits.unsafe_int]
    are gated everywhere: any call site the pass cannot prove in-range is
    a finding. *)

val rule_annotation : string
(** ["refine-annotation"]: a [dipp-refine:] comment that does not parse. *)

(** {2 Symbolic envelopes} *)

type envelope
(** An affine form over [loglog]/[log]/[logdelta] with an additive
    constant — the comparison domain of the pass. *)

val envelope : ?loglog:int -> ?log:int -> ?logdelta:int -> add:int -> unit -> envelope
(** Constructor for tests and callers outside the bounds registry. *)

val envelope_of_shape : Dipp_protocols.Bounds.shape -> envelope

val eval_form : envelope -> n:int -> delta:int -> int option
(** Numeric value at a concrete instance size; [None] if the form
    mentions a function-parameter term. *)

val pp_envelope : Format.formatter -> envelope -> unit

val form_leq : envelope -> envelope -> bool
(** Sound comparison: [form_leq f g] only when [f <= g] for every
    [n >= 1], [0 <= delta <= n] (uses [1 <= loglog <= log] and
    [1 <= logdelta <= log]). *)

(** {2 Annotations} *)

type annots

val no_annots : unit -> annots

val annotations_of_source : string -> annots
(** Scans source text for [(* dipp-refine: ... *)] comments. *)

val annotation_findings : filename:string -> annots -> Report.finding list
(** One [refine-annotation] finding per malformed comment. *)

(** {2 The pass} *)

type safe = {
  sfile : string;
  sline : int;  (** 1-based *)
  scol : int;  (** 0-based *)
  sdesc : string;  (** e.g. ["Array.get: index [0, n + -1] proved within [0, n)"] *)
}
(** A subscript or slice the pass proved in bounds ([--refine-safe]). *)

type result = {
  findings : Report.finding list;
  safe : safe list;
  label_lo : envelope option;
      (** lower bound on the widest own [record_prover] label *)
  label_hi : envelope option;
      (** upper bound on the widest own [record_prover] label — [None]
          when some site is unbounded; [bench bounds] evaluates this at
          the measured instance sizes as the "inferred" column *)
}

val analyze :
  ?program:Typed_scan.program ->
  ?annots:annots ->
  ?declared:envelope ->
  filename:string ->
  Parsetree.structure ->
  result
(** Runs the pass on one module.  [program] enables cross-module helper
    evaluation; [annots] should be [annotations_of_source] of the same
    file; [declared] switches on the [refine-budget] check against that
    envelope.  The pass is fail-open: an internal error yields an empty
    result rather than a crash. *)

val check :
  ?program:Typed_scan.program ->
  ?annots:annots ->
  ?declared:envelope ->
  filename:string ->
  Parsetree.structure ->
  Report.finding list
(** [(analyze ...).findings]. *)
