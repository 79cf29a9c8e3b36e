(* dipp-refine: the numeric refinement pass (ANALYSIS.md).

   Fixture snippets drive the abstract interpreter directly through
   Refine.analyze with an explicit declared envelope, so each test pins
   one transfer-function or rule behaviour: affine helper summaries,
   loop widening termination, per-expression budget findings, trusted
   annotations, the subscript auditor and the unsafe_sub gate.  A QCheck
   property checks interval soundness on randomly generated constant
   arithmetic, and the mutation tests flip verdicts both ways (widening
   a fixture's width constant, narrowing a real registry row). *)

module Refine = Dipp_analysis.Refine
module Lint = Dipp_analysis.Lint_rules
module Report = Dipp_analysis.Report
module Cli = Dipp_analysis.Cli
module Ast_scan = Dipp_analysis.Ast_scan
module Typed_scan = Dipp_analysis.Typed_scan
module Bounds = Dipp_protocols.Bounds

let qtest = QCheck_alcotest.to_alcotest

let rules_of findings = List.sort_uniq String.compare (List.map (fun f -> f.Report.rule) findings)

let analyze ?program ?declared src =
  let annots = Refine.annotations_of_source src in
  Refine.analyze ?program ~annots ?declared ~filename:"fixture.ml"
    (Ast_scan.parse_string ~filename:"fixture.ml" src)

let check ?program ?declared src = (analyze ?program ?declared src).Refine.findings

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let has_rule rule findings = List.mem rule (rules_of findings)

(* the lr_sorting registry envelope: 40*loglog + 60 *)
let wide = Refine.envelope ~loglog:40 ~add:60 ()

let record_fixture width =
  Printf.sprintf
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:%s 0));\n\
    \  Dip.stats meter\n"
    width

(* ---- budget: constants against a declared envelope -------------------- *)

let test_budget_constant () =
  Alcotest.(check (list string))
    "4-bit label within 40*loglog + 60" []
    (rules_of (check ~declared:wide (record_fixture "4")));
  let findings = check ~declared:wide (record_fixture "4096") in
  Alcotest.(check bool) "4096-bit label caught" true (has_rule Refine.rule_budget findings);
  let f = List.find (fun f -> String.equal f.Report.rule Refine.rule_budget) findings in
  Alcotest.(check bool)
    "finding names the inferred interval" true
    (contains f.Report.msg "[4096, 4096]")

let test_budget_per_expression () =
  (* two record sites; only the over-wide one is reported, at its line *)
  let src =
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:4 0));\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:4096 0));\n\
    \  Dip.stats meter\n"
  in
  match check ~declared:wide src with
  | [ f ] ->
      Alcotest.(check string) "rule" Refine.rule_budget f.Report.rule;
      Alcotest.(check int) "finding anchored at the offending site" 4 f.Report.line
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_budget_unbounded () =
  (* a label built by an unknown helper cannot be bounded *)
  let findings = check ~declared:wide (record_fixture "(mystery_width ())") in
  Alcotest.(check bool) "unbounded width caught" true (has_rule Refine.rule_budget findings);
  let f = List.find (fun f -> String.equal f.Report.rule Refine.rule_budget) findings in
  Alcotest.(check bool) "explains the failure" true (contains f.Report.msg "cannot bound")

(* ---- affine helper summaries ------------------------------------------ *)

let helper_fixture =
  "let pair w x = Bits.append (Bits.of_int ~width:w x) (Bits.of_int ~width:(w + 1) x)\n\n\
   let run n =\n\
  \  let meter = Dip.meter () in\n\
  \  Dip.record_prover meter (Array.init n (fun _ -> pair 3 0));\n\
  \  Dip.stats meter\n"

let test_affine_helper () =
  (* pair w _ produces 2*w + 1 bits; at w = 3 that is exactly 7 *)
  Alcotest.(check (list string))
    "2*w + 1 at w = 3 fits in 7" []
    (rules_of (check ~declared:(Refine.envelope ~add:7 ()) helper_fixture));
  Alcotest.(check bool)
    "but not in 6" true
    (has_rule Refine.rule_budget (check ~declared:(Refine.envelope ~add:6 ()) helper_fixture));
  let r = analyze helper_fixture in
  match (r.Refine.label_lo, r.Refine.label_hi) with
  | Some lo, Some hi ->
      Alcotest.(check (option int)) "exact lower bound" (Some 7) (Refine.eval_form lo ~n:64 ~delta:8);
      Alcotest.(check (option int)) "exact upper bound" (Some 7) (Refine.eval_form hi ~n:64 ~delta:8)
  | _ -> Alcotest.fail "helper summary lost the label interval"

let test_cross_module_helper () =
  (* the same summary, but the helper lives in another module reached
     through the Typed_scan program *)
  let dir = Filename.temp_file "refine" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let write name s =
        let oc = open_out (Filename.concat dir name) in
        output_string oc s;
        close_out oc
      in
      write "helper.ml" "let enc w x = Bits.of_int ~width:(2 * w) x\n";
      let proto =
        "let run n =\n\
        \  let meter = Dip.meter () in\n\
        \  Dip.record_prover meter (Array.init n (fun _ -> Helper.enc 5 1));\n\
        \  Dip.stats meter\n"
      in
      write "proto.ml" proto;
      let program = Typed_scan.load_tree dir in
      let structure = Ast_scan.parse_file (Filename.concat dir "proto.ml") in
      let run declared =
        (Refine.analyze ~program ~declared ~filename:(Filename.concat dir "proto.ml") structure)
          .Refine.findings
      in
      Alcotest.(check (list string))
        "Helper.enc 5 _ = 10 bits fits in 10" []
        (rules_of (run (Refine.envelope ~add:10 ())));
      Alcotest.(check bool)
        "but not in 9" true
        (has_rule Refine.rule_budget (run (Refine.envelope ~add:9 ()))))

(* ---- loop widening terminates ----------------------------------------- *)

let test_widening_terminates () =
  (* an n-dependent for-loop strictly grows the accumulator: widening
     must reach a fixpoint (hi -> unbounded) instead of iterating n
     times, and the unbounded width is a budget finding *)
  let src =
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  let w = ref 1 in\n\
    \  for _i = 0 to n do w := !w + 1 done;\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:!w 0));\n\
    \  Dip.stats meter\n"
  in
  Alcotest.(check bool)
    "widened width is a budget finding" true
    (has_rule Refine.rule_budget (check ~declared:wide src));
  (* a while-loop over a growing Writer also terminates *)
  let src_while =
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  let w = Bits.Writer.create () in\n\
    \  let i = ref 0 in\n\
    \  while !i < n do\n\
    \    Bits.Writer.bool w true;\n\
    \    incr i\n\
    \  done;\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.Writer.contents w));\n\
    \  Dip.stats meter\n"
  in
  Alcotest.(check bool)
    "writer loop widens and is caught" true
    (has_rule Refine.rule_budget (check ~declared:wide src_while))

(* ---- annotations ------------------------------------------------------- *)

let test_annotation_trusted () =
  (* a site width annotation is a trusted axiom checked against the
     envelope symbolically *)
  let site ann =
    Printf.sprintf
      "let run n =\n\
      \  let meter = Dip.meter () in\n\
      \  (* dipp-refine: width <= %s *)\n\
      \  Dip.record_prover meter (Array.init n (fun v -> opaque_label v));\n\
      \  Dip.stats meter\n"
      ann
  in
  Alcotest.(check (list string))
    "40*loglog + 40 within 40*loglog + 60" []
    (rules_of (check ~declared:wide (site "40*loglog + 40")));
  Alcotest.(check bool)
    "90*loglog overflows the envelope" true
    (has_rule Refine.rule_budget (check ~declared:wide (site "90*loglog")));
  Alcotest.(check bool)
    "log is not provably below loglog" true
    (has_rule Refine.rule_budget (check ~declared:wide (site "log")))

let test_annotation_malformed () =
  let annots = Refine.annotations_of_source "let x = 1\n(* dipp-refine: width <= 3^loglog *)\n" in
  Alcotest.(check (list string))
    "malformed form flagged" [ Refine.rule_annotation ]
    (rules_of (Refine.annotation_findings ~filename:"fixture.ml" annots));
  let ok = Refine.annotations_of_source "(* dipp-refine: value <= 2*loglog + 4 *)\nlet x = 1\n" in
  Alcotest.(check (list string))
    "well-formed annotation is quiet" []
    (rules_of (Refine.annotation_findings ~filename:"fixture.ml" ok));
  (* prose mentioning the marker is not an annotation attempt *)
  let prose = Refine.annotations_of_source "(* dipp-refine: annotations are described in ANALYSIS.md *)\n" in
  Alcotest.(check (list string))
    "prose mention ignored" []
    (rules_of (Refine.annotation_findings ~filename:"fixture.ml" prose))

let test_suppression () =
  (* through the full linter (which derives the envelope from the bounds
     registry row for lr_sorting.ml), a suppression token silences the
     finding *)
  let bad =
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:8192 0));\n\
    \  Dip.stats meter\n"
  in
  Alcotest.(check bool)
    "over-wide label fires through lint_source" true
    (has_rule Refine.rule_budget (Lint.lint_source ~filename:"lr_sorting.ml" bad));
  let suppressed =
    "let run n =\n\
    \  let meter = Dip.meter () in\n\
    \  (* dipp-lint: allow refine-budget *)\n\
    \  Dip.record_prover meter (Array.init n (fun _ -> Bits.of_int ~width:8192 0));\n\
    \  Dip.stats meter\n"
  in
  Alcotest.(check bool)
    "allow token silences it" false
    (has_rule Refine.rule_budget (Lint.lint_source ~filename:"lr_sorting.ml" suppressed))

(* ---- the subscript auditor (refine-index) ------------------------------ *)

let test_index_safe () =
  let src =
    "let run n =\n\
    \  let a = Array.make n 0 in\n\
    \  Dip.all_accept ~n (fun i -> a.(i) >= 0)\n"
  in
  let r = analyze src in
  Alcotest.(check (list string)) "no findings" [] (rules_of r.Refine.findings);
  match r.Refine.safe with
  | [ s ] ->
      Alcotest.(check int) "safe site line" 3 s.Refine.sline;
      Alcotest.(check bool) "describes the proof" true (contains s.Refine.sdesc "proved within")
  | l -> Alcotest.failf "expected one proved-safe subscript, got %d" (List.length l)

let test_index_out_of_bounds () =
  let src =
    "let run n =\n\
    \  let a = Array.make n 0 in\n\
    \  Dip.all_accept ~n (fun i -> a.(i + n) >= 0)\n"
  in
  let findings = check src in
  Alcotest.(check bool) "provable OOB caught" true (has_rule Refine.rule_index findings);
  let f = List.find (fun f -> String.equal f.Report.rule Refine.rule_index) findings in
  Alcotest.(check bool) "message says so" true (contains f.Report.msg "out of bounds")

let test_unsafe_sub_gate () =
  (* provably in range: proved safe, no finding *)
  let ok = "let run _n = Bits.unsafe_sub (Bits.of_int ~width:8 0) ~pos:1 ~len:4\n" in
  let r = analyze ok in
  Alcotest.(check (list string)) "in-range slice clean" [] (rules_of r.Refine.findings);
  Alcotest.(check bool)
    "and recorded as proved safe" true
    (List.exists (fun s -> contains s.Refine.sdesc "unsafe_sub") r.Refine.safe);
  (* reached but unprovable: the source length is opaque *)
  Alcotest.(check bool)
    "opaque source length is a finding" true
    (has_rule Refine.rule_index (check "let run b = Bits.unsafe_sub b ~pos:0 ~len:4\n"));
  (* never reached by the evaluator: the syntactic gate fires *)
  let findings = check "let helper b = Bits.unsafe_sub b ~pos:0 ~len:4\n" in
  Alcotest.(check bool) "unreached site gated" true (has_rule Refine.rule_index findings);
  let f = List.find (fun f -> String.equal f.Report.rule Refine.rule_index) findings in
  Alcotest.(check bool) "explains why" true (contains f.Report.msg "not reached")

let test_unsafe_int_gate () =
  (* Writer.int accumulates an exact width, so a field read inside the
     encoded prefix proves through the contents transfer *)
  let ok =
    "let run _n =\n\
    \  let w = Bits.Writer.create ~capacity:16 () in\n\
    \  Bits.Writer.int w ~width:8 0;\n\
    \  Bits.unsafe_int (Bits.Writer.contents w) ~pos:1 ~width:4\n"
  in
  let r = analyze ok in
  Alcotest.(check (list string)) "in-range field read clean" [] (rules_of r.Refine.findings);
  Alcotest.(check bool)
    "and recorded as proved safe" true
    (List.exists (fun s -> contains s.Refine.sdesc "Bits.unsafe_int") r.Refine.safe);
  (* reached but unprovable: the source length is opaque *)
  let findings = check "let run b = Bits.unsafe_int b ~pos:0 ~width:4\n" in
  Alcotest.(check bool) "opaque source length is a finding" true
    (has_rule Refine.rule_index findings);
  let f = List.find (fun f -> String.equal f.Report.rule Refine.rule_index) findings in
  Alcotest.(check bool)
    "finding points at the checked reader" true
    (contains f.Report.msg "Bits.read_int");
  (* never reached by the evaluator: the syntactic gate fires *)
  let findings = check "let helper b = Bits.unsafe_int b ~pos:0 ~width:4\n" in
  Alcotest.(check bool) "unreached field read gated" true (has_rule Refine.rule_index findings)

let test_writer_reset_budget () =
  (* the Writer transfers track accumulated width and [reset] rewinds it,
     so a reset-reused writer is charged per label: the 4096 bits written
     before the first reset never reach a recorded label *)
  let fixture width =
    Printf.sprintf
      "let run n =\n\
      \  let meter = Dip.meter () in\n\
      \  let w = Bits.Writer.create ~capacity:64 () in\n\
      \  Bits.Writer.int w ~width:4096 0;\n\
      \  Dip.record_prover meter\n\
      \    (Array.init n (fun _ ->\n\
      \       Bits.Writer.reset w;\n\
      \       Bits.Writer.int w ~width:%s 1;\n\
      \       Bits.Writer.bool w true;\n\
      \       Bits.Writer.contents w));\n\
      \  Dip.stats meter\n"
      width
  in
  Alcotest.(check (list string))
    "5-bit reset-reused label within 40*loglog + 60" []
    (rules_of (check ~declared:wide (fixture "4")));
  let findings = check ~declared:wide (fixture "4096") in
  Alcotest.(check bool) "4097-bit label caught" true (has_rule Refine.rule_budget findings)

(* ---- mutation checks: the verdict flips both ways ---------------------- *)

let locate_lib () =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "dip/dip.ml"))
    [ "../lib"; "lib"; "../../lib"; "../../../lib" ]

let test_mutation_real_row () =
  (* the shipped lr_sorting module is clean under its registry envelope;
     narrowing the row flips the verdict to findings *)
  match locate_lib () with
  | None -> Alcotest.fail "cannot locate lib/ from the test working directory"
  | Some dir -> (
      let file = Filename.concat dir "protocols/lr_sorting.ml" in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let program = Typed_scan.load_tree dir in
      let annots = Refine.annotations_of_source src in
      let structure = Ast_scan.parse_file file in
      let run declared =
        (Refine.analyze ~program ~annots ~declared ~filename:file structure).Refine.findings
      in
      match Bounds.find "lr_sorting" with
      | None -> Alcotest.fail "lr_sorting has no bounds row"
      | Some row ->
          Alcotest.(check (list string))
            "clean under the registry envelope" []
            (rules_of (run (Refine.envelope_of_shape row.Bounds.shape)));
          Alcotest.(check bool)
            "narrowed envelope flips the verdict" true
            (has_rule Refine.rule_budget (run (Refine.envelope ~loglog:1 ~add:0 ()))))

let test_mutation_fixture_constant () =
  (* same envelope, widened width constant: pass -> fail *)
  Alcotest.(check (list string))
    "original constant passes" []
    (rules_of (check ~declared:wide (record_fixture "16")));
  Alcotest.(check bool)
    "widened constant fails" true
    (has_rule Refine.rule_budget (check ~declared:wide (record_fixture "(16 * 512)")))

(* ---- interval soundness (QCheck) --------------------------------------- *)

(* random constant arithmetic as (source, value) pairs; every operator
   exercised has a transfer function, and every generated value is a
   legal nonnegative width *)
let expr_gen =
  let open QCheck.Gen in
  let leaf = map (fun c -> (string_of_int c, c)) (int_range 0 20) in
  sized_size (int_range 0 4)
  @@ fix (fun self k ->
         if k = 0 then leaf
         else
           let sub = self (k - 1) in
           frequency
             [
               (2, leaf);
               (3, map2 (fun (sa, va) (sb, vb) -> (Printf.sprintf "(%s + %s)" sa sb, va + vb)) sub sub);
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) -> (Printf.sprintf "(max (%s - %s) 0)" sa sb, max (va - vb) 0))
                   sub sub );
               (2, map2 (fun (sa, va) (sb, vb) -> (Printf.sprintf "(min %s %s)" sa sb, min va vb)) sub sub);
               (2, map2 (fun (sa, va) (sb, vb) -> (Printf.sprintf "(max %s %s)" sa sb, max va vb)) sub sub);
               (1, map2 (fun (sa, va) c -> (Printf.sprintf "(%s * %d)" sa c, va * c)) sub (int_range 0 5));
               (1, map2 (fun (sa, va) c -> (Printf.sprintf "(%s mod %d)" sa c, va mod c)) sub (int_range 1 7));
             ])

let test_interval_sound =
  QCheck.Test.make ~name:"inferred interval contains the concrete width" ~count:60
    (QCheck.make ~print:fst expr_gen)
    (fun (src, v) ->
      let r = analyze (record_fixture src) in
      match (r.Refine.label_lo, r.Refine.label_hi) with
      | Some lo, Some hi -> (
          match (Refine.eval_form lo ~n:64 ~delta:8, Refine.eval_form hi ~n:64 ~delta:8) with
          | Some l, Some h -> l <= v && v <= h
          | _ -> false)
      | _ -> false)

let test_form_leq_sound =
  (* form_leq f g implies f <= g pointwise on sampled instance sizes *)
  let coeffs = QCheck.Gen.(quad (int_range 0 5) (int_range 0 5) (int_range 0 5) (int_range 0 50)) in
  QCheck.Test.make ~name:"form_leq is pointwise sound" ~count:200
    (QCheck.make
       ~print:(fun ((a, b, c, d), (a', b', c', d')) ->
         Printf.sprintf "%d*ll+%d*l+%d*ld+%d vs %d*ll+%d*l+%d*ld+%d" a b c d a' b' c' d')
       QCheck.Gen.(pair coeffs coeffs))
    (fun ((a, b, c, d), (a', b', c', d')) ->
      let f = Refine.envelope ~loglog:a ~log:b ~logdelta:c ~add:d () in
      let g = Refine.envelope ~loglog:a' ~log:b' ~logdelta:c' ~add:d' () in
      (not (Refine.form_leq f g))
      || List.for_all
           (fun (n, delta) ->
             match (Refine.eval_form f ~n ~delta, Refine.eval_form g ~n ~delta) with
             | Some x, Some y -> x <= y
             | _ -> false)
           [ (2, 2); (16, 3); (1024, 7); (1_000_000, 40); (1_000_000, 1_000_000) ])

(* ---- the CLI rule registry (--list-rules) ------------------------------ *)

let test_list_rules () =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let code = Cli.run ~out ~err:out [| "dipp_lint"; "--list-rules" |] in
  Format.pp_print_flush out ();
  Alcotest.(check int) "exit 0" 0 code;
  let text = Buffer.contents buf in
  List.iter
    (fun (r : Lint.rule) ->
      Alcotest.(check bool) (r.Lint.id ^ " listed") true (contains text r.Lint.id))
    Lint.rules;
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  Alcotest.(check int) "one line per registered rule" (List.length Lint.rules) (List.length lines)

let () =
  Alcotest.run "refine"
    [
      ( "budget",
        [
          Alcotest.test_case "constant vs envelope" `Quick test_budget_constant;
          Alcotest.test_case "per-expression finding" `Quick test_budget_per_expression;
          Alcotest.test_case "unbounded width" `Quick test_budget_unbounded;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "affine helper" `Quick test_affine_helper;
          Alcotest.test_case "cross-module helper" `Quick test_cross_module_helper;
          Alcotest.test_case "loop widening terminates" `Quick test_widening_terminates;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "trusted width annotation" `Quick test_annotation_trusted;
          Alcotest.test_case "malformed annotation" `Quick test_annotation_malformed;
          Alcotest.test_case "suppression token" `Quick test_suppression;
        ] );
      ( "index",
        [
          Alcotest.test_case "proved safe" `Quick test_index_safe;
          Alcotest.test_case "provably out of bounds" `Quick test_index_out_of_bounds;
          Alcotest.test_case "unsafe_sub gate" `Quick test_unsafe_sub_gate;
          Alcotest.test_case "flat read gate" `Quick test_unsafe_int_gate;
          Alcotest.test_case "flat encoder budget" `Quick test_writer_reset_budget;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "narrowing a real row" `Quick test_mutation_real_row;
          Alcotest.test_case "widening a fixture constant" `Quick test_mutation_fixture_constant;
        ] );
      ("soundness", [ qtest test_interval_sound; qtest test_form_leq_sound ]);
      ("cli", [ Alcotest.test_case "--list-rules matches the registry" `Quick test_list_rules ]);
    ]
