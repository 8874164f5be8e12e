(* Fuzzing subsystem tests: replay the checked-in corpus differentially on
   the fast backends, exercise the regression reproducers on the JIT too,
   and check the shrinker's contract with qcheck. *)

open Wolf_fuzz

let corpus_dir = "corpus"

let entries = lazy (Driver.read_corpus_dir corpus_dir)

let failure_str f =
  Printf.sprintf "%s: expected %s, got %s" f.Oracle.fwhere f.Oracle.fexpected
    f.Oracle.fgot

let check_clean ?backends ?levels entry =
  match Driver.check_entry ?backends ?levels entry with
  | [] -> ()
  | fs ->
    Alcotest.failf "%s (%s): %s" entry.Driver.ce_path entry.Driver.ce_note
      (String.concat "; " (List.map failure_str fs))

let test_corpus_present () =
  let n = List.length (Lazy.force entries) in
  Alcotest.(check bool)
    (Printf.sprintf "corpus has >= 10 programs (found %d)" n)
    true (n >= 10)

(* every corpus program, interpreter vs threaded O0/O1/O2 and WVM (where
   representable), plus abort injection *)
let test_corpus_replay () =
  List.iter check_clean (Lazy.force entries)

(* the shrunk miscompilation reproducers additionally run on the JIT, which
   shells out to ocamlopt and is therefore kept off the full-corpus sweep *)
let test_regressions_on_jit () =
  Lazy.force entries
  |> List.filter (fun e ->
      String.length (Filename.basename e.Driver.ce_path) >= 7
      && String.sub (Filename.basename e.Driver.ce_path) 0 7 = "regress")
  |> List.iter (fun e ->
      check_clean ~backends:[ Oracle.Jit ] ~levels:[ 1; 2 ] e)

(* the par arm is the only one that calls a single compiled function more
   than once, so it alone catches state leaking across calls (e.g. the
   pooled-constant mutation regression) *)
let test_regressions_on_par () =
  Lazy.force entries
  |> List.filter (fun e ->
      String.length (Filename.basename e.Driver.ce_path) >= 7
      && String.sub (Filename.basename e.Driver.ce_path) 0 7 = "regress")
  |> List.iter (fun e ->
      check_clean ~backends:[ Oracle.Par ] ~levels:[ 1; 2 ] e)

(* the wolfc-build product: regression reproducers replayed end-to-end as
   standalone executables (emit_standalone + cc + argv); the oracle skips
   entries whose shapes the standalone driver cannot parse or print, and
   the whole arm self-skips without a C toolchain *)
let test_regressions_on_binary () =
  Lazy.force entries
  |> List.filter (fun e ->
      String.length (Filename.basename e.Driver.ce_path) >= 7
      && String.sub (Filename.basename e.Driver.ce_path) 0 7 = "regress")
  |> List.iter (fun e ->
      check_clean ~backends:[ Oracle.Binary ] ~levels:[ 0; 2 ] e)

(* the jit arm compiles with no threaded fallback: a module ocamlopt
   rejects is a failure that carries the diagnostic *)
let test_jit_arm_reports_rejection () =
  if Wolf_backends.Jit.available () then begin
    let fexpr =
      Wolf_wexpr.Parser.parse {|Function[{Typed[n, "MachineInteger"]}, n + 1]|}
    in
    let args = [| Wolf_wexpr.Expr.Int 41 |] in
    let check ?jit_compile () =
      Oracle.check_parsed ~backends:[ Oracle.Jit ] ~levels:[ 1 ] ~abort:false
        ~wvm_ok:false ~c_ok:false ?jit_compile fexpr args
    in
    (match check () with
     | [] -> ()
     | fs -> Alcotest.failf "jit arm: %s" (String.concat "; " (List.map failure_str fs)));
    let reject _ = Error "ocamlopt failed:\nFile \"wolfjit.ml\": injected" in
    match check ~jit_compile:reject () with
    | [ f ] ->
      Alcotest.(check string) "where" "jit/O1/ocamlopt" f.Oracle.fwhere;
      Alcotest.(check bool) ("carries the diagnostic: " ^ f.Oracle.fgot) true
        (String.length f.Oracle.fgot >= 8
         && String.sub f.Oracle.fgot (String.length f.Oracle.fgot - 8) 8 = "injected")
    | fs ->
      Alcotest.failf "a rejected module gave %d failures: %s" (List.length fs)
        (String.concat "; " (List.map failure_str fs))
  end

(* ---- shrinker properties --------------------------------------------- *)

let gen_case seed =
  Gen.case ~config:{ Gen.max_size = 40; strings = true } (Rng.create seed)

let arb_seed = QCheck.int_range 0 100_000

(* a deterministic pseudo-arbitrary predicate over programs: roughly half of
   all generated cases "fail", with no structure the shrinker could exploit *)
let hash_fails c = Hashtbl.hash (Ast.to_source c.Ast.fn) land 1 = 0

let prop_failure_preserving =
  QCheck.Test.make ~count:300 ~name:"shrink preserves the failure predicate"
    arb_seed (fun seed ->
      let case = gen_case seed in
      QCheck.assume (hash_fails case);
      hash_fails (Shrink.shrink ~fails:hash_fails case))

let prop_non_growing =
  QCheck.Test.make ~count:300 ~name:"shrink never grows the measure"
    arb_seed (fun seed ->
      let case = gen_case seed in
      Shrink.measure (Shrink.shrink ~fails:hash_fails case)
      <= Shrink.measure case)

let prop_fixpoint =
  QCheck.Test.make ~count:100 ~name:"shrink is a fixpoint (idempotent)"
    arb_seed (fun seed ->
      let case = gen_case seed in
      let once = Shrink.shrink ~fails:hash_fails case in
      Shrink.measure (Shrink.shrink ~fails:hash_fails once)
      = Shrink.measure once)

let prop_trivial_predicate_minimises =
  QCheck.Test.make ~count:100
    ~name:"an always-true predicate shrinks to a near-empty program"
    arb_seed (fun seed ->
      let case = gen_case seed in
      let small = Shrink.shrink ~fails:(fun _ -> true) case in
      Ast.size small.Ast.fn <= 4)

(* seeds that once stuck at size 6 on With[{w = ConstantArray[c, k]},
   Module[{m = w}, m]]: a binding initialised to another name must inline *)
let test_trivial_predicate_regressions () =
  List.iter
    (fun seed ->
       let small = Shrink.shrink ~fails:(fun _ -> true) (gen_case seed) in
       let n = Ast.size small.Ast.fn in
       if n > 4 then
         Alcotest.failf "seed %d shrinks to size %d: %s" seed n
           (Ast.to_source small.Ast.fn))
    [ 874; 4000; 4770; 7496; 8256; 11207; 19256; 56625 ]

(* every one-step candidate strictly decreases the measure when accepted:
   the shrinker's termination argument, probed via the greedy chain length *)
let prop_candidates_same_type =
  QCheck.Test.make ~count:100
    ~name:"candidates preserve the result type"
    arb_seed (fun seed ->
      let case = gen_case seed in
      List.for_all
        (fun c ->
           c.Ast.fn.Ast.ret = case.Ast.fn.Ast.ret
           && Ast.expr_ty c.Ast.fn.Ast.result = case.Ast.fn.Ast.ret)
        (Shrink.candidates case))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_failure_preserving;
      prop_non_growing;
      prop_fixpoint;
      prop_trivial_predicate_minimises;
      prop_candidates_same_type ]

let tests =
  [ Alcotest.test_case "corpus present" `Quick test_corpus_present;
    Alcotest.test_case "corpus replay (threaded+wvm, O0-O2, abort)" `Slow
      test_corpus_replay;
    Alcotest.test_case "regressions on jit" `Slow test_regressions_on_jit;
    Alcotest.test_case "jit arm reports a rejected module" `Quick
      test_jit_arm_reports_rejection;
    Alcotest.test_case "always-true shrinks past name-bound bindings" `Quick
      test_trivial_predicate_regressions;
    Alcotest.test_case "regressions on par (repeated calls)" `Quick
      test_regressions_on_par;
    Alcotest.test_case "regressions as built binaries" `Slow
      test_regressions_on_binary ]
  @ qcheck_tests
