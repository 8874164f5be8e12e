(* IR analyses and passes (S11–S13, S16–S17): the SSA linter, CFG analyses,
   classical optimisations, and the language-obligation passes. *)

open Wolf_wexpr
open Wolf_compiler

let parse = Parser.parse

let compile ?(options = Options.default) ?type_env src =
  Pipeline.compile ~options ?type_env ~name:"p" (parse src)

let count_instrs pred (prog : Wir.program) =
  List.fold_left
    (fun acc f ->
       List.fold_left
         (fun acc (b : Wir.block) ->
            acc + List.length (List.filter pred b.Wir.instrs))
         acc f.Wir.blocks)
    0 prog.Wir.funcs

let is_call base = function
  | Wir.Call { callee = Wir.Resolved { base = b; _ }; _ } -> b = base
  | _ -> false

let fn_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]|}

(* ---------------- linter ---------------- *)

let test_lint_accepts_pipeline_output () =
  let c = compile fn_src in
  match Wir_verify.check_program c.Pipeline.program with
  | Ok () -> ()
  | Error es -> Alcotest.failf "lint: %s" (String.concat "; " es)

let test_lint_catches_double_def () =
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let blk =
    { Wir.label = 0; bparams = [||];
      instrs =
        [ Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 1) };
          Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 2) } ];
      term = Wir.Return (Wir.Ovar v) }
  in
  let f = { Wir.fname = "bad"; fparams = [||]; ret_ty = Some Types.int64;
            blocks = [ blk ]; finline = false; fsource = None } in
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double definition accepted"

let test_lint_catches_use_before_def () =
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let w = Wir.fresh_var ~ty:Types.int64 () in
  let blk =
    { Wir.label = 0; bparams = [||];
      instrs = [ Wir.Copy { dst = w; src = Wir.Ovar v } ];
      term = Wir.Return (Wir.Ovar w) }
  in
  let f = { Wir.fname = "bad"; fparams = [||]; ret_ty = Some Types.int64;
            blocks = [ blk ]; finline = false; fsource = None } in
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "use before definition accepted"

(* ---------------- full verifier on malformed IR ---------------- *)

let mk_f ?(fparams = [||]) ?(ret_ty = Some Types.int64) blocks =
  { Wir.fname = "bad"; fparams; ret_ty; blocks; finline = false; fsource = None }

let expect_reject what f =
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "verifier accepted %s" what

let expect_error_mentions what needle f =
  match Wir_verify.check_func f with
  | Error es ->
    let contains hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s error mentions %S (got: %s)" what needle
         (String.concat "; " es))
      true
      (List.exists contains es)
  | Ok () -> Alcotest.failf "verifier accepted %s" what

let test_verify_use_before_def () =
  (* %v used in b0 but only defined in b1, which runs after the use *)
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let w = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Copy { dst = w; src = Wir.Ovar v } ];
          term = Wir.Jump { target = 1; jargs = [||] } };
        { Wir.label = 1; bparams = [||];
          instrs = [ Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 1) } ];
          term = Wir.Return (Wir.Ovar w) } ]
  in
  expect_error_mentions "use before def" "uses" f

let test_verify_bad_jump_arity () =
  (* b0 passes one argument to a block declaring two parameters *)
  let p1 = Wir.fresh_var ~ty:Types.int64 () in
  let p2 = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 1; jargs = [| Wir.Oconst (Wir.Cint 1) |] } };
        { Wir.label = 1; bparams = [| p1; p2 |]; instrs = [];
          term = Wir.Return (Wir.Ovar p1) } ]
  in
  expect_error_mentions "bad jump arity" "expects" f

let test_verify_jump_type_mismatch () =
  (* an integer constant flows into a Real64 block parameter *)
  let p = Wir.fresh_var ~ty:Types.real64 () in
  let f =
    mk_f ~ret_ty:(Some Types.real64)
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 1; jargs = [| Wir.Oconst (Wir.Cint 3) |] } };
        { Wir.label = 1; bparams = [| p |]; instrs = [];
          term = Wir.Return (Wir.Ovar p) } ]
  in
  expect_error_mentions "jump type mismatch" "type" f

let test_verify_copy_type_mismatch () =
  (* TWIR instruction operand check: Copy of a String into an Integer64 *)
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Copy { dst = d; src = Wir.Oconst (Wir.Cstr "s") } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  expect_error_mentions "copy type mismatch" "copy" f

let test_verify_orphan_block () =
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Cint 0)) };
        { Wir.label = 7; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Cint 1)) } ]
  in
  expect_error_mentions "orphan block" "orphan" f

let test_verify_irreducible () =
  (* b0 enters the cycle b1 <-> b2 at both blocks: no header dominates it *)
  let jump t = { Wir.target = t; jargs = [||] } in
  let cond = Wir.Oconst (Wir.Cbool true) in
  let block label term = { Wir.label; bparams = [||]; instrs = []; term } in
  let f =
    mk_f
      [ block 0 (Wir.Branch { cond; if_true = jump 1; if_false = jump 2 });
        block 1 (Wir.Jump (jump 2));
        block 2 (Wir.Branch { cond; if_true = jump 1; if_false = jump 3 });
        block 3 (Wir.Return (Wir.Oconst (Wir.Cint 0))) ]
  in
  expect_error_mentions "two-entry cycle" "irreducible" f;
  (* the same cycle entered only through b1 is a natural loop *)
  let g =
    mk_f
      [ block 0 (Wir.Jump (jump 1));
        block 1 (Wir.Jump (jump 2));
        block 2 (Wir.Branch { cond; if_true = jump 1; if_false = jump 3 });
        block 3 (Wir.Return (Wir.Oconst (Wir.Cint 0))) ]
  in
  match Wir_verify.check_func g with
  | Ok () -> ()
  | Error es -> Alcotest.failf "natural loop rejected: %s" (String.concat "; " es)

let test_verify_bad_terminator () =
  (* branch on a string condition, arms targeting a missing block *)
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cstr "not a bool");
                if_true = { target = 9; jargs = [||] };
                if_false = { target = 9; jargs = [||] } } } ]
  in
  expect_error_mentions "bad terminator" "condition" f;
  expect_error_mentions "bad terminator" "missing block" f;
  (* jumping back to the entry block is malformed too *)
  let g =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 0; jargs = [||] } } ]
  in
  expect_error_mentions "jump to entry" "entry" g

let test_verify_return_type_mismatch () =
  let f =
    mk_f ~ret_ty:(Some Types.int64)
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Creal 1.5)) } ]
  in
  expect_error_mentions "return type mismatch" "declared" f

let test_verify_load_argument_range () =
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Load_argument { dst = d; index = 2 } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  expect_error_mentions "load-argument range" "out of range" f

let test_verify_call_arity_program () =
  (* program-level: a Func call with the wrong argument count *)
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let callee_param = Wir.fresh_var ~ty:Types.int64 () in
  let callee =
    { Wir.fname = "helper"; fparams = [| callee_param |]; ret_ty = Some Types.int64;
      blocks =
        [ { Wir.label = 0; bparams = [||];
            instrs = [ Wir.Load_argument { dst = callee_param; index = 0 } ];
            term = Wir.Return (Wir.Ovar callee_param) } ];
      finline = false; fsource = None }
  in
  let main =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Call { dst = d; callee = Wir.Func "helper"; args = [||] } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  let prog = { Wir.funcs = [ main; callee ]; pmeta = [] } in
  (match Wir_verify.check_program prog with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "verifier accepted a call-arity mismatch");
  ignore (expect_reject : string -> Wir.func -> unit)

let test_verify_accepts_every_corpus_stage () =
  (* sanity: the verifier accepts the pipeline's final IR for a
     representative program at every opt level *)
  List.iter
    (fun lvl ->
       let options = { Options.default with Options.opt_level = lvl } in
       let c = compile ~options fn_src in
       match Wir_verify.check_program c.Pipeline.program with
       | Ok () -> ()
       | Error es -> Alcotest.failf "O%d: %s" lvl (String.concat "; " es))
    [ 0; 1; 2 ]

(* ---------------- CFG analyses ---------------- *)

let test_loop_headers () =
  (* the counted source loop is strip-mined at -O1+, so the compiled CFG has
     the original header plus the outer chunk-loop header *)
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let headers = Analysis.loop_headers main cfg in
  Alcotest.(check int) "inner + chunk loop" 2 (List.length headers)

let test_nested_loop_headers () =
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1, j = 1},
          While[i <= n, j = 1; While[j <= n, s = s + 1; j = j + 1]; i = i + 1];
          s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  (* outer + inner + the inner loop's chunk loop from strip-mining *)
  Alcotest.(check int) "three loops" 3 (List.length (Analysis.loop_headers main cfg))

let test_dominance () =
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let entry = (Wir.entry main).Wir.label in
  List.iter
    (fun (b : Wir.block) ->
       Alcotest.(check bool)
         (Printf.sprintf "entry dominates b%d" b.Wir.label)
         true
         (Analysis.dominates cfg entry b.Wir.label))
    main.Wir.blocks

(* ---------------- loop structure on hand-built CFGs ---------------- *)

let mk_func blocks =
  { Wir.fname = "cfg"; fparams = [||]; ret_ty = Some Types.int64;
    blocks; finline = false; fsource = None }

let jmp target = Wir.Jump { target; jargs = [||] }

let br if_true if_false =
  Wir.Branch { cond = Wir.Oconst (Wir.Cint 0);
               if_true = { target = if_true; jargs = [||] };
               if_false = { target = if_false; jargs = [||] } }

let blk label term = { Wir.label; bparams = [||]; instrs = []; term }

let ret = Wir.Return (Wir.Oconst (Wir.Cint 0))

let test_natural_loops_nested () =
  let f =
    mk_func
      [ blk 0 (jmp 1);
        blk 1 (br 2 5);  (* outer header *)
        blk 2 (br 3 4);  (* inner header *)
        blk 3 (jmp 2);   (* inner latch *)
        blk 4 (jmp 1);   (* outer latch *)
        blk 5 ret ]
  in
  let cfg = Analysis.build_cfg f in
  let loops = Analysis.natural_loops f cfg in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let outer = List.find (fun (l : Analysis.loop) -> l.Analysis.lheader = 1) loops in
  let inner = List.find (fun (l : Analysis.loop) -> l.Analysis.lheader = 2) loops in
  Alcotest.(check (list int)) "outer body" [ 1; 2; 3; 4 ] outer.Analysis.lbody;
  Alcotest.(check (list int)) "inner body" [ 2; 3 ] inner.Analysis.lbody;
  Alcotest.(check (list int)) "outer latches" [ 4 ] outer.Analysis.latches;
  Alcotest.(check int) "outer depth" 1 outer.Analysis.ldepth;
  Alcotest.(check int) "inner depth" 2 inner.Analysis.ldepth;
  Alcotest.(check bool) "inner innermost" true (Analysis.innermost loops inner);
  Alcotest.(check bool) "outer not innermost" false (Analysis.innermost loops outer)

let test_retreating_edge_not_loop () =
  (* diamond with a retreating edge whose target does not dominate the
     source: no natural loop *)
  let f =
    mk_func
      [ blk 0 (br 1 2);
        blk 1 (jmp 3);
        blk 2 (jmp 3);
        blk 3 (br 1 4);  (* 3 -> 1 retreats but 1 does not dominate 3 *)
        blk 4 ret ]
  in
  let cfg = Analysis.build_cfg f in
  Alcotest.(check int) "no natural loops" 0
    (List.length (Analysis.natural_loops f cfg))

let test_self_loop () =
  let f = mk_func [ blk 0 (jmp 1); blk 1 (br 1 2); blk 2 ret ] in
  let cfg = Analysis.build_cfg f in
  let loops = Analysis.natural_loops f cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check (list int)) "body is just the header" [ 1 ] l.Analysis.lbody;
  Alcotest.(check (list int)) "self latch" [ 1 ] l.Analysis.latches;
  Alcotest.(check int) "depth" 1 l.Analysis.ldepth;
  Alcotest.(check bool) "innermost" true (Analysis.innermost loops l)

let test_preheader_reuse_and_insert () =
  (* a unique fall-through entry predecessor is reused as the preheader *)
  let f = mk_func [ blk 0 (jmp 1); blk 1 (br 1 2); blk 2 ret ] in
  Alcotest.(check int) "entry pred reused" 0
    (Analysis.ensure_preheader f ~header:1 ~latches:[ 1 ]);
  Alcotest.(check int) "no block added" 3 (List.length f.Wir.blocks);
  (* entry through a branch arm: the edge must be split with a fresh block
     that forwards the header's parameters *)
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let g =
    mk_func
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cint 0);
                if_true = { target = 1; jargs = [| Wir.Oconst (Wir.Cint 1) |] };
                if_false = { target = 2; jargs = [||] } } };
        { Wir.label = 1; bparams = [| v |]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cint 0);
                if_true = { target = 1; jargs = [| Wir.Ovar v |] };
                if_false = { target = 2; jargs = [||] } } };
        blk 2 ret ]
  in
  let pre = Analysis.ensure_preheader g ~header:1 ~latches:[ 1 ] in
  Alcotest.(check int) "fresh label" 3 pre;
  Alcotest.(check int) "block inserted" 4 (List.length g.Wir.blocks);
  (match (Wir.find_block g pre).Wir.term with
   | Wir.Jump { target; jargs } ->
     Alcotest.(check int) "preheader jumps to header" 1 target;
     Alcotest.(check int) "forwards one param" 1 (Array.length jargs)
   | _ -> Alcotest.fail "preheader does not end in a jump");
  (match (Wir.find_block g 0).Wir.term with
   | Wir.Branch { if_true = { target; _ }; if_false = { target = other; _ }; _ } ->
     Alcotest.(check int) "entry edge retargeted" pre target;
     Alcotest.(check int) "exit edge untouched" 2 other
   | _ -> Alcotest.fail "entry terminator changed shape")

(* ---------------- optimisations ---------------- *)

let test_constant_folding () =
  (* 2 + 3*4 folds away entirely: no arithmetic calls should remain *)
  let c = compile {|Function[{Typed[n, "MachineInteger"]}, n + (2 + 3*4)]|} in
  let adds = count_instrs (is_call "checked_binary_plus") c.Pipeline.program in
  let muls = count_instrs (is_call "checked_binary_times") c.Pipeline.program in
  Alcotest.(check int) "one residual add" 1 adds;
  Alcotest.(check int) "no multiplies" 0 muls

let test_dead_branch_deletion () =
  let c = compile {|Function[{Typed[n, "MachineInteger"]}, If[2 > 1, n, n*n]]|} in
  let main = Wir.main c.Pipeline.program in
  Alcotest.(check int) "collapsed to one block" 1 (List.length main.Wir.blocks);
  Alcotest.(check int) "multiply eliminated" 0
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program)

let test_cse () =
  let c =
    compile {|Function[{Typed[x, "Real64"]}, (x*x + 1.0) + (x*x + 2.0)]|}
  in
  Alcotest.(check int) "x*x computed once" 1
    (count_instrs (is_call "binary_times") c.Pipeline.program)

let test_dce () =
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{unused = n*n*n, kept = n + 1}, kept]]|}
  in
  Alcotest.(check int) "dead cube removed" 0
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program)

let loop_body_labels main =
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  List.concat_map (fun (l : Analysis.loop) -> l.Analysis.lbody) loops

let count_in_labels pred (main : Wir.func) labels =
  List.fold_left
    (fun acc l ->
       acc
       + List.length (List.filter pred (Wir.find_block main l).Wir.instrs))
    0 labels

let test_licm_hoists_invariant () =
  (* x*x does not depend on the induction variable: LICM moves it out *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
         Module[{s = 0.0, i = 1},
          While[i <= n, s = s + x*x; i = i + 1]; s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let body = loop_body_labels main in
  Alcotest.(check bool) "still has a loop" true (body <> []);
  Alcotest.(check int) "multiply hoisted out of the loop" 0
    (count_in_labels (is_call "binary_times") main body);
  Alcotest.(check int) "multiply still computed somewhere" 1
    (count_instrs (is_call "binary_times") c.Pipeline.program)

let test_licm_disabled () =
  let options = { Options.default with Options.loop_opts = false } in
  let c =
    compile ~options
      {|Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
         Module[{s = 0.0, i = 1},
          While[i <= n, s = s + x*x; i = i + 1]; s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let body = loop_body_labels main in
  Alcotest.(check bool) "multiply stays in the loop" true
    (count_in_labels (is_call "binary_times") main body >= 1)

let test_bounds_check_elimination () =
  (* i walks 1..Length[v]: the Part access needs no range check *)
  let c =
    compile
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Module[{s = 0, i = 1},
          While[i <= Length[v], s = s + v[[i]]; i = i + 1]; s]]|}
  in
  Alcotest.(check bool) "unchecked access emitted" true
    (count_instrs (is_call "part_get_1_unchecked") c.Pipeline.program >= 1);
  Alcotest.(check int) "no checked access left" 0
    (count_instrs (is_call "part_get_1") c.Pipeline.program)

let test_optimization_off () =
  let options = { Options.default with Options.opt_level = 0 } in
  let c = compile ~options {|Function[{Typed[n, "MachineInteger"]}, n + (2 + 3*4)]|} in
  Alcotest.(check bool) "unoptimised keeps the multiply" true
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program >= 1)

let test_inlining_of_declared_function () =
  let env = Type_env.create ~parent:(Type_env.builtin ()) "t" in
  Type_env.declare_wolfram env "TinyTwice"
    ~spec:(parse {|TypeSpecifier[{"Integer64"} -> "Integer64"]|})
    ~body:(parse "Function[{x}, x + x]");
  let c =
    compile ~type_env:env {|Function[{Typed[n, "MachineInteger"]}, TinyTwice[n] + 1]|}
  in
  (* after inlining no Func call to the instance remains in main *)
  let main = Wir.main c.Pipeline.program in
  let calls_instance =
    List.exists
      (fun (b : Wir.block) ->
         List.exists
           (function Wir.Call { callee = Wir.Func _; _ } -> true | _ -> false)
           b.Wir.instrs)
      main.Wir.blocks
  in
  Alcotest.(check bool) "instance inlined into caller" false calls_instance

(* ---------------- obligation passes ---------------- *)

(* One table over the counted-loop recognizer: each case is a function
   with one loop, compiled without abort handling (so strip-mining leaves
   the loop alone) or built by hand where no source produces the shape.
   Accepted cases pin every field of the record. *)
type counted_expect = {
  x_base : string;      (* guard primitive *)
  x_iv : string;        (* name of the induction header parameter *)
  x_bound : string;     (* name of the bound variable *)
}

let counted_cases () =
  let src body =
    let c =
      compile ~options:{ Options.default with Options.abort_handling = false }
        (Printf.sprintf
           {|Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1, k = 0, m = n}, %s; s]]|}
           body)
    in
    Wir.main c.Pipeline.program
  in
  (* hand-built: b0 -> b1(i) -> {b2 -> b1 | b3 -> b1}, exit b4; or the
     self loop b1 -> b1 with the step before the test *)
  let by_hand ?(step3 = 1) ~self_loop () =
    let int_var name = Wir.fresh_var ~name ~ty:Types.int64 () in
    let n = int_var "n" and i = int_var "i" and i2 = int_var "i" and i3 = int_var "i" in
    let g = Wir.fresh_var ~name:"g" ~ty:Types.boolean () in
    let e = Wir.fresh_var ~name:"e" ~ty:Types.boolean () in
    let prim base args_ty dst args =
      Wir.Call { dst; callee = Wir.Resolved { base; mangled = base ^ "_" ^ args_ty }; args }
    in
    let step ?(k = 1) dst =
      prim "checked_binary_plus" "I64_I64" dst [| Wir.Ovar i; Wir.Oconst (Wir.Cint k) |]
    in
    let jump target jargs = { Wir.target; jargs } in
    let guard = prim "binary_less_equal" "I64_I64" g [| Wir.Ovar i; Wir.Ovar n |] in
    let block label bparams instrs term = { Wir.label; bparams; instrs; term } in
    let blocks =
      if self_loop then
        [ block 1 [| i |] [ step i2; guard ]
            (Wir.Branch
               { cond = Wir.Ovar g; if_true = jump 1 [| Wir.Ovar i2 |]; if_false = jump 4 [||] }) ]
      else
        [ block 1 [| i |] [ guard ]
            (Wir.Branch { cond = Wir.Ovar g; if_true = jump 2 [||]; if_false = jump 4 [||] });
          block 2 [||]
            [ prim "unary_evenq" "I64" e [| Wir.Ovar i |]; step i2 ]
            (Wir.Branch
               { cond = Wir.Ovar e; if_true = jump 1 [| Wir.Ovar i2 |]; if_false = jump 3 [||] });
          block 3 [||] [ step ~k:step3 i3 ] (Wir.Jump (jump 1 [| Wir.Ovar i3 |])) ]
    in
    { Wir.fname = "hand"; fparams = [| n |]; ret_ty = Some Types.int64; finline = false;
      fsource = None;
      blocks =
        (block 0 [||] [ Wir.Load_argument { dst = n; index = 0 } ]
           (Wir.Jump (jump 1 [| Wir.Oconst (Wir.Cint 1) |])))
        :: blocks
        @ [ block 4 [||] [] (Wir.Return (Wir.Ovar i)) ] }
  in
  let le = Some { x_base = "binary_less_equal"; x_iv = "i"; x_bound = "n" } in
  [ ("i <= n", src "While[i <= n, s = s + i; i = i + 1]", le);
    ("i < n", src "While[i < n, s = s + i; i = i + 1]",
     Some { x_base = "binary_less"; x_iv = "i"; x_bound = "n" });
    ("i through a copy", src "While[(k = i; k <= n), s = s + i; i = i + 1]", le);
    ("two latches", by_hand ~self_loop:false (), le);
    ("two latches, one steps by 2", by_hand ~step3:2 ~self_loop:false (), None);
    ("step of 2", src "While[i <= n, s = s + i; i = i + 2]", None);
    ("bound redefined in the body", src "While[i <= m, m = m - 1; i = i + 1]", None);
    ("guard on a non-parameter", src "While[2*i <= n, s = s + i; i = i + 1]", None);
    ("bottom-tested", by_hand ~self_loop:true (), None) ]

let test_counted_loop_recognizer () =
  List.iter
    (fun (name, (f : Wir.func), expect) ->
       let loops = Analysis.natural_loops f (Analysis.build_cfg f) in
       let l = match loops with [ l ] -> l | _ -> Alcotest.failf "%s: not one loop" name in
       match (Analysis.counted_loop f l, expect) with
       | None, None -> ()
       | Some _, None -> Alcotest.failf "%s: accepted" name
       | None, Some _ -> Alcotest.failf "%s: rejected" name
       | Some c, Some x ->
         let hdr = Wir.find_block f l.Analysis.lheader in
         let cond, if_false =
           match hdr.Wir.term with
           | Wir.Branch { cond = Wir.Ovar g; if_false; _ } -> (g, if_false)
           | _ -> Alcotest.failf "%s: header does not branch" name
         in
         let check what = Alcotest.(check bool) (name ^ ": " ^ what) true in
         check "guard is the branch condition" (c.Analysis.guard.Wir.vid = cond.Wir.vid);
         check "guard callee"
           (c.Analysis.guard_callee
            = Wir.Resolved { base = x.x_base; mangled = x.x_base ^ "_I64_I64" });
         check "strict" (c.Analysis.strict = (x.x_base = "binary_less"));
         check "iv is the header parameter at iv_pos"
           (hdr.Wir.bparams.(c.Analysis.iv_pos) == c.Analysis.iv);
         (* Module locals are renamed [i$<id>] *)
         let sym (v : Wir.var) = List.hd (String.split_on_char '$' v.Wir.vname) in
         Alcotest.(check string) (name ^ ": iv") x.x_iv (sym c.Analysis.iv);
         (match c.Analysis.bound with
          | Wir.Ovar v ->
            Alcotest.(check string) (name ^ ": bound") x.x_bound (sym v);
            check "bound outside the loop" (not (Hashtbl.mem c.Analysis.defs v.Wir.vid))
          | Wir.Oconst _ -> Alcotest.failf "%s: constant bound" name);
         check "exit edge" (c.Analysis.exit_edge == if_false);
         check "exits" (c.Analysis.exits && not (Analysis.loop_contains l if_false.Wir.target));
         check "defs"
           (Hashtbl.mem c.Analysis.defs c.Analysis.iv.Wir.vid
            && Hashtbl.mem c.Analysis.defs c.Analysis.guard.Wir.vid
            && Hashtbl.length c.Analysis.defs = Hashtbl.length (Analysis.loop_defs f l)))
    (counted_cases ())

let test_real_bound_not_counted () =
  (* strip-mining and parallel loops do integer arithmetic on the bound,
     so a Real64 bound must leave the loop uncounted, not fail at run time *)
  let module R = Wolf_runtime.Rtval in
  let run options src arg =
    (Wolf_backends.Native.compile (compile ~options src)).R.call [| arg |]
  in
  Alcotest.(check bool) "Real64 variable bound (strip-mining)" true
    (run Options.default
       {|Function[{Typed[x, "Real64"]},
          Module[{s = 0, i = 1}, While[i <= x, s = s + i; i = i + 1]; s]]|}
       (R.Real 10.5)
     = R.Int 55);
  Alcotest.(check bool) "Real64 constant bound (parallel loops)" true
    (run { Options.default with Options.parallel_loops = true }
       {|Function[{Typed[n, "MachineInteger"]},
          Module[{s = 0.0, i = 1}, While[i <= 10.5, s = s + 0.5; i = i + 1]; s]]|}
       (R.Int 0)
     = R.Real 5.0)

let has_abort (b : Wir.block) =
  List.exists (function Wir.Abort_check -> true | _ -> false) b.Wir.instrs

let count_checks prog = count_instrs (function Wir.Abort_check -> true | _ -> false) prog

let test_abort_placement () =
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  let entry = Wir.entry main in
  Alcotest.(check bool) "prologue check" true (has_abort entry);
  (* the single counted loop is innermost and call-free, so at -O1+ it is
     strip-mined: the hot header carries no check at all and the new outer
     chunk-loop header runs the immediate check once per chunk *)
  Alcotest.(check int) "inner + chunk loop" 2 (List.length loops);
  let inner = List.find (fun l -> Analysis.innermost loops l) loops in
  let chunk =
    List.find (fun (l : Analysis.loop) -> l.lheader <> inner.Analysis.lheader) loops
  in
  let inner_hdr = Wir.find_block main inner.Analysis.lheader in
  Alcotest.(check bool) "hot header check-free" false (has_abort inner_hdr);
  Alcotest.(check bool) "chunk header checks" true
    (has_abort (Wir.find_block main chunk.Analysis.lheader));
  Alcotest.(check int) "checks: prologue + chunk header" 2
    (count_checks c.Pipeline.program)

let test_abort_uncounted_loop_checks_header () =
  (* a step-2 loop is not counted (strip-mining requires +1 steps), so its
     header keeps one inline check, polled on every iteration *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 2]; s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let hdr = Wir.find_block main (List.hd loops).Analysis.lheader in
  Alcotest.(check bool) "header checks" true (has_abort hdr);
  Alcotest.(check int) "checks: prologue + header" 2 (count_checks c.Pipeline.program)

let test_abort_stride_outer_keeps_check () =
  (* only innermost call-free loops are strip-mined; the outer header stays
     immediate.  The counted inner loop is strip-mined, so the compiled CFG
     has three loops: outer (immediate check), the inner loop's chunk loop
     (immediate check, once per chunk) and the check-free hot loop. *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1, j = 1},
          While[i <= n, j = 1; While[j <= n, s = s + 1; j = j + 1]; i = i + 1];
          s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  List.iter
    (fun (l : Analysis.loop) ->
       let hdr = Wir.find_block main l.Analysis.lheader in
       if Analysis.innermost loops l then
         Alcotest.(check bool) "hot header check-free" false (has_abort hdr)
       else
         Alcotest.(check bool) "enclosing header checks" true (has_abort hdr))
    loops

(* the comparator stays a separate function without inlining; the loop
   calls it, so it is not strip-mined and its header checks every time *)
let leaf_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{f = Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, a < b],
             s = 0, i = 1},
      While[i <= n, If[f[i, 3], s = s + 1]; i = i + 1]; s]]|}

let leaf_options = { Options.default with Options.inline_level = 0 }

let test_abort_leaf_prologue_elided () =
  let c = compile ~options:leaf_options leaf_src in
  let prog = c.Pipeline.program in
  let main = Wir.main prog in
  Alcotest.(check int) "two functions" 2 (List.length prog.Wir.funcs);
  List.iter
    (fun (f : Wir.func) ->
       let checks = count_checks { prog with Wir.funcs = [ f ] } in
       if f == main then begin
         Alcotest.(check bool) "main keeps its prologue check" true
           (has_abort (Wir.entry f));
         Alcotest.(check int) "main: prologue + loop header" 2 checks
       end
       else Alcotest.(check int) "comparator has no checks" 0 checks)
    prog.Wir.funcs

let test_abort_lands_in_loop_calling_leaf () =
  let module A = Wolf_base.Abort_signal in
  let c = compile ~options:leaf_options leaf_src in
  let nat = Wolf_backends.Native.compile c in
  let call n = nat.Wolf_runtime.Rtval.call [| Wolf_runtime.Rtval.Int n |] in
  (* an armed injection makes every poll a counted check: the prologue and
     the 11 header executions of a 10-iteration loop, none in the leaf *)
  A.clear ();
  A.abort_after 1_000;
  A.reset_stats ();
  Fun.protect ~finally:A.clear (fun () ->
      ignore (call 10);
      Alcotest.(check int) "polls: prologue + headers" 12 (A.checks_performed ()));
  A.abort_after 5;
  Fun.protect ~finally:A.clear (fun () ->
      match call 1_000_000 with
      | exception A.Aborted -> ()
      | _ -> Alcotest.fail "Abort[] did not land through the loop header");
  Alcotest.(check int) "poll word back to 0" 0 (Atomic.get A.pending)

let test_abort_disabled () =
  let options = { Options.default with Options.abort_handling = false } in
  let c = compile ~options fn_src in
  Alcotest.(check int) "no checks" 0 (count_checks c.Pipeline.program)

let test_memory_pass_balance () =
  let c =
    compile
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Module[{a = v, b = 0}, b = a[[1]]; b]]|}
  in
  let acquires =
    count_instrs (function Wir.Mem_acquire _ -> true | _ -> false) c.Pipeline.program
  in
  let releases =
    count_instrs (function Wir.Mem_release _ -> true | _ -> false) c.Pipeline.program
  in
  Alcotest.(check bool) "aliasing copy acquires" true (acquires >= 1);
  Alcotest.(check int) "acquires balance releases" acquires releases

let test_memory_pass_skips_scalars () =
  let c = compile fn_src in
  Alcotest.(check int) "scalars unmanaged" 0
    (count_instrs
       (function Wir.Mem_acquire _ | Wir.Mem_release _ -> true | _ -> false)
       c.Pipeline.program)

let promotion_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{a = ConstantArray[0, n]}, a[[1]] = 7; 0]]|}

let test_mutability_promotion () =
  (* fresh array, single update, dead afterwards -> proven in-place *)
  let c = compile promotion_src in
  Alcotest.(check bool) "promoted" true (c.Pipeline.inplace_updates >= 1)

let test_promotion_reaches_backend () =
  (* backends dispatch on the callee's base, so the promotion must rename
     the base, not just the mangled name *)
  let c = compile promotion_src in
  let src = (Wolf_backends.Ocaml_emit.emit ~module_name:"M" c).Wolf_backends.Ocaml_emit.source in
  let has needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length src && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "in-place write emitted" true (has "~inplace:true");
  Alcotest.(check bool) "no copying write" false (has "~inplace:false")

let test_mutability_blocked_by_alias () =
  (* the array is aliased by b which is still live: must stay checked *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{a = ConstantArray[0, n], b = 0, keep = ConstantArray[0, n]},
          keep = a;
          a[[1]] = 7;
          b = keep[[1]] + a[[1]];
          b]]|}
  in
  let inplace =
    count_instrs
      (function
        | Wir.Call { callee = Wir.Resolved { base; _ }; _ } ->
          Filename.check_suffix base "_inplace"
        | _ -> false)
      c.Pipeline.program
  in
  Alcotest.(check int) "aliased update stays checked" 0 inplace

(* ---------------- exact reference counts: moves, claims, pins ---------------- *)

let acquires (c : Pipeline.compiled) =
  count_instrs (function Wir.Mem_acquire _ -> true | _ -> false) c.Pipeline.program

(* E15's MapFill: the array is a fresh allocation whose binding is its
   only use, so the binding is a move and the loop writes it in place *)
let mapfill_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{a = ConstantArray[0.0, n], i = 1},
      While[i <= n, a[[i]] = 0.5*i + 1.0; i = i + 1]; a[[n]]]]|}

let test_fresh_binding_is_a_move () =
  List.iter
    (fun parallel_loops ->
       let options = { Options.default with Options.opt_level = 2; parallel_loops } in
       Alcotest.(check int)
         (Printf.sprintf "no MemoryAcquire (parallel loops %b)" parallel_loops)
         0 (acquires (compile ~options mapfill_src)))
    [ false; true ];
  (* tensor arithmetic allocates too: Blur's [out = img*0.0] *)
  Alcotest.(check int) "scalar-times result is moved" 0
    (acquires
       (compile
          {|Function[{Typed[v, "PackedArray"["Real64", 1]]},
             Module[{out = v*0.0}, out[[1]] = 1.0; out]]|}))

(* [f name compile] for the threaded backend and the JIT (when ocamlopt is
   present) at O0, O1 and O2 *)
let on_native_backends f =
  let targets =
    (Wolfram.Threaded, "threaded")
    :: (if Wolf_backends.Jit.available () then [ (Wolfram.Jit, "jit") ] else [])
  in
  List.iter
    (fun (target, tname) ->
       List.iter
         (fun opt_level ->
            let options = { Options.default with Options.opt_level; use_cache = false } in
            f (Printf.sprintf "%s O%d" tname opt_level) (fun src ->
                Wolfram.function_compile ~options ~target (parse src)))
         [ 0; 1; 2 ])
    targets

(* the standalone C binary built from [src] prints [expected] for [argv] *)
let check_c name src ~argv expected =
  if Lazy.force Test_cemit.have_cc then
    match Wolf_backends.C_emit.emit_standalone (compile src) with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok emitted ->
      let code, line = Test_cemit.run_built emitted.Wolf_backends.C_emit.source ~argv in
      Alcotest.(check int) (name ^ " exit") 0 code;
      Alcotest.(check string) (name ^ " on C") expected line

let expect_int name expected v =
  if not (Expr.equal v (Expr.Int expected)) then
    Alcotest.failf "%s: expected %d, got %s" name expected (Expr.to_string v)

(* a copy of a parameter aliases the caller's tensor: it keeps its
   acquire, so the update copies and the caller's tensor is untouched *)
let test_parameter_copy_keeps_acquire () =
  let src =
    {|Function[{Typed[p, "PackedArray"["Integer64", 1]]},
       Module[{b = p}, b[[1]] = 5; b]]|}
  in
  Alcotest.(check bool) "acquired" true (acquires (compile src) >= 1);
  on_native_backends (fun name compile_fn ->
      let cf = compile_fn src in
      let t = Tensor.of_int_array [| 1; 2; 3 |] in
      let r = Wolfram.call cf [ Expr.Tensor t ] in
      Alcotest.(check (list int)) (name ^ ": caller's tensor") [ 1; 2; 3 ]
        (List.init 3 (Tensor.get_int t));
      Alcotest.(check string) (name ^ ": result") "{5, 2, 3}" (Form.input_form r));
  check_c "parameter copy"
    {|Function[{Typed[p, "PackedArray"["Integer64", 1]]},
       Module[{b = p}, b[[1]] = 5; 100*b[[1]] + p[[1]]]]|}
    ~argv:[ "{1, 2, 3}" ] "501"

(* an alias made after a move holds its own reference *)
let test_alias_of_moved_array () =
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{a = ConstantArray[0, n], b}, b = a; a[[1]] = 5; b[[1]]]]|}
  in
  on_native_backends (fun name compile_fn ->
      expect_int name 0 (Wolfram.call (compile_fn src) [ Expr.Int 3 ]));
  expect_int "wvm" 0
    (Wolfram.call (Wolfram.function_compile ~target:Wolfram.Bytecode (parse src))
       [ Expr.Int 3 ]);
  expect_int "interpreter" 0
    (Wolfram.interpret_expr (Expr.Normal (parse src, [| Expr.Int 3 |])));
  check_c "alias" src ~argv:[ "3" ] "0"

(* closures capture arrays by value, like scalars: a later update of the
   captured variable is invisible to the closure whether or not an
   earlier update already copied the array, and whether or not the
   closure was inlined (then its read moves past the update) *)
let test_closure_captures_by_value () =
  let closure_src ~earlier_write =
    Printf.sprintf
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{a = ConstantArray[0, n], f},
          %s f = Function[{Typed[k, "MachineInteger"]}, a[[k]]];
          a[[1]] = 5; f[1]]]|}
      (if earlier_write then "a[[2]] = 1;" else "")
  in
  let loop_src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{a = ConstantArray[0, n], f},
        f = Function[{Typed[k, "MachineInteger"]}, a[[k]]];
        Do[a[[i]] = i, {i, n}]; f[1]]]|}
  in
  let scalar_src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{x = n, f}, f = Function[{Typed[k, "MachineInteger"]}, x + k];
        x = 100; f[1]]]|}
  in
  on_native_backends (fun name compile_fn ->
      let run src = Wolfram.call (compile_fn src) [ Expr.Int 3 ] in
      expect_int (name ^ " after an earlier write") 0
        (run (closure_src ~earlier_write:true));
      expect_int (name ^ " first write") 0 (run (closure_src ~earlier_write:false));
      expect_int (name ^ " loop writes") 0 (run loop_src);
      expect_int (name ^ " scalar") 4 (run scalar_src))

(* a compiled function may update its parameter in place when the
   argument is unshared: the caller's array must stay intact while the
   caller still reads it, also when it is passed twice *)
let test_callee_parameter_write_is_private () =
  let callee_src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{a = ConstantArray[0, n], g, r},
        g = Function[{Typed[p, "PackedArray"["Integer64", 1]]}, p[[1]] = 5; p];
        r = g[a]; a[[1]] + 10*r[[1]]]]|}
  in
  let twice_src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{a = ConstantArray[0, n], g},
        g = Function[{Typed[p, "PackedArray"["Integer64", 1]],
                      Typed[q, "PackedArray"["Integer64", 1]]},
             p[[1]] = 5; 10*p[[1]] + q[[1]]];
        g[a, a]]]|}
  in
  on_native_backends (fun name compile_fn ->
      let run src = Wolfram.call (compile_fn src) [ Expr.Int 3 ] in
      expect_int (name ^ " caller reads after the call") 50 (run callee_src);
      expect_int (name ^ " passed twice") 50 (run twice_src))

let test_user_pass_injection () =
  (* §4.7: users can inject passes into the pipeline *)
  let seen = ref 0 in
  let pass =
    { Pipeline.pass_name = "count-blocks";
      pass_run =
        (fun prog ->
           List.iter (fun f -> seen := !seen + List.length f.Wir.blocks) prog.Wir.funcs) }
  in
  let _ =
    Pipeline.compile ~user_passes:[ pass ] ~name:"p" (parse fn_src)
  in
  Alcotest.(check bool) "user pass ran" true (!seen > 0)

let test_pass_timings_recorded () =
  let c = compile fn_src in
  let names = List.map fst c.Pipeline.timings in
  List.iter
    (fun expected ->
       Alcotest.(check bool) expected true (List.mem expected names))
    [ "macro+binding+lower"; "type-inference"; "function-resolution";
      (* the optimisation fixpoint reports per-pass entries *)
      "fold"; "simplify-cfg"; "cse"; "licm"; "dce"; "bparam-elim"; "inline";
      "mutability"; "abort-insertion"; "abort-stride"; "memory-management" ]

let tests =
  [ Alcotest.test_case "lint accepts pipeline output" `Quick test_lint_accepts_pipeline_output;
    Alcotest.test_case "lint rejects double definition" `Quick test_lint_catches_double_def;
    Alcotest.test_case "lint rejects use before def" `Quick test_lint_catches_use_before_def;
    Alcotest.test_case "verify rejects use before def" `Quick test_verify_use_before_def;
    Alcotest.test_case "verify rejects bad jump arity" `Quick test_verify_bad_jump_arity;
    Alcotest.test_case "verify rejects jump type mismatch" `Quick test_verify_jump_type_mismatch;
    Alcotest.test_case "verify rejects copy type mismatch" `Quick test_verify_copy_type_mismatch;
    Alcotest.test_case "verify rejects orphan blocks" `Quick test_verify_orphan_block;
    Alcotest.test_case "verify rejects irreducible control flow" `Quick
      test_verify_irreducible;
    Alcotest.test_case "verify rejects bad terminators" `Quick test_verify_bad_terminator;
    Alcotest.test_case "verify rejects return type mismatch" `Quick test_verify_return_type_mismatch;
    Alcotest.test_case "verify rejects load-argument range" `Quick test_verify_load_argument_range;
    Alcotest.test_case "verify rejects call-arity mismatch" `Quick test_verify_call_arity_program;
    Alcotest.test_case "verify accepts pipeline output at O0/1/2" `Quick test_verify_accepts_every_corpus_stage;
    Alcotest.test_case "loop headers" `Quick test_loop_headers;
    Alcotest.test_case "nested loop headers" `Quick test_nested_loop_headers;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "natural loops: nesting" `Quick test_natural_loops_nested;
    Alcotest.test_case "natural loops: retreating edge" `Quick test_retreating_edge_not_loop;
    Alcotest.test_case "natural loops: self loop" `Quick test_self_loop;
    Alcotest.test_case "preheader insertion" `Quick test_preheader_reuse_and_insert;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "dead-branch deletion" `Quick test_dead_branch_deletion;
    Alcotest.test_case "common subexpressions" `Quick test_cse;
    Alcotest.test_case "dead code elimination" `Quick test_dce;
    Alcotest.test_case "optimisation can be disabled" `Quick test_optimization_off;
    Alcotest.test_case "declared functions inline" `Quick test_inlining_of_declared_function;
    Alcotest.test_case "loop-invariant code motion" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "licm can be disabled" `Quick test_licm_disabled;
    Alcotest.test_case "bounds-check elimination" `Quick test_bounds_check_elimination;
    Alcotest.test_case "counted-loop recognizer" `Quick test_counted_loop_recognizer;
    Alcotest.test_case "a Real64 bound is not counted" `Quick test_real_bound_not_counted;
    Alcotest.test_case "abort checks at loop heads + prologue" `Quick test_abort_placement;
    Alcotest.test_case "non-counted loops check every header" `Quick test_abort_uncounted_loop_checks_header;
    Alcotest.test_case "abort stride spares outer headers" `Quick test_abort_stride_outer_keeps_check;
    Alcotest.test_case "leaf functions skip the prologue check" `Quick test_abort_leaf_prologue_elided;
    Alcotest.test_case "abort lands in a loop calling a leaf" `Quick test_abort_lands_in_loop_calling_leaf;
    Alcotest.test_case "abort handling off" `Quick test_abort_disabled;
    Alcotest.test_case "memory pass balance" `Quick test_memory_pass_balance;
    Alcotest.test_case "memory pass ignores scalars" `Quick test_memory_pass_skips_scalars;
    Alcotest.test_case "mutability promotion" `Quick test_mutability_promotion;
    Alcotest.test_case "promotion reaches the OCaml export" `Quick test_promotion_reaches_backend;
    Alcotest.test_case "aliased update stays checked" `Quick test_mutability_blocked_by_alias;
    Alcotest.test_case "a fresh array's binding is a move" `Quick test_fresh_binding_is_a_move;
    Alcotest.test_case "a parameter copy keeps its acquire" `Quick test_parameter_copy_keeps_acquire;
    Alcotest.test_case "an alias of a moved array" `Quick test_alias_of_moved_array;
    Alcotest.test_case "closures capture arrays by value" `Quick test_closure_captures_by_value;
    Alcotest.test_case "a callee's parameter write stays private" `Quick
      test_callee_parameter_write_is_private;
    Alcotest.test_case "user pass injection (§4.7)" `Quick test_user_pass_injection;
    Alcotest.test_case "per-pass timings (E8)" `Quick test_pass_timings_recorded ]
