(* The ocamlopt JIT's structured emission: loops are emitted as [while]
   loops over mutable locals, so hot loops allocate nothing; the emitter
   refuses irreducible control flow; and the prelude's overflow checks
   agree with exact arithmetic. *)

open Wolf_wexpr
open Wolf_compiler
open Wolf_runtime
module B = Wolf_backends
module P = Bench_support.Programs

let jit_on = lazy (B.Jit.available ())

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_nested_loops_are_while_loops () =
  let c = Pipeline.compile ~name:"mandel" (Parser.parse P.mandelbrot_src) in
  let src = (B.Ocaml_emit.emit ~module_name:"Structured" c).B.Ocaml_emit.source in
  Alcotest.(check bool) "has a while loop" true (contains src "while !wolf_lbl");
  Alcotest.(check bool) "no block functions" false (contains src "let rec blk")

(* b0 enters the cycle b1 <-> b2 at both blocks, so neither dominates the
   other: no loop header exists to emit a [while] at *)
let two_entry_cycle () =
  let jump t = { Wir.target = t; jargs = [||] } in
  let block label term = { Wir.label; bparams = [||]; instrs = []; term } in
  let cond = Wir.Oconst (Wir.Cbool true) in
  { Wir.fname = "Main"; fparams = [||]; ret_ty = Some Types.int64;
    finline = false; fsource = None;
    blocks =
      [ block 0 (Wir.Branch { cond; if_true = jump 1; if_false = jump 2 });
        block 1 (Wir.Jump (jump 2));
        block 2 (Wir.Branch { cond; if_true = jump 1; if_false = jump 3 });
        block 3 (Wir.Return (Wir.Oconst (Wir.Cint 0))) ] }

let test_emitter_rejects_irreducible () =
  let c = Pipeline.compile ~name:"k" (Parser.parse "Function[{}, 0]") in
  let c = { c with Pipeline.program = { Wir.funcs = [ two_entry_cycle () ]; pmeta = [] } } in
  match B.Ocaml_emit.emit ~module_name:"Irreducible" c with
  | _ -> Alcotest.fail "emitted an irreducible CFG"
  | exception Invalid_argument m ->
    Alcotest.(check bool) ("names the cause: " ^ m) true (contains m "irreducible")

let jit_compile ?type_env name fexpr =
  match B.Jit.compile (Pipeline.compile ?type_env ~name fexpr) with
  | Ok f -> f
  | Error e -> Alcotest.failf "%s: JIT compile failed: %s" name e

(* words the minor heap grew by across one call, after a warm-up call *)
let minor_words_per_call (f : Rtval.closure) args =
  ignore (f.Rtval.call args);
  let before = Gc.minor_words () in
  ignore (f.Rtval.call args);
  int_of_float (Gc.minor_words () -. before)

(* Loop-carried values stay in registers: a call allocates only its boxed
   result (and the float [Gc.minor_words] returns), not a closure per call
   or a boxed float per iteration. *)
let test_hot_loops_allocate_nothing () =
  if Lazy.force jit_on then begin
    let bound = 16 in
    let mandel = jit_compile "mandel" (Parser.parse P.mandelbrot_src) in
    let words =
      minor_words_per_call mandel
        [| Rtval.Real (-1.0); Real 1.0; Real (-1.0); Real 0.5; Real 0.1 |]
    in
    Alcotest.(check bool) (Printf.sprintf "Mandelbrot: %d words <= %d" words bound)
      true (words <= bound);
    (* limits past the 2^14 seed table run Miller-Rabin for every k *)
    let primeq =
      jit_compile ~type_env:(P.primeq_type_env ()) "primeq" (P.primeq_expr ())
    in
    let words = minor_words_per_call primeq [| Rtval.Int 20_000 |] in
    Alcotest.(check bool) (Printf.sprintf "PrimeQ: %d words <= %d" words bound)
      true (words <= bound)
  end

(* The prelude's wolf_add/wolf_sub/wolf_mul raise exactly when the exact
   result leaves OCaml's 63-bit int range. *)
let test_prelude_overflow_matches_bignum () =
  if Lazy.force jit_on then begin
    let binop op =
      jit_compile "ovf"
        (Parser.parse
           (Printf.sprintf
              {|Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, a %s b]|}
              op))
    in
    (* the range edges, plus FNV1a's operands *)
    let edges = Test_bignum.overflow_edges @ [ 16777619; 4294967295 ] in
    List.iter
      (fun (op, big) ->
         let f = binop op in
         List.iter
           (fun a ->
              List.iter
                (fun b ->
                   let exact = Wolf_base.Bignum.(to_int_opt (big (of_int a) (of_int b))) in
                   let got =
                     match f.Rtval.call [| Rtval.Int a; Rtval.Int b |] with
                     | v -> Some (Rtval.as_int v)
                     | exception Wolf_base.Errors.Runtime_error
                         Wolf_base.Errors.Integer_overflow -> None
                   in
                   if got <> exact then
                     Alcotest.failf "%d %s %d: got %s, exact %s" a op b
                       (Option.fold ~none:"overflow" ~some:string_of_int got)
                       (Option.fold ~none:"out of range" ~some:string_of_int exact))
                edges)
           edges)
      [ ("+", Wolf_base.Bignum.add); ("-", Wolf_base.Bignum.sub);
        ("*", Wolf_base.Bignum.mul) ]
  end

let tests =
  [ Alcotest.test_case "nested loops emit as while loops" `Quick
      test_nested_loops_are_while_loops;
    Alcotest.test_case "emitter rejects an irreducible CFG" `Quick
      test_emitter_rejects_irreducible;
    Alcotest.test_case "hot loops allocate nothing per call" `Quick
      test_hot_loops_allocate_nothing;
    Alcotest.test_case "prelude overflow checks match Bignum" `Quick
      test_prelude_overflow_matches_bignum ]
