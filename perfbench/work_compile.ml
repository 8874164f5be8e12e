(* compile: a seeded corpus of 300 programs — five Figure-2 sources on
   small inputs plus generated lib/fuzz programs — each compiled cold to
   the threaded backend (parse, pipeline, threaded build, called directly)
   and timed against the legacy bytecode compiler on the same source where
   that can represent it.  The first 100 also compile cold to the JIT
   through the facade, with a disk cache attached the way
   `wolfd --disk-cache` attaches it and the in-memory cache cleared before
   every compile; a JIT compile costs thirty threaded ones, so only these
   share the run.  Each result is called once and compared with the
   interpreter's answer (Oracle.reference for generated programs).  Then
   the in-memory cache is cleared, the JIT results are revived from the
   disk cache, and each revived function is checked again. *)

open Wolf_wexpr
open Wolf_compiler
open Common
module B = Wolf_backends
module P = Bench_support.Programs
module Oracle = Wolf_fuzz.Oracle

type item = {
  label : string;
  src : string;
  args : Expr.t array;
  reference : Oracle.outcome;
}

(* the threaded arm is cheap, so a large corpus keeps the seed's draw
   from moving the geometric mean; the JIT arm is not *)
let corpus_size = 300
let jit_programs = 100

let guard f : Oracle.outcome =
  match f () with
  | v -> Value v
  | exception Wolf_base.Abort_signal.Aborted ->
    Wolf_base.Abort_signal.clear ();
    Aborted
  | exception Wolf_base.Errors.Runtime_error fl ->
    Failed (Wolf_base.Errors.describe_failure fl)
  | exception Wolf_base.Errors.Eval_error m -> Failed m
  | exception Wolf_base.Errors.Compile_error m -> Failed ("compile: " ^ m)
  | exception e -> Failed (Printexc.to_string e)

(* The generator's programs terminate, but a few evaluate symbolically in
   the interpreter at exponential cost (a Mod[_, 0] left unevaluated
   doubles a term on every iteration).  Such a draw is replaced by the next
   one and counted; the compiled code would fall back to the same
   interpreter run, so it cannot be measured either. *)
let with_budget secs f =
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
         let t_end = Unix.gettimeofday () +. secs in
         while (not (Atomic.get finished)) && Unix.gettimeofday () < t_end do
           Thread.delay 0.01
         done;
         if not (Atomic.get finished) then Wolf_base.Abort_signal.request ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
        Atomic.set finished true;
        Thread.join watchdog;
        Wolf_base.Abort_signal.clear ())
    f

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* the Figure-2 sources that compile without a custom type environment
   (PrimeQ and QSort need one, which bypasses both compile caches) *)
let fig2_items st =
  let reals n = Array.init n (fun _ -> Random.State.float st 1.0) in
  let tensor dims = Expr.Tensor (Tensor.create_real dims (reals (Array.fold_left ( * ) 1 dims))) in
  [ ("FNV1a", P.fnv1a_src,
     [| Expr.Str (String.init 64 (fun _ -> Char.chr (33 + Random.State.int st 91))) |]);
    ("Mandelbrot", P.mandelbrot_src,
     [| Expr.Real (-1.0); Real 1.0; Real (-1.0); Real 0.5; Real 0.25 |]);
    ("Dot", P.dot_src, [| tensor [| 6; 6 |]; tensor [| 6; 6 |] |]);
    ("Blur", P.blur_src, [| tensor [| 8; 8 |]; Expr.Int 8 |]);
    ("Histogram", P.histogram_src,
     [| Expr.Tensor (Tensor.of_int_array (Array.init 64 (fun _ -> Random.State.int st 256))) |]) ]

let corpus seed =
  let st = rng seed 3 in
  let fig2 =
    List.map
      (fun (label, src, args) ->
         let fexpr = Parser.parse src in
         let reference =
           guard (fun () -> Wolfram.interpret_expr (Expr.Normal (fexpr, args)))
         in
         { label; src; args; reference })
      (fig2_items st)
  in
  (* program i depends on (seed, i) only, as in `wolfc fuzz --seed` *)
  let rec draw i acc skipped =
    if List.length acc = corpus_size - List.length fig2 then (List.rev acc, skipped)
    else begin
      let case = Wolf_fuzz.Gen.case (Wolf_fuzz.Rng.split (Wolf_fuzz.Rng.create seed) i) in
      match with_budget 2.0 (fun () -> Oracle.reference case) with
      | Oracle.Aborted -> draw (i + 1) acc (skipped + 1)
      | reference ->
        let item =
          { label = Printf.sprintf "gen%d" i;
            src = Wolf_fuzz.Ast.to_source case.fn;
            args =
              Array.of_list
                (List.map (fun a -> Parser.parse (Wolf_fuzz.Ast.arg_source a))
                   case.args);
            reference }
        in
        draw (i + 1) (item :: acc) skipped
    end
  in
  let generated, skipped = draw 0 [] 0 in
  (* a seeded interleaving, so the Figure-2 sources are not all first *)
  let keyed = List.map (fun it -> (Random.State.bits st, it)) (fig2 @ generated) in
  (List.map snd (List.sort compare keyed), skipped)

let rec nodes (e : Expr.t) =
  match e with
  | Normal (h, args) -> Array.fold_left (fun acc a -> acc + nodes a) (1 + nodes h) args
  | _ -> 1

(* the threaded path, layer by layer, with the facade's wrapper semantics
   (argument checks, soft fallback) so its result compares like a user's *)
let threaded_compile src =
  Spans.with_span "threaded_compile" @@ fun () ->
  let fexpr = Spans.with_span "parse" (fun () -> Parser.parse src) in
  let c =
    Spans.with_span "pipeline" (fun () ->
        Pipeline.compile
          ~options:{ Options.default with Options.use_cache = false }
          ~name:"Bench" fexpr)
  in
  let closure = Spans.with_span "threaded_build" (fun () -> B.Native.compile c) in
  let main = Wir.main c.Pipeline.program in
  let arg_tys =
    Array.map
      (fun (v : Wir.var) -> Option.value ~default:Types.expression v.Wir.vty)
      main.Wir.fparams
  in
  let ret_ty = Option.value ~default:Types.expression main.Wir.ret_ty in
  let cf =
    B.Compiled_function.wrap ~name:"Bench" ~source:fexpr ~arg_tys ~ret_ty closure
  in
  (fexpr, c, cf)

(* JIT-internal sub-layers, read from the program's own trace: the
   codegen span covers emission plus ocamlopt, the dynlink span the load *)
let jit_spans () =
  let doc = Wolf_obs.Json_min.parse_exn (Wolf_obs.Trace.to_json ()) in
  let events =
    match Wolf_obs.Json_min.member "traceEvents" doc with
    | Some l -> Wolf_obs.Json_min.to_list l
    | None -> []
  in
  let open_ = Hashtbl.create 8 in
  let sum = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       let field k = Wolf_obs.Json_min.member k ev in
       match field "name", field "ph", field "ts", field "tid" with
       | Some (Str name), Some (Str ph), Some (Num ts), Some (Num tid) ->
         let k = (name, tid) in
         if ph = "B" then Hashtbl.replace open_ k ts
         else if ph = "E" then
           (match Hashtbl.find_opt open_ k with
            | Some t0 ->
              Hashtbl.remove open_ k;
              Hashtbl.replace sum name
                (ts -. t0 +. Option.value ~default:0.0 (Hashtbl.find_opt sum name))
            | None -> ())
       | _ -> ())
    events;
  Wolf_obs.Trace.reset ();
  let ms name = Option.value ~default:0.0 (Hashtbl.find_opt sum name) /. 1e3 in
  (ms "jit-codegen", ms "jit-dynlink")

let jit_options = { Options.default with Options.use_cache = true }

let jit_compile fexpr =
  Wolfram.compile_cache_clear ();
  Wolfram.function_compile ~options:jit_options ~target:Wolfram.Jit ~name:"Bench"
    fexpr

let disk_stats () =
  match Wolfram.disk_cache_stats () with
  | Some s -> s
  | None -> failwith "disk cache detached"

let check tally it what outcome =
  let reference =
    if !inject_fault then Oracle.Value (Expr.Str "swapped reference")
    else it.reference
  in
  Tally.check tally (Oracle.agree reference outcome) (fun () ->
      Printf.sprintf "%s/%s: got %s, interpreter gives %s" it.label what
        (Oracle.outcome_str outcome) (Oracle.outcome_str reference))

let run ~seed ~seconds:_ ~traced =
  let tally = Tally.create () in
  let items, skipped = corpus seed in
  let base = Filename.concat (Filename.get_temp_dir_name ()) "perfbench-disk" in
  (* set-up: a fresh disk cache attached the wolfd way, and the toolchain
     warmed by one compile per target; three times *)
  let warm_src = "Function[{Typed[x, \"MachineInteger\"]}, x + 1]" in
  let setup i =
    let t0 = now_ns () in
    let dir = Printf.sprintf "%s-%d-%d" base (Unix.getpid ()) i in
    Wolfram.set_disk_cache (Some (Disk_cache.open_dir dir));
    ignore (threaded_compile warm_src);
    ignore (Wolfram.call (jit_compile (Parser.parse warm_src)) [ Expr.Int 1 ]);
    float_of_int (now_ns () - t0) /. 1e9
  in
  let setup_s = List.init 3 setup in
  let disk0 = disk_stats () in
  (* traced runs alternate traced and untraced programs *)
  let traced_at i = traced && i mod 2 = 1 in
  let layer = Hashtbl.create 32 in
  let note k v =
    Hashtbl.replace layer k (v :: Option.value ~default:[] (Hashtbl.find_opt layer k))
  in
  let mean k = Stats.mean (Option.value ~default:[] (Hashtbl.find_opt layer k)) in
  let pass_ms = Hashtbl.create 32 in   (* pass name -> total ms, traced programs *)
  (* 1. every program cold to the threaded backend, and the bytecode
        compiler on the same source *)
  let thr = ref [] and traced_thr = ref [] and untraced_thr = ref [] in
  let vs_wvm = ref [] in
  let compiled =
    List.mapi
      (fun i it ->
         let tr = traced_at i in
         Spans.on := tr;
         match timed (fun () -> threaded_compile it.src) with
         | exception e ->
           Tally.fail tally (Printf.sprintf "%s/threaded: compile raised %s"
                               it.label (Printexc.to_string e));
           None
         | (fexpr, c, cf), ns ->
           Spans.on := false;
           let ms = ms_of_ns ns in
           thr := ms :: !thr;
           let bucket = if tr then traced_thr else untraced_thr in
           bucket := ms :: !bucket;
           check tally it "threaded"
             (guard (fun () -> B.Compiled_function.call cf it.args));
           (* against the bytecode compiler on the same source, which
              rejects strings and function values: both best of three,
              alternated so that both see the host alike *)
           (match B.Wvm.compile (Parser.parse it.src) with
            | exception _ -> ()
            | _ ->
              let wvm () = snd (timed (fun () -> B.Wvm.compile (Parser.parse it.src))) in
              let again () = snd (timed (fun () -> threaded_compile it.src)) in
              let w1 = wvm () in
              let t2 = again () in
              let w2 = wvm () in
              let t3 = again () in
              let w3 = wvm () in
              let best_t = min ns (min t2 t3) and best_w = min w1 (min w2 w3) in
              vs_wvm := (float_of_int best_t /. float_of_int (max 1 best_w)) :: !vs_wvm);
           if tr then begin
             note "nodes" (float_of_int (nodes fexpr));
             List.iter
               (fun (pass, s) ->
                  Hashtbl.replace pass_ms pass
                    (s *. 1e3 +. Option.value ~default:0.0 (Hashtbl.find_opt pass_ms pass)))
               c.Pipeline.timings;
             note "fixpoint_runs"
               (float_of_int
                  (List.fold_left
                     (fun acc (st : Pass_manager.stat) ->
                        if st.st_delta = None then acc else acc + st.st_runs)
                     0 c.Pipeline.stats));
             note "instrs_final"
               (float_of_int (Pass_manager.instr_count c.Pipeline.program));
             let emitted, emit_ns =
               timed (fun () -> B.Ocaml_emit.emit ~module_name:"Perfbench_emit" c)
             in
             note "emit_ms" (ms_of_ns emit_ns);
             note "emitted_bytes" (float_of_int (String.length emitted.source))
           end;
           Some (it, fexpr))
      items
    |> List.filter_map Fun.id
  in
  (* 2. the first programs cold to the JIT: missing in memory and on disk,
        stored on disk on success *)
  let jit = ref [] and revivable = ref [] in
  List.iteri
    (fun i (it, fexpr) ->
       if i < jit_programs then begin
         let tr = traced_at i in
         Spans.on := tr;
         Wolf_obs.Trace.reset ();
         if tr then Wolf_obs.Trace.enable ();
         let writes0 = (disk_stats ()).writes in
         let r =
           match
             timed (fun () ->
                 Spans.with_span ~key:i "jit_compile" (fun () -> jit_compile fexpr))
           with
           | r -> Ok r
           | exception e -> Error e
         in
         Wolf_obs.Trace.disable ();
         Spans.on := false;
         match r with
         | Error e ->
           Tally.fail tally (Printf.sprintf "%s/jit: compile raised %s"
                               it.label (Printexc.to_string e))
         | Ok (cf, ns) ->
           jit := ms_of_ns ns :: !jit;
           if (disk_stats ()).writes = writes0 then
             Tally.fail tally (it.label ^ "/jit: fell back to the threaded backend")
           else revivable := (it, fexpr) :: !revivable;
           check tally it "jit"
             (guard (fun () -> Wolfram.call cf (Array.to_list it.args)));
           if tr then begin
             let codegen, dynlink = jit_spans () in
             let pipeline =
               match Wolfram.pipeline_of cf with
               | Some c ->
                 List.fold_left (fun acc (_, s) -> acc +. s) 0.0 c.Pipeline.timings
                 *. 1e3
               | None -> 0.0
             in
             note "jit_pipeline_ms" pipeline;
             note "jit_codegen_ms" codegen;
             note "dynlink_ms" dynlink;
             note "jit_wall_ms" (ms_of_ns ns)
           end
       end)
    compiled;
  (* 3. revive: the in-memory cache dropped, every JIT result from disk *)
  Wolfram.compile_cache_clear ();
  let hits0 = (disk_stats ()).hits in
  let hit =
    List.filter_map
      (fun (it, fexpr) ->
         match timed (fun () -> jit_compile fexpr) with
         | exception e ->
           Tally.fail tally (Printf.sprintf "%s/revive: raised %s" it.label
                               (Printexc.to_string e));
           None
         | cf, ns ->
           check tally it "revived"
             (guard (fun () -> Wolfram.call cf (Array.to_list it.args)));
           Some (ms_of_ns ns))
      (List.rev !revivable)
  in
  let disk1 = disk_stats () in
  if disk1.hits - hits0 <> List.length !revivable then
    Tally.fail tally
      (Printf.sprintf "revive: %d disk hits for %d stored programs"
         (disk1.hits - hits0) (List.length !revivable));
  Wolfram.set_disk_cache None;
  let thr = !thr and jit = !jit in
  let metrics =
    [ metric ~samples:setup_s "setup_s" "s" (Stats.median setup_s);
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric ~samples:!vs_wvm "vs_ref_geomean" "ratio" (Stats.geomean !vs_wvm) ]
    @ List.concat
      [ percentile "compile_threaded_p50_ms" "ms" thr 0.5;
        percentile "compile_threaded_p90_ms" "ms" thr 0.9;
        percentile "compile_jit_p50_ms" "ms" jit 0.5;
        percentile "compile_jit_p90_ms" "ms" jit 0.9;
        percentile "compile_disk_hit_p50_ms" "ms" hit 0.5 ]
    @ [ metric "compile.programs" "count" (float_of_int (List.length items));
      metric "compile.vs_bytecode_programs" "count" (float_of_int (List.length !vs_wvm));
      metric "compile.slow_references_replaced" "count" (float_of_int skipped) ]
  in
  let layers =
    if not traced then []
    else begin
      let count = float_of_int (List.length !traced_thr) in
      let per name = Spans.self_ms name /. count in
      let parse = per "parse" and pipeline = per "pipeline"
      and build = per "threaded_build" in
      (* the layers must account for the measured compile: parse +
         pipeline + threaded build against the threaded wall time, and
         pipeline + codegen + dynlink against the JIT wall time *)
      let share_thr = (parse +. pipeline +. build) /. Stats.mean !traced_thr in
      let share_jit =
        (mean "jit_pipeline_ms" +. mean "jit_codegen_ms" +. mean "dynlink_ms")
        /. mean "jit_wall_ms"
      in
      if share_thr < 0.95 || share_jit < 0.90 then
        Tally.fail tally
          (Printf.sprintf
             "attribution: layers cover %.1f%% of the threaded compile (need \
              95%%) and %.1f%% of the JIT compile (need 90%%)"
             (100. *. share_thr) (100. *. share_jit));
      let passes =
        Hashtbl.fold
          (fun pass total acc ->
             let pass = String.map (function '+' -> '-' | ch -> ch) pass in
             metric (Printf.sprintf "compiler.pass.%s_ms" pass) "ms" (total /. count)
             :: acc)
          pass_ms []
      in
      [ metric "wexpr.parse_ms" "ms" parse;
        metric "wexpr.nodes" "count" (mean "nodes");
        metric "compiler.pipeline_ms" "ms" pipeline;
        metric "compiler.fixpoint_runs" "count" (mean "fixpoint_runs");
        metric "compiler.instrs_final" "count" (mean "instrs_final");
        metric "backends.threaded_build_ms" "ms" build;
        metric "backends.emit_ms" "ms" (mean "emit_ms");
        metric "backends.emitted_bytes" "bytes" (mean "emitted_bytes");
        (* ocamlopt: the codegen span less the emission inside it *)
        metric "backends.jit_ms" "ms" (mean "jit_codegen_ms" -. mean "emit_ms");
        metric "backends.dynlink_ms" "ms" (mean "dynlink_ms");
        metric "disk_cache.hits" "count" (float_of_int (disk1.hits - disk0.hits));
        metric "disk_cache.misses" "count"
          (float_of_int (disk1.misses - disk0.misses));
        metric "compile.attributed_share_threaded" "ratio" share_thr;
        metric "compile.attributed_share_jit" "ratio" share_jit;
        metric "obs.trace_overhead" "ratio"
          (Stats.median !traced_thr /. Stats.median !untraced_thr -. 1.0) ]
      @ List.sort compare passes
    end
  in
  { attempted = tally.attempted; failed = tally.failed;
    errors = List.rev tally.errors; metrics = metrics @ layers }
