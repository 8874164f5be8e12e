(* fig2: the seven Figure-2 programs at bench/'s default sizes, each
   JIT-compiled during set-up in three arms (default, abort checks off,
   loop optimisations off) and then called in interleaved rounds with its
   hand-written baseline.  Single domain throughout.  Every compiled result
   is checked against the hand-written result of the same round. *)

open Wolf_wexpr
open Wolf_compiler
open Wolf_runtime
open Common
module B = Wolf_backends
module P = Bench_support.Programs
module H = Bench_support.Baselines

type prog = {
  pname : string;
  build : Options.t -> Pipeline.compiled;
  args : unit -> Rtval.t array;     (* fresh per call: calls may not share *)
  hand : unit -> Rtval.t;
}

let from_src ?type_env name src options =
  Pipeline.compile ~options ?type_env ~name (Parser.parse src)

(* bench/main.ml's default sizes; the data are drawn from [seed] *)
let programs seed =
  let st = rng seed 2 in
  let fnv = String.init 300_000 (fun _ -> Char.chr (33 + Random.State.int st 91)) in
  let reals n = Array.init (n * n) (fun _ -> Random.State.float st 1.0) in
  let mat = Tensor.create_real [| 300; 300 |] (reals 300) in
  let img = Tensor.create_real [| 400; 400 |] (reals 400) in
  let hist = Tensor.of_int_array (Array.init 300_000 (fun _ -> Random.State.int st 256)) in
  let primeq_limit = 120_000 in
  let seed_table = P.make_seed_table () in
  (* the paper sorts an already-sorted list (the quicksort worst case);
     the seed only moves its values *)
  let off = Random.State.int st 1_000_000 in
  let sorted = Array.init 2048 (fun i -> i + 1 + off) in
  let sorted_t = Tensor.of_int_array sorted in
  let mandel = [| Rtval.Real (-1.0); Real 1.0; Real (-1.0); Real 0.5; Real 0.1 |] in
  [ { pname = "FNV1a"; build = from_src "fnv1a" P.fnv1a_src;
      args = (fun () -> [| Rtval.Str fnv |]);
      hand = (fun () -> Rtval.Int (H.fnv1a fnv)) };
    { pname = "Mandelbrot"; build = from_src "mandel" P.mandelbrot_src;
      args = (fun () -> mandel);
      hand = (fun () -> Rtval.Int (H.mandelbrot (-1.0) 1.0 (-1.0) 0.5 0.1)) };
    { pname = "Dot"; build = from_src "dot" P.dot_src;
      args = (fun () -> [| Rtval.Tensor mat; Rtval.Tensor mat |]);
      hand = (fun () -> Rtval.Tensor (H.dot mat mat)) };
    { pname = "Blur"; build = from_src "blur" P.blur_src;
      args = (fun () -> [| Rtval.Tensor (Tensor.copy img); Rtval.Int 400 |]);
      hand = (fun () -> Rtval.Tensor (H.blur img 400)) };
    { pname = "Histogram"; build = from_src "hist" P.histogram_src;
      args = (fun () -> [| Rtval.Tensor hist |]);
      hand = (fun () -> Rtval.Tensor (H.histogram hist)) };
    { pname = "PrimeQ";
      build =
        (fun options ->
           Pipeline.compile ~options ~type_env:(P.primeq_type_env ())
             ~name:"primeq" (P.primeq_expr ()));
      args = (fun () -> [| Rtval.Int primeq_limit |]);
      hand = (fun () -> Rtval.Int (H.primeq_count ~seed:seed_table primeq_limit)) };
    { pname = "QSort";
      build = from_src ~type_env:(P.qsort_type_env ()) "qsortmain" P.qsort_driver_src;
      args = (fun () -> [| Rtval.Tensor sorted_t |]);
      hand = (fun () -> Rtval.Tensor (Tensor.of_int_array (H.qsort ( < ) sorted))) } ]

let names = [ "FNV1a"; "Mandelbrot"; "Dot"; "Blur"; "Histogram"; "PrimeQ"; "QSort" ]

(* arm 0 is the hand baseline *)
let arms =
  [| ("compiled", Options.default);
     ("no_abort", { Options.default with Options.abort_handling = false });
     ("no_loop_opts", { Options.default with Options.loop_opts = false }) |]

(* A JIT that falls back is an error here: the figure is about JIT code. *)
let jit tally name c =
  match B.Jit.compile c with
  | Ok f -> f
  | Error e ->
    Tally.fail tally (Printf.sprintf "%s: JIT unavailable: %s" name e);
    B.Native.compile c

let setup tally progs =
  List.map
    (fun p ->
       let fs =
         Array.map (fun (_, o) -> jit tally p.pname (p.build o)) arms
       in
       (* first call: page in the plugin, warm caches *)
       Array.iter (fun (f : Rtval.closure) -> ignore (f.call (p.args ()))) fs;
       fs)
    progs

(* exact runtime event counts of one call per program on the threaded
   backend with profiling compiled in *)
let profile_counts progs =
  List.concat_map
    (fun p ->
       let c = p.build { Options.default with Options.profile = true } in
       let f = B.Native.compile c in
       Wolf_obs.Profile.reset ();
       Wolf_obs.Profile.set_enabled true;
       ignore (f.call (p.args ()));
       Wolf_obs.Profile.set_enabled false;
       let m n v = metric (Printf.sprintf "runtime.%s.%s" p.pname n) "count"
           (float_of_int v) in
       [ m "abort_polls" (Wolf_obs.Profile.abort_polls ());
         m "cow_copies" (Wolf_obs.Profile.cow_copies ());
         m "kernel_escapes" (Wolf_obs.Profile.kernel_escapes ()) ])
    progs

let run ~seed ~seconds ~traced =
  let tally = Tally.create () in
  let progs = programs seed in
  (* set up three times; each set-up JIT-compiles its own copies, and the
     rounds rotate through all three, so no single code layout decides the
     figure *)
  let setups = List.init 3 (fun _ ->
      let t0 = now_ns () in
      let fs = setup tally progs in
      (fs, float_of_int (now_ns () - t0) /. 1e9))
  in
  let compiled = Array.of_list (List.map (fun (fs, _) -> Array.of_list fs) setups) in
  let progs = Array.of_list progs in
  let np = Array.length progs in
  let call ~round p a =
    let prog = progs.(p) in
    if a = 0 then prog.hand
    else begin
      let args = prog.args () in
      let f = compiled.(round mod 3).(p).(a - 1) in
      fun () -> f.call args
    end
  in
  let check p (results : Rtval.t array) =
    let reference =
      if !inject_fault then Rtval.Str "corrupted reference" else results.(0)
    in
    for a = 1 to Array.length arms do
      Tally.check tally (same_value results.(a) reference) (fun () ->
          Printf.sprintf "%s/%s: result differs from the hand-written one"
            progs.(p).pname (fst arms.(a - 1)))
    done
  in
  let samples, split, nrounds =
    rounds ~seconds ~traced ~programs:np
      ~arm_names:[| "hand"; "call"; "call_no_abort"; "call_no_loop_opts" |]
      ~call ~check
  in
  (* samples of one program are aligned by round *)
  let ratio p a b = Stats.paired_geomean samples.(p).(a) samples.(p).(b) in
  let ms p a = List.map (fun ns -> ns /. 1e6) samples.(p).(a) in
  let per_prog =
    List.concat
      (List.mapi
         (fun p name ->
            let m n v = metric (Printf.sprintf "fig2.%s.%s" name n) "ratio" v in
            [ m "vs_hand" (ratio p 1 0);
              m "abort_overhead" (ratio p 1 2);
              m "loop_speedup" (ratio p 3 1);
              metric ~samples:(ms p 1) (Printf.sprintf "fig2.%s.compiled_ms" name)
                "ms" (Stats.median (ms p 1));
              metric ~samples:(ms p 0) (Printf.sprintf "fig2.%s.hand_ms" name)
                "ms" (Stats.median (ms p 0)) ])
         names)
  in
  let per_prog_vs_hand = List.init np (fun p -> ratio p 1 0) in
  let vs_hand = Stats.geomean per_prog_vs_hand in
  let setup_s = List.map snd setups in
  let overhead =
    if traced then
      (* traced rounds vs untraced rounds, per program, geometric mean *)
      Stats.geomean
        (List.init np (fun p ->
             let tr, untr = split.(p) in
             Stats.median tr /. Stats.median untr))
      -. 1.0
    else 0.0
  in
  let metrics =
    [ metric ~samples:setup_s "setup_s" "s" (Stats.median setup_s);
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric ~samples:per_prog_vs_hand "vs_ref_geomean" "ratio" vs_hand;
      metric ~samples:per_prog_vs_hand "run_vs_hand_geomean" "ratio" vs_hand;
      metric "fig2.rounds" "count" (float_of_int nrounds) ]
    @ per_prog
    @ (if traced then
         metric "obs.trace_overhead" "ratio" overhead
         :: profile_counts (Array.to_list progs)
       else [])
  in
  { attempted = tally.attempted; failed = tally.failed;
    errors = List.rev tally.errors; metrics }
