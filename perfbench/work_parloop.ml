(* parloop: bench/main.ml's E15 programs (MapFill, SinSum, FillThenSum)
   JIT-compiled with parallel loops on and called at jobs = nproc,
   interleaved with a hand-written serial OCaml loop and with the same
   compiled function at jobs=1.  A process of its own: once helper domains
   exist, every GC pays multi-domain synchronisation.  E15 used the
   threaded backend, whose boxed values keep that GC so busy that runs
   spread by a third; JIT code allocates little. *)

open Wolf_wexpr
open Wolf_compiler
open Common
module PR = Wolf_runtime.Par_runtime

type prog = {
  pname : string;
  src : string;
  n : int;
  hand : int -> Expr.t;     (* the same loop, serial, written by hand *)
}

(* the E15 sources at its quick sizes, so a run holds hundreds of rounds *)
let programs seed =
  (* the seed moves the trip counts a little, never across a power of two
     (the schedule cache's shape class) *)
  let st = rng seed 4 in
  let jitter base = base + Random.State.int st (base / 16) in
  [ { pname = "MapFill";
      src =
        "Function[{Typed[n, \"MachineInteger\"]}, \
         Module[{a = ConstantArray[0.0, n], i = 1}, \
         While[i <= n, a[[i]] = 0.5*i + 1.0; i = i + 1]; a[[n]]]]";
      n = jitter 250_000;
      hand =
        (fun n ->
           let a = Array.make n 0.0 in
           for i = 1 to n do a.(i - 1) <- (0.5 *. float_of_int i) +. 1.0 done;
           Expr.Real a.(n - 1)) };
    { pname = "SinSum";
      src =
        "Function[{Typed[n, \"MachineInteger\"]}, \
         Module[{s = 0.0, i = 1}, \
         While[i <= n, s = s + Sin[0.001*i]; i = i + 1]; s]]";
      n = jitter 250_000;
      hand =
        (fun n ->
           let s = ref 0.0 in
           for i = 1 to n do s := !s +. sin (0.001 *. float_of_int i) done;
           Expr.Real !s) };
    { pname = "FillThenSum";
      src =
        "Function[{Typed[n, \"MachineInteger\"]}, \
         Module[{a = ConstantArray[0.0, n], i = 1, s = 0.0}, \
         While[i <= n, a[[i]] = 0.5*i + 1.0; i = i + 1]; \
         i = 1; \
         While[i <= n, s = s + a[[i]]; i = i + 1]; s]]";
      n = jitter 200_000;
      hand =
        (fun n ->
           let a = Array.make n 0.0 in
           for i = 1 to n do a.(i - 1) <- (0.5 *. float_of_int i) +. 1.0 done;
           let s = ref 0.0 in
           for i = 0 to n - 1 do s := !s +. a.(i) done;
           Expr.Real !s) } ]

let names = [ "MapFill"; "SinSum"; "FillThenSum" ]

let options =
  { Options.default with
    Options.parallel_loops = true; opt_level = 2; use_cache = false }

(* chunked reductions sum in a different order than the serial loop *)
let agree a b =
  match a, b with
  | Expr.Real x, Expr.Real y -> close x y
  | _ -> Expr.equal a b

let chunks = Wolf_obs.Metrics.counter "parloop_chunks_total"

let run ~seed ~seconds ~traced =
  let tally = Tally.create () in
  let progs = Array.of_list (programs seed) in
  let np = Array.length progs in
  let jobs = Domain.recommended_domain_count () in
  (* set-up: compile, spawn the helper domains, pay the schedule search at
     jobs = nproc; three times, from a cleared schedule cache *)
  let setup () =
    let t0 = now_ns () in
    PR.clear_schedules ();
    let cfs =
      Array.map
        (fun p ->
           let cf =
             Wolfram.function_compile ~options ~target:Wolfram.Jit
               ~name:p.pname (Parser.parse p.src)
           in
           ignore (PR.with_jobs jobs (fun () -> Wolfram.call cf [ Expr.Int p.n ]));
           ignore (PR.with_jobs 1 (fun () -> Wolfram.call cf [ Expr.Int p.n ]));
           cf)
        progs
    in
    (cfs, float_of_int (now_ns () - t0) /. 1e9)
  in
  let measurements0 = PR.measurements () in
  let setups = List.init 3 (fun _ -> setup ()) in
  (* the rounds rotate through the three set-ups' JIT code *)
  let cfs = Array.of_list (List.map fst setups) in
  (* the schedule search runs in set-up, once per set-up *)
  let search = float_of_int (PR.measurements () - measurements0) /. 3.0 in
  let chunks0 = Wolf_obs.Metrics.counter_value chunks in
  (* arm 0 hand-written serial, 1 compiled at jobs = nproc, 2 at jobs=1 *)
  let call ~round p a =
    let prog = progs.(p) in
    if a = 0 then fun () -> prog.hand prog.n
    else begin
      let cf = cfs.(round mod 3).(p) in
      let j = if a = 1 then jobs else 1 in
      fun () -> PR.with_jobs j (fun () -> Wolfram.call cf [ Expr.Int prog.n ])
    end
  in
  let check p (results : Expr.t array) =
    let reference = if !inject_fault then Expr.Real (-1.0) else results.(0) in
    for a = 1 to 2 do
      Tally.check tally (agree results.(a) reference) (fun () ->
          Printf.sprintf "%s at jobs=%d: %s, hand-written loop gives %s"
            progs.(p).pname (if a = 1 then jobs else 1)
            (Form.input_form results.(a)) (Form.input_form reference))
    done
  in
  let samples, split, nrounds =
    rounds ~seconds ~traced ~programs:np
      ~arm_names:[| "hand"; "call"; "call_jobs1" |] ~call ~check
  in
  (* samples of one program are aligned by round *)
  let ratio p a b = Stats.paired_geomean samples.(p).(a) samples.(p).(b) in
  let ms p a = List.map (fun ns -> ns /. 1e6) samples.(p).(a) in
  let per_prog_vs_hand = List.init np (fun p -> ratio p 1 0) in
  let vs_hand = Stats.geomean per_prog_vs_hand in
  let setup_s = List.map snd setups in
  let per_prog =
    List.concat
      (List.mapi
         (fun p name ->
            let m n v = metric (Printf.sprintf "parloop.%s.%s" name n) "ratio" v in
            [ m "vs_hand" (ratio p 1 0);
              m "speedup_vs_jobs1" (ratio p 2 1);
              metric ~samples:(ms p 1) (Printf.sprintf "parloop.%s.compiled_ms" name)
                "ms" (Stats.median (ms p 1));
              metric ~samples:(ms p 0) (Printf.sprintf "parloop.%s.hand_ms" name)
                "ms" (Stats.median (ms p 0)) ])
         names)
  in
  let overhead =
    Stats.geomean
      (List.init np (fun p ->
           let tr, untr = split.(p) in
           Stats.median tr /. Stats.median untr))
    -. 1.0
  in
  let metrics =
    [ metric ~samples:setup_s "setup_s" "s" (Stats.median setup_s);
      metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      metric ~samples:per_prog_vs_hand "vs_ref_geomean" "ratio" vs_hand;
      metric ~samples:per_prog_vs_hand "run_vs_hand_geomean" "ratio" vs_hand;
      metric "parloop.jobs" "count" (float_of_int jobs);
      metric "parloop.rounds" "count" (float_of_int nrounds);
      (* per round, so the counts do not scale with the run's length *)
      metric "par_runtime.chunks" "count"
        (float_of_int (Wolf_obs.Metrics.counter_value chunks - chunks0)
         /. float_of_int nrounds);
      metric "par_runtime.measurements" "count" search ]
    @ per_prog
    @ (if traced then [ metric "obs.trace_overhead" "ratio" overhead ] else [])
  in
  { attempted = tally.attempted; failed = tally.failed;
    errors = List.rev tally.errors; metrics }
