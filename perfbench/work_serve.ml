(* serve: an open loop against a `wolfd --tier` daemon running as its own
   process.  A seeded Poisson arrival schedule is played at a few fixed
   rates, one step each, over at most nproc connections by two threads (a
   sender that writes each request when it is due, whatever is still in
   flight, and a receiver).  Each request is timed from when it was due.
   The mix: short interpreter evals, hot Function[…][args] evals that the
   tier controller promotes, and threaded compile requests drawn from a
   pool where half repeat (cache reads) and half are new (cache writes).
   Every eval reply must equal the in-process interpreter's answer; every
   compile reply must equal the summary of the same pipeline run
   in-process.  The compile checks test the service path; the compiler
   itself is checked against the interpreter by the compile workload. *)

open Wolf_wexpr
open Common
module Pr = Wolf_serve.Protocol
module J = Wolf_obs.Json_min

(* Sized once from the 2-core reference host's measured capacity (see
   README.md); never derived at run time, so a faster commit faces the
   same load.  The first rate is the nominal one. *)
let rates = [ 2000.0; 4000.0; 8000.0; 16000.0 ]
let p99_limit_ms = 25.0

type kind = Short | Hot | Compile_repeat | Compile_new

let kind_name = function
  | Short -> "eval"
  | Hot -> "hot"
  | Compile_repeat -> "compile_repeat"
  | Compile_new -> "compile_new"

type req = {
  kind : kind;
  code : string;
  expected : string;
}

let hot_functions =
  [| "Function[{Typed[n, \"MachineInteger\"]}, Module[{s = 0}, Do[s = s + i*i, {i, n}]; s]]";
     "Function[{Typed[n, \"MachineInteger\"]}, Module[{s = 0, k = 1}, \
      While[k <= n, s = s + Mod[k*k, 7]; k = k + 1]; s]]";
     "Function[{Typed[x, \"Real64\"], Typed[n, \"MachineInteger\"]}, \
      Module[{y = x}, Do[y = 0.5*y + 1.0, {i, n}]; y]]" |]

let repeat_pool =
  let module P = Bench_support.Programs in
  [| P.fnv1a_src; P.mandelbrot_src; P.dot_src; P.blur_src; P.histogram_src;
     hot_functions.(0) |]

let opt_level = Wolf_compiler.Options.default.Wolf_compiler.Options.opt_level

(* the reference answers: the interpreter for evals, the same pipeline
   in-process for compile summaries; memoized on the request text *)
let expected_of =
  let memo = Hashtbl.create 256 in
  fun kind code ->
    match Hashtbl.find_opt memo code with
    | Some e -> e
    | None ->
      let e =
        match kind with
        | Short | Hot -> Form.input_form (Wolfram.interpret code)
        | Compile_repeat | Compile_new ->
          let c =
            Wolf_compiler.Pipeline.compile
              ~options:{ Wolf_compiler.Options.default with
                         Wolf_compiler.Options.opt_level }
              ~name:"Serve" (Parser.parse code)
          in
          Printf.sprintf "ok: %d instrs, %d blocks"
            (Wolf_compiler.Pass_manager.instr_count c.Wolf_compiler.Pipeline.program)
            (Wolf_compiler.Pass_manager.block_count c.Wolf_compiler.Pipeline.program)
      in
      Hashtbl.replace memo code e;
      e

let draw st serial =
  let r = Random.State.float st 1.0 in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let kind, code =
    if r < 0.55 then
      ( Short,
        match Random.State.int st 4 with
        | 0 -> Printf.sprintf "Total[Range[%d]]" (int 10 3000)
        | 1 -> Printf.sprintf "Mod[%d^5 + %d, 1000003]" (int 2 999) (int 0 99)
        | 2 -> Printf.sprintf "Table[i^2 + %d, {i, %d}]" (int 0 9) (int 1 12)
        | _ -> Printf.sprintf "Max[{%d, %d, %d}] - Min[{%d, %d}]"
                 (int 0 99) (int 0 99) (int 0 99) (int 0 99) (int 0 99) )
    else if r < 0.96 then
      let i = Random.State.int st (Array.length hot_functions) in
      ( Hot,
        if i = 2 then Printf.sprintf "%s[%d.5, %d]" hot_functions.(i) (int 0 9) (int 50 300)
        else Printf.sprintf "%s[%d]" hot_functions.(i) (int 100 600) )
    else if r < 0.98 then
      (Compile_repeat, repeat_pool.(Random.State.int st (Array.length repeat_pool)))
    else
      (* the serial makes every new program's text, so its key, unique *)
      ( Compile_new,
        Printf.sprintf
          "Function[{Typed[x, \"MachineInteger\"]}, Module[{s = x}, \
           Do[s = Mod[s*%d + %d, 1000003], {i, 4}]; s]]"
          (serial + 2) (int 1 99) )
  in
  { kind; code; expected = expected_of kind code }

(* ---- the daemon -------------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ -> Unix.close fd; None

let data_of payload =
  match J.member "data" (J.parse_exn payload) with
  | Some d -> d
  | None -> failwith ("unexpected reply: " ^ payload)

(* control requests (stats, metrics, shutdown) go through the public client
   on a connection of their own *)
let control sock f =
  match Wolf_serve.Client.connect sock with
  | exception Unix.Unix_error _ -> None
  | c -> Some (Fun.protect ~finally:(fun () -> Wolf_serve.Client.close c) (fun () -> f c))

let json_data (r : Pr.response) =
  match r.rsp with
  | Ok (Pr.Json frame) -> data_of frame
  | _ -> failwith "wolfd: expected a JSON reply"

type daemon = { pid : int; sock : string }

(* the daemon is the wolfc binary dune builds next to the runner *)
let wolfc = "_build/default/bin/wolfc.exe"

let start_daemon sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process wolfc
      [| wolfc; "wolfd"; "--socket"; sock; "--quiet"; "--tier"; "--jobs";
         string_of_int (Domain.recommended_domain_count ()) |]
      null null Unix.stderr
  in
  Unix.close null;
  let rec wait_ready n =
    if n = 0 then failwith "wolfd did not come up"
    else
      match connect sock with
      | Some fd -> Unix.close fd
      | None -> Unix.sleepf 0.01; wait_ready (n - 1)
  in
  (try wait_ready 1000
   with e -> (try Unix.kill pid Sys.sigkill with _ -> ());
     ignore (Unix.waitpid [] pid); raise e);
  { pid; sock }

let stop_daemon d =
  ignore
    (control d.sock (fun c ->
         try ignore (Wolf_serve.Client.shutdown c) with Pr.Closed -> ()));
  (* a daemon that ignores shutdown is killed after five seconds *)
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when n > 0 -> Unix.sleepf 0.01; reap (n - 1)
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 500;
  (try Sys.remove d.sock with Sys_error _ -> ())

(* ---- the open-loop generator ----------------------------------------- *)

type outcome = {
  o_kind : kind;
  o_latency_ms : float;       (* infinity: failed or refused *)
  o_ok : bool;
}

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  buf : Buffer.t;             (* receive side, unparsed bytes *)
}

type pending = { p_req : req; p_due : int; p_step : int; p_traced : bool }

type state = {
  lock : Mutex.t;
  inflight : (int, pending) Hashtbl.t;
  stats_inflight : (int, unit) Hashtbl.t;
  mutable outcomes : (int * outcome) list;   (* step, outcome *)
  mutable stats_replies : string list;
  mutable wrong : string list;           (* the first few failures, described *)
  mutable protocol_errors : int;         (* frames no request can own *)
  mutable stop : bool;
}

let with_lock st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* complete frames out of a connection's buffer *)
let rec frames c acc =
  let s = Buffer.contents c.buf in
  if String.length s < 4 then List.rev acc
  else begin
    let b i = Char.code s.[i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if String.length s < 4 + n then List.rev acc
    else begin
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (4 + n) (String.length s - 4 - n));
      frames c (String.sub s 4 n :: acc)
    end
  end

let on_reply st payload =
  let now = now_ns () in
  match Pr.decode_response payload with
  | Error e ->
    with_lock st (fun () ->
        st.protocol_errors <- st.protocol_errors + 1;
        st.wrong <- ("bad frame: " ^ e) :: st.wrong)
  | Ok rsp ->
    with_lock st @@ fun () ->
    if Hashtbl.mem st.stats_inflight rsp.rsp_id then begin
      Hashtbl.remove st.stats_inflight rsp.rsp_id;
      st.stats_replies <- payload :: st.stats_replies
    end
    else
      match Hashtbl.find_opt st.inflight rsp.rsp_id with
      | None ->
        st.protocol_errors <- st.protocol_errors + 1;
        st.wrong <- Printf.sprintf "reply to unknown id %d" rsp.rsp_id :: st.wrong
      | Some p ->
        Hashtbl.remove st.inflight rsp.rsp_id;
        (* the client span of one request: due time to reply *)
        if p.p_traced then Spans.add ~key:rsp.rsp_id "request" p.p_due now;
        let expected =
          if !inject_fault then "corrupted " ^ p.p_req.expected else p.p_req.expected
        in
        let ok, got =
          match rsp.rsp with
          | Ok (Pr.Text s) -> (s = expected, s)
          | Ok (Pr.Json s) -> (false, s)
          | Error (k, m) -> (false, Pr.error_kind_name k ^ ": " ^ m)
        in
        if (not ok) && List.length st.wrong < 8 then
          st.wrong <-
            Printf.sprintf "%s %S: got %S, expected %S" (kind_name p.p_req.kind)
              p.p_req.code got expected
            :: st.wrong;
        let latency = if ok then ms_of_ns (now - p.p_due) else infinity in
        st.outcomes <-
          (p.p_step, { o_kind = p.p_req.kind; o_latency_ms = latency; o_ok = ok })
          :: st.outcomes

let receiver st conns () =
  let chunk = Bytes.create 65536 in
  let fds = List.map (fun c -> c.fd) conns in
  while not (with_lock st (fun () -> st.stop)) do
    match Unix.select fds [] [] 0.05 with
    | ready, _, _ ->
      List.iter
        (fun c ->
           if List.mem c.fd ready then begin
             let n = try Unix.read c.fd chunk 0 (Bytes.length chunk) with _ -> 0 in
             if n = 0 then with_lock st (fun () -> st.stop <- true)
             else begin
               Buffer.add_subbytes c.buf chunk 0 n;
               List.iter (on_reply st) (frames c [])
             end
           end)
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* a request the daemon hung up on stays in flight and is counted as never
   answered *)
let send c rid req =
  try Pr.write_frame c.oc (Pr.encode_request { Pr.rid; req })
  with Sys_error _ | Unix.Unix_error _ -> ()

type step = {
  rate : float;
  traced : bool;
  due_times : (int * req) array;   (* offset ns from the step start, request *)
}

(* a step's schedule: Poisson arrivals at [rate] for [secs] *)
let schedule st ~serial rate secs =
  let out = ref [] and t = ref 0.0 in
  while !t < secs do
    t := !t +. (-. log (1.0 -. Random.State.float st 1.0) /. rate);
    if !t < secs then begin
      incr serial;
      out := (int_of_float (!t *. 1e9), draw st !serial) :: !out
    end
  done;
  Array.of_list (List.rev !out)

type step_result = {
  s_rate : float;
  s_sent : int;
  s_late_ms : float list;
  s_depth : float list * float list;   (* in flight, first and last third *)
}

let play st conns ~next_rid steps =
  let nconn = Array.length conns in
  List.mapi
    (fun si step ->
       let late = ref [] and first = ref [] and last = ref [] in
       let n = Array.length step.due_times in
       let start = now_ns () + 1_000_000 in
       let next_stats = ref start in
       Array.iteri
         (fun i (off, req) ->
            let due = start + off in
            (* stats sampling rides along, every 100 ms, on connection 0 *)
            if due >= !next_stats then begin
              incr next_rid;
              let rid = !next_rid in
              with_lock st (fun () -> Hashtbl.replace st.stats_inflight rid ());
              send conns.(0) rid Pr.Stats;
              next_stats := !next_stats + 100_000_000
            end;
            let wait = due - now_ns () in
            if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
            incr next_rid;
            let rid = !next_rid in
            let depth =
              with_lock st (fun () ->
                  Hashtbl.replace st.inflight rid
                    { p_req = req; p_due = due; p_step = si; p_traced = step.traced };
                  Hashtbl.length st.inflight)
            in
            late := ms_of_ns (max 0 (now_ns () - due)) :: !late;
            let req =
              match req.kind with
              | Short | Hot -> Pr.Eval { code = req.code; deadline_ms = None }
              | Compile_repeat | Compile_new ->
                Pr.Compile { code = req.code; target = "threaded"; opt = opt_level }
            in
            send conns.(rid mod nconn) rid req;
            if 3 * i < n then first := float_of_int depth :: !first
            else if 3 * i >= 2 * n then last := float_of_int depth :: !last)
         step.due_times;
       { s_rate = step.rate; s_sent = n; s_late_ms = !late;
         s_depth = (!first, !last) })
    steps

let run ~seed ~seconds ~traced =
  let tally = Tally.create () in
  let nconn = max 1 (min 2 (Domain.recommended_domain_count ())) in
  if not (Sys.file_exists ".bench_tmp") then Sys.mkdir ".bench_tmp" 0o755;
  let sock i = Printf.sprintf ".bench_tmp/wolfd-%d-%d.sock" (Unix.getpid ()) i in
  (* inputs: the schedule and every expected reply, before the daemon *)
  let st_rng = rng seed 5 in
  let serial = ref 0 in
  let warm = schedule st_rng ~serial 200.0 1.0 in
  let step_secs = seconds /. float_of_int (List.length rates) in
  let steps =
    List.map (fun rate ->
        { rate; traced; due_times = schedule st_rng ~serial rate step_secs })
      rates
  in
  (* a traced run measures the nominal rate twice: untraced, then traced *)
  let steps =
    if traced then
      { (List.hd steps) with traced = false;
        due_times = schedule st_rng ~serial (List.hd rates) step_secs }
      :: steps
    else steps
  in
  let nominal = if traced then 1 else 0 in
  let make_state () =
    { lock = Mutex.create (); inflight = Hashtbl.create 1024;
      stats_inflight = Hashtbl.create 64; outcomes = []; stats_replies = [];
      wrong = []; protocol_errors = 0; stop = false }
  in
  let open_conns d =
    Array.init nconn (fun _ ->
        match connect d.sock with
        | Some fd ->
          { fd; oc = Unix.out_channel_of_descr fd; buf = Buffer.create 4096 }
        | None -> failwith "cannot connect to wolfd")
  in
  let drain st =
    let deadline = now_ns () + 10_000_000_000 in
    while with_lock st (fun () -> Hashtbl.length st.inflight > 0 && not st.stop)
          && now_ns () < deadline do
      Unix.sleepf 0.005
    done
  in
  (* set-up: start the daemon and warm it (the hot functions promote, the
     repeat pool compiles) until it answers; three times, keeping the last *)
  let next_rid = ref 0 in
  let setup i =
    let t0 = now_ns () in
    let d = start_daemon (sock i) in
    let conns = open_conns d in
    let st = make_state () in
    let th = Thread.create (receiver st (Array.to_list conns)) () in
    ignore (play st conns ~next_rid [ { rate = 200.0; traced = false; due_times = warm } ]);
    drain st;
    (* promotions land in the background; give them until they stop *)
    Unix.sleepf 0.3;
    let dt = float_of_int (now_ns () - t0) /. 1e9 in
    (d, conns, st, th, dt)
  in
  let finish (d, conns, st, th, _) =
    with_lock st (fun () -> st.stop <- true);
    Thread.join th;
    Array.iter (fun c -> try Unix.close c.fd with _ -> ()) conns;
    stop_daemon d
  in
  let s1 = setup 1 in
  let s2 = (finish s1; setup 2) in
  let s3 = (finish s2; setup 3) in
  let setup_s = List.map (fun (_, _, _, _, dt) -> dt) [ s1; s2; s3 ] in
  let d, conns, warm_st, warm_th, _ = s3 in
  with_lock warm_st (fun () -> warm_st.stop <- true);
  Thread.join warm_th;
  let warm_wrong = warm_st.wrong in
  let st = make_state () in
  let th = Thread.create (receiver st (Array.to_list conns)) () in
  let results = play st conns ~next_rid steps in
  drain st;
  (* final counters from the daemon, then its peak memory *)
  let final_stats, final_metrics =
    match
      control d.sock (fun c ->
          (json_data (Wolf_serve.Client.stats c), json_data (Wolf_serve.Client.metrics c)))
    with
    | Some r -> r
    | None -> (J.Null, J.Null)
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  finish (d, conns, st, th, 0.0);
  (* ---- tallies ---- *)
  List.iter (fun w -> Tally.fail tally ("warm-up: " ^ w)) warm_wrong;
  let unanswered = with_lock st (fun () -> Hashtbl.length st.inflight) in
  for _ = 1 to unanswered do Tally.fail tally "request never answered" done;
  for _ = 1 to st.protocol_errors do Tally.fail tally "protocol error" done;
  List.iter
    (fun (_, o) ->
       if o.o_ok then Tally.ok tally
       else Tally.fail tally ("failed " ^ kind_name o.o_kind ^ " request"))
    st.outcomes;
  let step_outcomes si =
    List.filter_map (fun (s, o) -> if s = si then Some o else None) st.outcomes
  in
  let lat si = List.map (fun o -> o.o_latency_ms) (step_outcomes si) in
  let step_rows =
    List.mapi
      (fun si r ->
         let l = lat si in
         let p99 = Stats.quantile l 0.99 in
         let first, last = r.s_depth in
         let growing =
           Stats.mean last -. Stats.mean first > Float.max 2.0 (0.5 *. Stats.mean first)
         in
         let meets =
           p99 <= p99_limit_ms && (not growing)
           && List.length l = r.s_sent
         in
         (r, l, p99, growing, meets))
      results
  in
  let steps_untraced = if traced then List.tl step_rows else step_rows in
  let max_rps =
    List.fold_left
      (fun acc (r, _, _, _, meets) -> if meets then Float.max acc r.s_rate else acc)
      0.0 steps_untraced
  in
  let _, nom_l, _, _, _ = List.nth step_rows nominal in
  let nom_evals =
    List.filter_map
      (fun o -> if o.o_kind = Short || o.o_kind = Hot then Some o.o_latency_ms else None)
      (step_outcomes nominal)
  in
  (* the in-process interpreter on the nominal step's first 2000 evals:
     the service's overhead *)
  let direct =
    let step = List.nth steps nominal in
    Array.to_list (Array.sub step.due_times 0 (min 2000 (Array.length step.due_times)))
    |> List.filter_map (fun (_, r) ->
        match r.kind with
        | Short | Hot ->
          let t0 = now_ns () in
          ignore (Wolfram.interpret r.code);
          Some (ms_of_ns (now_ns () - t0))
        | Compile_repeat | Compile_new -> None)
  in
  let num path j =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
    |> Fun.flip Option.bind J.num |> Option.value ~default:0.0
  in
  let stats_series = List.map data_of st.stats_replies in
  let depth_max =
    List.fold_left (fun acc s -> Float.max acc (num [ "queue"; "depth" ] s)) 0.0
      stats_series
  in
  let utilization =
    Stats.mean
      (List.map (fun s ->
           num [ "queue"; "running" ] s /. Float.max 1.0 (num [ "queue"; "jobs" ] s))
          stats_series)
  in
  (* a counter of the metrics op's export, {"metrics":[{"name":…,"value":…}]} *)
  let counter name =
    Option.fold ~none:[] ~some:J.to_list (J.member "metrics" final_metrics)
    |> List.find_map (fun m ->
        if J.member "name" m = Some (J.Str name) then
          Option.bind (J.member "value" m) J.num
        else None)
    |> Option.value ~default:0.0
  in
  let late_nominal =
    let r, _, _, _, _ = List.nth step_rows nominal in
    Stats.quantile r.s_late_ms 0.99
  in
  let lookups = num [ "cache"; "lookups" ] final_stats in
  let phase name =
    [ metric (Printf.sprintf "serve.%s_p50_ms" name) "ms"
        (num [ "latency"; name; "p50_ms" ] final_stats);
      metric (Printf.sprintf "serve.%s_p99_ms" name) "ms"
        (num [ "latency"; name; "p99_ms" ] final_stats) ]
  in
  let metrics =
    [ metric ~samples:setup_s "setup_s" "s" (Stats.median setup_s);
      metric "peak_rss_mb" "MB" rss;
      metric "vs_ref_geomean" "ratio" (Stats.median nom_evals /. Stats.median direct);
      metric ~samples:nom_l "serve_p50_ms" "ms" (Stats.median nom_l) ]
    @ percentile "serve_p99_ms" "ms" nom_l 0.99
    @ [ metric "serve_max_rps" "1/s" max_rps;
        metric "serve.p99_limit_ms" "ms" p99_limit_ms ]
    @ List.concat_map
      (fun (r, l, p99, growing, meets) ->
         let m n u v = metric (Printf.sprintf "serve.rate%g.%s" r.s_rate n) u v in
         [ m "p50_ms" "ms" (Stats.median l);
           m "p99_ms" "ms" p99;
           m "late_p99_ms" "ms" (Stats.quantile r.s_late_ms 0.99);
           m "backlog_growing" "bool" (if growing then 1.0 else 0.0);
           m "meets_limit" "bool" (if meets then 1.0 else 0.0) ])
      steps_untraced
    @ (if not traced then []
       else
         List.concat_map phase
           [ "decode"; "queue_wait"; "lock_wait"; "compile"; "eval"; "encode" ]
         @ [ metric "compile_cache.hit_ratio" "ratio"
               (num [ "cache"; "hits" ] final_stats /. Float.max 1.0 lookups);
             metric "compile_cache.misses" "count" (num [ "cache"; "misses" ] final_stats);
             metric "compile_cache.inflight_waits" "count"
               (num [ "cache"; "inflight_waits" ] final_stats);
             metric "executor.utilization" "ratio" utilization;
             metric "executor.queue_depth_max" "count" depth_max;
             metric "serve.overloaded" "count" (num [ "overloaded" ] final_stats);
             metric "tier.promotions" "count" (counter "tier_promotions");
             metric "gen.late_p99_ms" "ms" late_nominal;
             (let _, untr, _, _, _ = List.nth step_rows 0 in
              metric "obs.trace_overhead" "ratio"
                (Stats.median nom_l /. Stats.median untr -. 1.0)) ])
  in
  { attempted = tally.attempted; failed = tally.failed;
    errors = List.rev st.wrong @ List.rev tally.errors; metrics }
