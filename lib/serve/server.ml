(* wolfd: the long-running compile-and-eval daemon (DESIGN.md "Service
   layer").

   One process, three kinds of actors:

   - connection threads (systhreads on the accepting domain) own the socket
     IO: they parse frames, run the cheap control operations (cancel,
     stats, metrics, shutdown) inline, and submit compile/eval work;
   - executor worker domains (lib/parallel Executor) run the submitted
     jobs: compiles in parallel — they share the in-flight-deduped compile
     cache — and evals serialized under the big kernel lock with the
     session's own Values state swapped in;
   - a deadline monitor thread turns an expired per-request deadline into
     a targeted abort of the currently-evaluating request.

   Targeted cancellation with one global abort flag: the kernel lock means
   at most one evaluation runs at a time, so the flag is unambiguous as
   long as it is only ever raised at the request that is *currently
   evaluating* ([current_eval]).  A cancel for a request that is queued, or
   claimed but still waiting for the kernel lock, only marks it — the
   runner checks the mark immediately after acquiring the lock and replies
   [cancelled] without evaluating.  When an evaluation finishes, any
   leftover request flag is cleared under [reg_mu] before the next one can
   start, so a cancel that lost the race against completion cannot leak
   into an innocent evaluation.

   Session isolation: each connection gets a fresh [Values.state]; eval
   jobs swap it in under the kernel lock and swap it back out afterwards.
   States are moved, never copied, so tensor refcounts stay balanced.  The
   compile cache, by design, is the one deliberately shared piece. *)

open Wolf_wexpr
module P = Protocol

type config = {
  socket_path : string;
  jobs : int;              (** executor worker domains *)
  queue_capacity : int;    (** bounded admission queue; beyond it: overloaded *)
  max_frame : int;         (** per-frame byte limit *)
  log : string -> unit;
  tier : bool;             (** tiered execution of [Function[…][args]] evals *)
  tier_threshold : int;    (** heat before a background -O2 promotion *)
  disk_cache_dir : string option;  (** persistent compile cache, all workers *)
  parallel_loops : bool;   (** compile with data-parallel loop recognition *)
  flight_dir : string option;      (** flight-recorder dump directory *)
  flight_threshold_ms : float;     (** slow-request dump trigger; <=0 off *)
}

let default_config ?(socket_path = "/tmp/wolfd.sock") () =
  { socket_path; jobs = 2; queue_capacity = 64;
    max_frame = P.default_max_frame; log = ignore;
    tier = false; tier_threshold = 12; disk_cache_dir = None;
    parallel_loops = false; flight_dir = None; flight_threshold_ms = 0.0 }

type rstate = Queued | Running | Evaluating | Done

type pending = {
  p_rid : int;
  p_op : string;
  p_sid : int;
  p_deadline : float option;          (* absolute, Clock.now seconds *)
  mutable p_state : rstate;
  mutable p_cancelled : bool;
  mutable p_deadline_hit : bool;
  (* request-scoped observability: frame-arrival and admission stamps plus
     the phase timeline accumulated for the flight record.  Mutated first
     by the connection thread, then by the one worker that claimed the
     job — the executor queue's mutex is the happens-before edge. *)
  p_t0_ns : int;                      (* Clock.now_ns at frame arrival *)
  mutable p_submit_ns : int;          (* admission (executor submit) *)
  mutable p_phases : Wolf_obs.Flight.phase list;  (* reverse order *)
}

type session = {
  s_id : int;
  s_values : Wolf_kernel.Values.state;
  mutable s_seeded : bool;
  s_fd : Unix.file_descr;
  s_ic : in_channel;
  s_oc : out_channel;
  s_wmu : Mutex.t;
  mutable s_alive : bool;
  s_pending : (int, pending) Hashtbl.t;   (* rid -> pending; under reg_mu *)
  mutable s_requests : int;
  (* per-session tiering state: Function-source text -> tier controller.
     Touched only while this session's eval holds the kernel lock, so no
     extra mutex; isolation mirrors [s_values] — one session's heat never
     promotes (or pollutes counters) for another. *)
  s_tier : (string, Wolfram.compiled) Hashtbl.t;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  exec : Wolf_parallel.Executor.t;
  started_at : float;
  (* registry: sessions, request states, the currently-evaluating request *)
  reg_mu : Mutex.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable current_eval : pending option;
  mutable conns : Thread.t list;
  (* lifecycle *)
  stop_mu : Mutex.t;
  stop_cond : Condition.t;
  mutable stop_requested : bool;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  mutable monitor_thread : Thread.t option;
  (* tallies (also exported as metrics) *)
  evals : int Atomic.t;
  compiles : int Atomic.t;
  cancels : int Atomic.t;
  overloaded : int Atomic.t;
  cancelled : int Atomic.t;
  deadlined : int Atomic.t;
  errors : int Atomic.t;
}

let[@inline] with_reg t f =
  Mutex.lock t.reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_mu) f

(* ---- metrics ---------------------------------------------------------- *)

let m_requests = Wolf_obs.Metrics.counter "serve_requests"
    ~help:"frames admitted for execution (eval + compile)"
let m_overloaded = Wolf_obs.Metrics.counter "serve_overloaded"
    ~help:"requests refused by admission control (queue at capacity)"
let m_cancelled = Wolf_obs.Metrics.counter "serve_cancelled"
    ~help:"requests stopped by a cancel frame or client disconnect"
let m_deadlined = Wolf_obs.Metrics.counter "serve_deadline"
    ~help:"requests stopped by their per-request deadline"
let m_seconds = Wolf_obs.Metrics.histogram "serve_request_seconds"
    ~help:"service time of executed requests (queue wait included)"

(* Per-(op, phase) latency histograms.  Finer buckets than the default:
   phase durations under the daemon's typical sub-millisecond service
   times need resolution between 10µs and 5s for p50/p99 interpolation to
   mean anything.  All series share these bounds so [quantile_sum] can
   merge across ops. *)
let serve_bounds =
  [| 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3;
     1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0 |]

(* Memoized handles: [Metrics.histogram] takes the registry's global mutex
   on every call, and the phase timeline observes up to eight series per
   request from every worker at once.  The (op, phase) space is tiny, so a
   lock-free assoc snapshot in an atomic makes the steady-state lookup a
   short list walk with no contention. *)
let phase_hists :
  ((string * string) * Wolf_obs.Metrics.histogram) list Atomic.t =
  Atomic.make []

let phase_hist ~op ~phase =
  let key = (op, phase) in
  let rec find = function
    | [] -> None
    | (k, h) :: tl -> if k = key then Some h else find tl
  in
  match find (Atomic.get phase_hists) with
  | Some h -> h
  | None ->
    let h =
      Wolf_obs.Metrics.histogram "serve_request_seconds"
        ~help:"request latency by op and phase (seconds)"
        ~labels:[ ("op", op); ("phase", phase) ] ~bounds:serve_bounds
    in
    let rec publish () =
      let cur = Atomic.get phase_hists in
      match find cur with
      | Some h' -> h'
      | None ->
        if Atomic.compare_and_set phase_hists cur ((key, h) :: cur) then h
        else publish ()
    in
    publish ()

let observe_phase ~op ~phase seconds =
  Wolf_obs.Metrics.observe (phase_hist ~op ~phase) seconds

let ns_s ns = float_of_int ns *. 1e-9

(* Append to the request's phase timeline (flight record) and the matching
   histogram in one step; the domain id pins where the phase ran. *)
let add_phase p phase start_ns dur_ns =
  p.p_phases <-
    { Wolf_obs.Flight.ph_name = phase; ph_domain = (Domain.self () :> int);
      ph_start_ns = start_ns; ph_dur_ns = dur_ns }
    :: p.p_phases;
  observe_phase ~op:p.p_op ~phase (ns_s dur_ns)

let trace_label p = Printf.sprintf "s%d.r%d" p.p_sid p.p_rid

let outcome_of = function
  | Ok _ -> "ok"
  | Error (kind, _) -> P.error_kind_name kind

(* Completed-request bookkeeping shared by every terminal path: the total
   phase histogram and the flight-recorder record (whose outcome or total
   latency may trigger a ring dump). *)
let record_flight p rsp =
  let total = Wolf_obs.Clock.now_ns () - p.p_t0_ns in
  observe_phase ~op:p.p_op ~phase:"total" (ns_s total);
  ignore
    (Wolf_obs.Flight.record
       { Wolf_obs.Flight.fr_rid = p.p_rid; fr_sid = p.p_sid;
         fr_label = trace_label p; fr_op = p.p_op;
         fr_outcome = outcome_of rsp; fr_start_ns = p.p_t0_ns;
         fr_total_ns = total; fr_phases = List.rev p.p_phases })

(* The pull-time source is (re-)registered at every [start]: the name is
   the identity, so a daemon restarted in the same process replaces the
   closure capturing the dead instance instead of erroring or leaking a
   stale sampler (see the regression in test_serve). *)
let register_sources t =
  Wolf_obs.Metrics.register_source "serve" (fun () ->
      let open Wolf_obs.Metrics in
      let xs = Wolf_parallel.Executor.stats t.exec in
      let n = with_reg t (fun () -> Hashtbl.length t.sessions) in
      let gauge name help v =
        { s_name = name; s_labels = []; s_help = help; s_kind = Gauge;
          s_value = V_int v }
      in
      [ gauge "serve_sessions" "connected client sessions" n;
        gauge "serve_queue_depth" "requests waiting in the admission queue"
          xs.Wolf_parallel.Executor.queued;
        gauge "serve_queue_running" "requests executing on a worker"
          xs.Wolf_parallel.Executor.running;
        gauge "serve_queue_capacity" "admission queue bound"
          xs.Wolf_parallel.Executor.capacity ])

(* ---- replies ---------------------------------------------------------- *)

let mark_conn_dead t sess =
  (* flip under the write mutex so no half-written frame follows *)
  Mutex.lock sess.s_wmu;
  sess.s_alive <- false;
  Mutex.unlock sess.s_wmu;
  (try Unix.shutdown sess.s_fd Unix.SHUTDOWN_ALL with _ -> ());
  ignore t

let send _t sess (resp : P.response) =
  Mutex.lock sess.s_wmu;
  let ok =
    if not sess.s_alive then false
    else
      match P.write_frame sess.s_oc (P.encode_response resp) with
      | () -> true
      | exception _ -> sess.s_alive <- false; false
  in
  Mutex.unlock sess.s_wmu;
  if not ok then
    (try Unix.shutdown sess.s_fd Unix.SHUTDOWN_ALL with _ -> ())

let micros_since t0 = int_of_float ((Wolf_obs.Clock.now () -. t0) *. 1e6)

let reply t sess ~rid ~t0 rsp =
  let micros = micros_since t0 in
  (match rsp with
   | Error (P.Overloaded, _) ->
     Atomic.incr t.overloaded; Wolf_obs.Metrics.incr m_overloaded
   | Error (P.Cancelled, _) ->
     Atomic.incr t.cancelled; Wolf_obs.Metrics.incr m_cancelled
   | Error (P.Deadline, _) ->
     Atomic.incr t.deadlined; Wolf_obs.Metrics.incr m_deadlined
   | Error _ -> Atomic.incr t.errors
   | Ok _ -> ());
  send t sess { P.rsp_id = rid; rsp; micros }

(* Terminal replies that never reach a worker (overloaded, bad-frame,
   oversize, shutting-down, duplicate rid) still deserve a trace: a
   zero-child "request" span on the connection thread whose end carries
   the outcome, so [wolfc obs-check --require-outcomes] sees every reply
   accounted for. *)
let reply_with_span t sess ~rid ~t0 ~op rsp =
  let traced = Wolf_obs.Trace.enabled () in
  if traced then
    Wolf_obs.Trace.begin_span ~cat:"serve" "request"
      ~args:
        [ ("trace_id",
           Wolf_obs.Trace.arg_str (Printf.sprintf "s%d.r%d" sess.s_id rid));
          ("op", Wolf_obs.Trace.arg_str op) ];
  reply t sess ~rid ~t0 rsp;
  if traced then
    Wolf_obs.Trace.end_span "request"
      ~args:[ ("outcome", Wolf_obs.Trace.arg_str (outcome_of rsp)) ]

(* ---- the work itself -------------------------------------------------- *)

let parse_target = function
  | "jit" -> Ok Wolfram.Jit
  | "threaded" -> Ok Wolfram.Threaded
  | "bytecode" -> Ok Wolfram.Bytecode
  | s -> Error (Printf.sprintf "unknown target %S (jit, threaded, bytecode)" s)

let run_compile ~code ~target ~opt ~parallel_loops =
  match parse_target target with
  | Error e -> Error (P.Compile_failed, e)
  | Ok tgt ->
    (match Parser.parse_opt code with
     | Error e -> Error (P.Parse_error, e)
     | Ok fexpr ->
       let options =
         { Wolf_compiler.Options.default with opt_level = opt; parallel_loops }
       in
       (* the fixed name keeps the cache key a function of (source, options,
          target) alone, so identical programs from different sessions
          share one entry and in-flight compiles dedup across clients *)
       (match Wolfram.function_compile ~options ~target:tgt ~name:"Serve" fexpr with
        | cf ->
          let summary =
            match cf with
            | Wolfram.Native { pipeline = Some c; _ } ->
              Printf.sprintf "ok: %d instrs, %d blocks"
                (Wolf_compiler.Pass_manager.instr_count c.Wolf_compiler.Pipeline.program)
                (Wolf_compiler.Pass_manager.block_count c.Wolf_compiler.Pipeline.program)
            | Wolfram.Native { pipeline = None; _ } -> "ok: revived from disk cache"
            | Wolfram.Wvm _ -> "ok: bytecode"
            | Wolfram.Tiered _ -> "ok: tiered"
          in
          Ok (P.Text summary)
        | exception Wolf_base.Errors.Compile_error e -> Error (P.Compile_failed, e)
        | exception Wolf_base.Errors.Eval_error e -> Error (P.Compile_failed, e)
        | exception exn -> Error (P.Compile_failed, Printexc.to_string exn)))

let deadline_passed p =
  match p.p_deadline with
  | Some d -> Wolf_obs.Clock.now () > d
  | None -> false

(* ---- tiered evaluation (opt-in, [config.tier]) ------------------------- *)

(* Only a literal argument can be handed to a (possibly already promoted)
   compiled closure unevaluated; anything symbolic must go through the
   interpreter so the usual evaluation order applies. *)
let rec literal_arg (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Real _ | Expr.Str _ | Expr.Big _ | Expr.Tensor _ -> true
  | Expr.Normal (Expr.Sym h, args) when h == Expr.Sy.list ->
    Array.for_all literal_arg args
  | Expr.Sym _ | Expr.Normal _ -> false

let m_tier_intercepts = Wolf_obs.Metrics.counter "serve_tier_intercepts"
    ~help:"evals routed through a per-session tier controller"

(* [Function[…][literals]] routed through the session's tier table: the
   first evals interpret (tier 0), the hot ones trigger a background -O2
   compile, later evals of the same Function call the promoted closure.
   Anything else — or a tier-disabled daemon — takes the plain kernel
   path.  The tier instances are deliberately per-session and uncached
   ([Wolfram.tiered]), mirroring value isolation. *)
let eval_expr t sess (expr : Expr.t) =
  if not t.cfg.tier then Wolf_kernel.Eval.eval expr
  else
    match expr with
    | Expr.Normal ((Expr.Normal (Expr.Sym h, _) as f), args)
      when h == Expr.Sy.function_ && Array.for_all literal_arg args ->
      let cf =
        let key = Expr.to_string f in
        match Hashtbl.find_opt sess.s_tier key with
        | Some cf -> cf
        | None ->
          (* heat is per-session, but the promoted compile itself goes
             through the shared caches under the fixed "Serve" name, so two
             sessions promoting the same Function dedup into one compile *)
          let cf =
            Wolfram.tiered
              ~options:
                { Wolf_compiler.Options.default with
                  parallel_loops = t.cfg.parallel_loops }
              ~threshold:t.cfg.tier_threshold ~name:"Serve" f
          in
          Hashtbl.replace sess.s_tier key cf;
          cf
      in
      Wolf_obs.Metrics.incr m_tier_intercepts;
      Wolfram.call cf (Array.to_list args)
    | _ -> Wolf_kernel.Eval.eval expr

(* Evaluate [code] in [sess]'s own kernel state.  Runs on a worker domain.
   The whole install/evaluate/restore window sits under the big kernel
   lock, so no other evaluation — daemon or in-process — can observe the
   session's state, and the state swap cannot tear. *)
let run_eval t sess p code =
  let lock_t0 = Wolf_obs.Clock.now_ns () in
  Wolf_base.Kernel_lock.with_lock @@ fun () ->
  (* the lock acquisition span itself comes from Kernel_lock (cat "lock");
     here we only attribute the wait to this request's timeline *)
  add_phase p "lock_wait" lock_t0 (Wolf_obs.Clock.now_ns () - lock_t0);
  let proceed =
    with_reg t (fun () ->
        if p.p_cancelled then `Cancelled
        else if deadline_passed p then `Deadline
        else begin
          p.p_state <- Evaluating;
          t.current_eval <- Some p;
          `Go
        end)
  in
  match proceed with
  | `Cancelled -> Error (P.Cancelled, "cancelled before evaluation")
  | `Deadline -> Error (P.Deadline, "deadline expired while queued")
  | `Go ->
    let prev = Wolf_kernel.Values.swap_state sess.s_values in
    let finish () =
      ignore (Wolf_kernel.Values.swap_state prev);
      with_reg t (fun () ->
          t.current_eval <- None;
          p.p_state <- Done;
          (* a cancel/deadline/Abort[] that fired is fully consumed here:
             the flag must not leak into the next evaluation *)
          if Wolf_base.Abort_signal.requested () then
            Wolf_base.Abort_signal.clear ())
    in
    Fun.protect ~finally:finish @@ fun () ->
    if not sess.s_seeded then begin
      Wolf_kernel.Session.seed_constants ();
      sess.s_seeded <- true
    end;
    let eval_t0 = Wolf_obs.Clock.now_ns () in
    (* the phase must land even when the eval is shot mid-flight (cancel,
       deadline): the protect below still runs before the span closes *)
    Fun.protect
      ~finally:(fun () ->
          add_phase p "eval" eval_t0 (Wolf_obs.Clock.now_ns () - eval_t0))
    @@ fun () ->
    Wolf_obs.Trace.with_span ~cat:"serve" "eval"
      ~args:(Wolf_obs.Request_ctx.args_of_current ())
    @@ fun () ->
    (match Parser.parse_opt code with
     | Error e -> Error (P.Parse_error, e)
     | Ok expr ->
       (match eval_expr t sess expr with
        | v -> Ok (P.Text (Form.input_form v))
        | exception Wolf_base.Abort_signal.Aborted ->
          (* who pulled the trigger decides the reply *)
          let cause =
            with_reg t (fun () ->
                if p.p_cancelled then `Cancel
                else if p.p_deadline_hit then `Deadline
                else `Program)
          in
          (match cause with
           | `Cancel -> Error (P.Cancelled, "evaluation aborted by cancel")
           | `Deadline -> Error (P.Deadline, "evaluation aborted at deadline")
           | `Program ->
             (* the program itself called Abort[]: notebook semantics *)
             Ok (P.Text "$Aborted"))
        | exception Wolf_base.Errors.Runtime_error f ->
          Error (P.Eval_failed, Wolf_base.Errors.describe_failure f)
        | exception Wolf_base.Errors.Eval_error e -> Error (P.Eval_failed, e)
        | exception Wolf_base.Errors.Compile_error e ->
          Error (P.Compile_failed, e)
        | exception exn -> Error (P.Eval_failed, Printexc.to_string exn)))

let job t sess p ~t0 work =
  let start_ns = Wolf_obs.Clock.now_ns () in
  (* queue wait = admission → job start.  It belongs to no track's call
     stack (the request was nowhere while queued), so it is attributed by
     the flow-event gap plus this phase entry and an instant marker, not a
     retroactive span. *)
  add_phase p "queue_wait" p.p_submit_ns (start_ns - p.p_submit_ns);
  let traced = Wolf_obs.Trace.enabled () in
  if traced then begin
    (* the ambient context was restored by [adopt]; its trace_id arg is
       pre-encoded, so labelling here costs two small list cells *)
    let targs = Wolf_obs.Request_ctx.args_of_current () in
    Wolf_obs.Trace.begin_span ~cat:"serve" "request"
      ~args:(("op", Wolf_obs.Trace.arg_str p.p_op) :: targs);
    Wolf_obs.Trace.instant ~cat:"serve" "queue-wait"
      ~args:
        (("micros", Wolf_obs.Trace.arg_int ((start_ns - p.p_submit_ns) / 1000))
         :: targs)
  end;
  let outcome = ref "ok" in
  let rsp =
    Fun.protect
      ~finally:(fun () ->
          if traced then
            Wolf_obs.Trace.end_span "request"
              ~args:[ ("outcome", Wolf_obs.Trace.arg_str !outcome) ])
    @@ fun () ->
    let claim =
      with_reg t (fun () ->
          if p.p_cancelled then `Cancelled
          else if deadline_passed p then `Deadline
          else begin p.p_state <- Running; `Go end)
    in
    let rsp =
      match claim with
      | `Cancelled -> Error (P.Cancelled, "cancelled while queued")
      | `Deadline -> Error (P.Deadline, "deadline expired while queued")
      | `Go ->
        let work_t0 = Wolf_obs.Clock.now_ns () in
        let r = work () in
        (* eval phases (lock wait, eval) are recorded inside run_eval;
           compile is opaque from here, so time it as one phase *)
        if p.p_op = "compile" then
          add_phase p "compile" work_t0 (Wolf_obs.Clock.now_ns () - work_t0);
        r
    in
    (match claim with
     | `Go -> Wolf_obs.Metrics.observe m_seconds (Wolf_obs.Clock.now () -. t0)
     | _ -> ());
    outcome := outcome_of rsp;
    with_reg t (fun () ->
        p.p_state <- Done;
        Hashtbl.remove sess.s_pending p.p_rid);
    let enc_t0 = Wolf_obs.Clock.now_ns () in
    Wolf_obs.Trace.with_span ~cat:"serve" "encode" (fun () ->
        reply t sess ~rid:p.p_rid ~t0 rsp);
    add_phase p "encode" enc_t0 (Wolf_obs.Clock.now_ns () - enc_t0);
    rsp
  in
  record_flight p rsp

(* ---- control operations (inline on the connection thread) ------------- *)

let cache_json () =
  let s = Wolfram.compile_cache_stats () in
  Printf.sprintf
    "{\"lookups\":%d,\"hits\":%d,\"misses\":%d,\"inflight_waits\":%d,\
     \"evictions\":%d,\"entries\":%d,\"bytes\":%d}"
    s.Wolf_compiler.Compile_cache.lookups s.hits s.misses s.waits s.evictions
    s.entries s.bytes

(* p50/p99 per phase read back from the (op, phase) histograms; phases
   that both ops share are merged with [quantile_sum].  Milliseconds, like
   the bench report. *)
let latency_json () =
  let find op phase =
    Wolf_obs.Metrics.find_histogram "serve_request_seconds"
      ~labels:[ ("op", op); ("phase", phase) ]
  in
  let quant hs q =
    match hs with
    | [] -> 0.0
    | hs -> Wolf_obs.Metrics.quantile_sum hs q *. 1e3
  in
  let entry name hs =
    Printf.sprintf "\"%s\":{\"p50_ms\":%.3f,\"p99_ms\":%.3f}"
      name (quant hs 0.5) (quant hs 0.99)
  in
  let merged phase =
    List.filter_map (fun op -> find op phase) [ "eval"; "compile" ]
  in
  let solo op phase = Option.to_list (find op phase) in
  "{"
  ^ String.concat ","
      [ entry "total" (merged "total");
        entry "decode" (merged "decode");
        entry "queue_wait" (merged "queue_wait");
        entry "lock_wait" (solo "eval" "lock_wait");
        entry "eval" (solo "eval" "eval");
        entry "compile" (solo "compile" "compile");
        entry "encode" (merged "encode") ]
  ^ "}"

let stats_json t =
  let xs = Wolf_parallel.Executor.stats t.exec in
  let sessions = with_reg t (fun () -> Hashtbl.length t.sessions) in
  let fl_records, fl_dumps, fl_suppressed, fl_failed = Wolf_obs.Flight.stats () in
  Printf.sprintf
    "{\"sessions\":%d,\"uptime_seconds\":%.3f,\
     \"evals\":%d,\"compiles\":%d,\"cancels\":%d,\
     \"overloaded\":%d,\"cancelled\":%d,\"deadline\":%d,\"errors\":%d,\
     \"queue\":{\"depth\":%d,\"running\":%d,\"capacity\":%d,\"jobs\":%d,\
     \"executed\":%d,\"crashed\":%d},\
     \"latency\":%s,\
     \"flight\":{\"records\":%d,\"dumps\":%d,\"suppressed\":%d,\"failed\":%d},\
     \"cache\":%s}"
    sessions
    (Wolf_obs.Clock.now () -. t.started_at)
    (Atomic.get t.evals) (Atomic.get t.compiles) (Atomic.get t.cancels)
    (Atomic.get t.overloaded) (Atomic.get t.cancelled)
    (Atomic.get t.deadlined) (Atomic.get t.errors)
    xs.Wolf_parallel.Executor.queued xs.running xs.capacity xs.jobs
    xs.executed xs.crashed
    (latency_json ())
    fl_records fl_dumps fl_suppressed fl_failed
    (cache_json ())

let handle_cancel t sess ~target =
  Atomic.incr t.cancels;
  with_reg t (fun () ->
      match Hashtbl.find_opt sess.s_pending target with
      | None -> "finished"
      | Some p ->
        (match p.p_state with
         | Done -> "finished"
         | Queued | Running ->
           p.p_cancelled <- true;
           "cancelling"
         | Evaluating ->
           p.p_cancelled <- true;
           (* only the currently-evaluating request may be shot: the kernel
              lock guarantees it is the one the flag will reach *)
           (match t.current_eval with
            | Some q when q == p -> Wolf_base.Abort_signal.request ()
            | _ -> ());
           "cancelling"))

let request_stop t =
  Mutex.lock t.stop_mu;
  let first = not t.stop_requested in
  t.stop_requested <- true;
  Condition.broadcast t.stop_cond;
  Mutex.unlock t.stop_mu;
  first

(* ---- connection loop --------------------------------------------------- *)

let disconnect t sess =
  let shoot =
    with_reg t (fun () ->
        if Hashtbl.mem t.sessions sess.s_id then begin
          Hashtbl.remove t.sessions sess.s_id;
          (* release every queue slot the session still holds: queued jobs
             are marked cancelled (workers skip them in O(1)) and a running
             evaluation is aborted *)
          Hashtbl.iter
            (fun _ p -> if p.p_state <> Done then p.p_cancelled <- true)
            sess.s_pending;
          match t.current_eval with
          | Some p when p.p_sid = sess.s_id -> true
          | _ -> false
        end
        else false)
  in
  if shoot then Wolf_base.Abort_signal.request ();
  mark_conn_dead t sess

let handle_request t sess ~t0 ~t0_ns ~decode_ns { P.rid; req } =
  match req with
  | P.Stats -> reply t sess ~rid ~t0 (Ok (P.Json (stats_json t)))
  | P.Metrics `Json -> reply t sess ~rid ~t0 (Ok (P.Json (Wolf_obs.Metrics.to_json ())))
  | P.Metrics `Prometheus ->
    reply t sess ~rid ~t0 (Ok (P.Text (Wolf_obs.Metrics.to_prometheus ())))
  | P.Cancel { target } ->
    reply t sess ~rid ~t0 (Ok (P.Text (handle_cancel t sess ~target)))
  | P.Dump_flight ->
    let path, records = Wolf_obs.Flight.dump ~reason:"manual" () in
    let path_json =
      match path with
      | None -> "null"
      | Some s -> "\"" ^ Wolf_obs.Json_min.escape s ^ "\""
    in
    reply t sess ~rid ~t0
      (Ok (P.Json (Printf.sprintf "{\"path\":%s,\"records\":%d}" path_json records)))
  | P.Shutdown ->
    t.cfg.log (Printf.sprintf "session %d requested shutdown" sess.s_id);
    reply t sess ~rid ~t0 (Ok (P.Text "stopping"));
    ignore (request_stop t)
  | P.Eval _ | P.Compile _ ->
    let op, deadline_ms =
      match req with
      | P.Eval { deadline_ms; _ } -> "eval", deadline_ms
      | _ -> "compile", None
    in
    let stopping =
      Mutex.lock t.stop_mu;
      let s = t.stop_requested in
      Mutex.unlock t.stop_mu;
      s
    in
    if stopping then
      reply_with_span t sess ~rid ~t0 ~op
        (Error (P.Shutting_down, "daemon is shutting down"))
    else begin
      let p =
        { p_rid = rid; p_op = op; p_sid = sess.s_id;
          p_deadline =
            Option.map (fun ms -> t0 +. float_of_int ms /. 1e3) deadline_ms;
          p_state = Queued; p_cancelled = false; p_deadline_hit = false;
          p_t0_ns = t0_ns; p_submit_ns = t0_ns; p_phases = [] }
      in
      add_phase p "decode" t0_ns decode_ns;
      let fresh =
        with_reg t (fun () ->
            if Hashtbl.mem sess.s_pending rid then false
            else begin
              Hashtbl.replace sess.s_pending rid p;
              sess.s_requests <- sess.s_requests + 1;
              true
            end)
      in
      if not fresh then
        reply_with_span t sess ~rid ~t0 ~op
          (Error (P.Bad_frame, Printf.sprintf "request id %d already in flight" rid))
      else begin
        let work () =
          match req with
          | P.Eval { code; _ } ->
            Atomic.incr t.evals;
            run_eval t sess p code
          | P.Compile { code; target; opt } ->
            Atomic.incr t.compiles;
            run_compile ~code ~target ~opt
              ~parallel_loops:t.cfg.parallel_loops
          | _ -> assert false
        in
        (* The admit span is the flow-start's anchor on the accept track:
           the worker's request span carries the matching flow-finish, so
           the queue wait renders as the arrow's gap.  The context is
           passed explicitly — DLS on this domain is shared by every
           connection thread and cannot be trusted as an ambient slot. *)
        let ctx = Wolf_obs.Request_ctx.make ~rid ~label:(trace_label p) in
        let admit_args =
          if Wolf_obs.Trace.enabled () then
            ("op", Wolf_obs.Trace.arg_str op)
            :: Wolf_obs.Request_ctx.span_args ctx
          else []
        in
        let submitted =
          Wolf_obs.Trace.with_span ~cat:"serve" "admit" ~args:admit_args
          @@ fun () ->
          let cap = Wolf_obs.Request_ctx.capture_of ctx in
          p.p_submit_ns <- Wolf_obs.Clock.now_ns ();
          Wolf_parallel.Executor.submit t.exec (fun () ->
              Wolf_obs.Request_ctx.adopt cap (fun () -> job t sess p ~t0 work))
        in
        match submitted with
        | `Accepted -> Wolf_obs.Metrics.incr m_requests
        | `Saturated ->
          with_reg t (fun () -> Hashtbl.remove sess.s_pending rid);
          let xs = Wolf_parallel.Executor.stats t.exec in
          let rsp =
            Error
              (P.Overloaded,
               Printf.sprintf "queue full (%d waiting, capacity %d)"
                 xs.Wolf_parallel.Executor.queued xs.capacity)
          in
          reply_with_span t sess ~rid ~t0 ~op rsp;
          record_flight p rsp
        | `Stopped ->
          with_reg t (fun () -> Hashtbl.remove sess.s_pending rid);
          let rsp = Error (P.Shutting_down, "daemon is shutting down") in
          reply_with_span t sess ~rid ~t0 ~op rsp;
          record_flight p rsp
      end
    end

let conn_loop t sess =
  let continue = ref true in
  while !continue do
    match P.read_frame ~max_frame:t.cfg.max_frame sess.s_ic with
    | Error `Eof -> continue := false
    | Error (`Oversize n) ->
      reply_with_span t sess ~rid:0 ~t0:(Wolf_obs.Clock.now ()) ~op:"frame"
        (Error
           (P.Oversize,
            Printf.sprintf "frame of %d bytes exceeds limit %d" n t.cfg.max_frame));
      (* the stream can no longer be trusted; drop the connection *)
      continue := false
    | Ok payload ->
      let t0 = Wolf_obs.Clock.now () in
      let t0_ns = Wolf_obs.Clock.now_ns () in
      let decoded =
        Wolf_obs.Trace.with_span ~cat:"serve" "decode" (fun () ->
            P.decode_request payload)
      in
      let decode_ns = Wolf_obs.Clock.now_ns () - t0_ns in
      (match decoded with
       | Error e ->
         reply_with_span t sess ~rid:0 ~t0 ~op:"frame" (Error (P.Bad_frame, e))
       | Ok frame -> handle_request t sess ~t0 ~t0_ns ~decode_ns frame)
  done;
  disconnect t sess;
  t.cfg.log (Printf.sprintf "session %d disconnected" sess.s_id);
  (try close_out_noerr sess.s_oc with _ -> ());
  (try close_in_noerr sess.s_ic with _ -> ())

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> continue := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | fd, _ ->
      let stopping =
        Mutex.lock t.stop_mu;
        let s = t.stop_requested in
        Mutex.unlock t.stop_mu;
        s
      in
      if stopping then begin
        (try Unix.close fd with _ -> ());
        continue := false
      end
      else begin
        let sess =
          { s_id = 0; s_values = Wolf_kernel.Values.fresh_state ();
            s_seeded = false; s_fd = fd;
            s_ic = Unix.in_channel_of_descr fd;
            s_oc = Unix.out_channel_of_descr fd;
            s_wmu = Mutex.create (); s_alive = true;
            s_pending = Hashtbl.create 8; s_requests = 0;
            s_tier = Hashtbl.create 4 }
        in
        let sess =
          with_reg t (fun () ->
              t.next_sid <- t.next_sid + 1;
              let sess = { sess with s_id = t.next_sid } in
              Hashtbl.replace t.sessions sess.s_id sess;
              sess)
        in
        t.cfg.log (Printf.sprintf "session %d connected" sess.s_id);
        let th = Thread.create (fun () -> conn_loop t sess) () in
        with_reg t (fun () -> t.conns <- th :: t.conns)
      end
  done

let monitor_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.stop_mu;
    let stopping = t.stop_requested in
    Mutex.unlock t.stop_mu;
    if stopping then continue := false
    else begin
      with_reg t (fun () ->
          match t.current_eval with
          | Some p
            when (not p.p_deadline_hit) && (not p.p_cancelled)
                 && deadline_passed p ->
            p.p_deadline_hit <- true;
            Wolf_base.Abort_signal.request ()
          | _ -> ());
      Thread.delay 0.005
    end
  done

(* ---- lifecycle -------------------------------------------------------- *)

let start cfg =
  Wolfram.init ();
  (* one persistent cache shared by every worker domain and session; the
     store's flock also coordinates separate wolfd processes on the dir *)
  (match cfg.disk_cache_dir with
   | Some dir ->
     (match Wolf_compiler.Disk_cache.open_dir dir with
      | dc -> Wolfram.set_disk_cache (Some dc)
      | exception exn ->
        cfg.log
          (Printf.sprintf "wolfd: disk cache %s unavailable (%s)" dir
             (Printexc.to_string exn)))
   | None -> ());
  (* flight recorder is process-global state, like the metrics registry:
     the daemon configures it at start (and a later daemon in the same
     process reconfigures it — last one wins, mirroring register_source) *)
  Wolf_obs.Flight.set_dir cfg.flight_dir;
  Wolf_obs.Flight.set_threshold_ms cfg.flight_threshold_ms;
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> () | exception _ -> ());
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let t =
    { cfg; listen_fd;
      (* the daemon's own executor, not the batch pool: its queue bound
         is the admission-control signal — a full queue answers
         "overloaded" — and batch helpers must not count against it *)
      exec =
        Wolf_parallel.Executor.create ~capacity:cfg.queue_capacity
          ~jobs:cfg.jobs ();
      started_at = Wolf_obs.Clock.now ();
      reg_mu = Mutex.create (); sessions = Hashtbl.create 16; next_sid = 0;
      current_eval = None; conns = [];
      stop_mu = Mutex.create (); stop_cond = Condition.create ();
      stop_requested = false; stopped = false;
      accept_thread = None; monitor_thread = None;
      evals = Atomic.make 0; compiles = Atomic.make 0;
      cancels = Atomic.make 0; overloaded = Atomic.make 0;
      cancelled = Atomic.make 0; deadlined = Atomic.make 0;
      errors = Atomic.make 0 }
  in
  register_sources t;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.monitor_thread <- Some (Thread.create (fun () -> monitor_loop t) ());
  t.cfg.log (Printf.sprintf "wolfd listening on %s (%d worker domain(s), queue %d)"
               cfg.socket_path cfg.jobs cfg.queue_capacity);
  t

let wait t =
  Mutex.lock t.stop_mu;
  while not t.stop_requested do
    Condition.wait t.stop_cond t.stop_mu
  done;
  Mutex.unlock t.stop_mu

let stop t =
  let proceed =
    Mutex.lock t.stop_mu;
    let p = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.stop_mu;
    p
  in
  if proceed then begin
    ignore (request_stop t);
    (* wake the accept thread with a throwaway self-connection *)
    (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
     | fd ->
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path) with _ -> ());
       (try Unix.close fd with _ -> ())
     | exception _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (match t.monitor_thread with Some th -> Thread.join th | None -> ());
    (* let claimed jobs finish and reply, then take the workers down;
       replies to already-gone clients fail silently *)
    Wolf_parallel.Executor.quiesce t.exec;
    Wolf_parallel.Executor.shutdown t.exec;
    (* hang up every session; connection threads see EOF and reap *)
    let sessions = with_reg t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []) in
    List.iter (fun s -> mark_conn_dead t s) sessions;
    let conns = with_reg t (fun () -> t.conns) in
    List.iter Thread.join conns;
    (try Unix.close t.listen_fd with _ -> ());
    if Sys.file_exists t.cfg.socket_path then
      (try Sys.remove t.cfg.socket_path with _ -> ());
    t.cfg.log "wolfd stopped"
  end

let session_count t = with_reg t (fun () -> Hashtbl.length t.sessions)

let executor_stats t = Wolf_parallel.Executor.stats t.exec
