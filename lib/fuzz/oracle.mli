(** Differential oracle: the interpreter is ground truth; every backend at
    every optimisation level must agree with it (up to a relative numeric
    tolerance), and under injected aborts a compiled call may only return
    the agreed value or raise {!Wolf_base.Abort_signal.Aborted}. *)

type outcome =
  | Value of Wolf_wexpr.Expr.t
  | Aborted
  | Failed of string
  (** Two [Failed] outcomes always agree: the failure path is the soft
      fallback (F2) re-raising through the interpreter, and the exact
      message depends on the backend's entry point. *)

type backend = Threaded | Jit | Wvm | C | Binary | Serve | Tier | Par

val backend_name : backend -> string
val backends_of_string : string -> (backend list, string) result
(** Parse a comma-separated [--backends] value:
    threaded,jit,wvm,c,binary,serve,tier,par.  The [Binary] arm is the
    [wolfc build] product end to end: [C_emit.emit_standalone] +
    [C_build.build], then the executable is spawned with the arguments on
    its command line (strings as raw bytes, everything else in InputForm),
    so the run-time argument parsers and the exit-code protocol are inside
    the tested surface; exit 5 maps to [Aborted], other non-zero exits to
    [Failed] — except a clean runtime panic (exit 3/4), which is accepted
    iff the same compiled program also raises on the in-process native
    backend: a shipped binary carries no interpreter, so it cannot revert
    to uncompiled evaluation the way [Wolfram.call]'s CompiledCodeFunction
    fallback does, and that divergence from the interpreter reference is
    by design (the [C] arm applies the same rule).  The [Tier] arm runs each program
    through a fresh tier controller (threshold 1, promotion via the
    threaded backend): the tier-0 call, the promotion hand-off and the
    promoted call must all agree with the reference; with abort injection
    on, an [Abort[]] is also raced against the background promotion.
    The [Par] arm compiles with [parallel_loops] on and calls under
    jobs=1, jobs=4 (measured schedules) and jobs=4 with forced dynamic
    chunking — all must agree with the reference — and replays the
    injected-abort membership property under forced chunking, so a
    mid-loop abort must kill every chunk worker. *)

val serve_socket : string option ref
(** Socket path of the [wolfd] daemon the [Serve] arm replays through.
    {!Driver.run} sets it when it bootstraps an embedded daemon; point it at
    a running daemon to fuzz an external process.  The serve arm is exact:
    the daemon's printed reply must be byte-identical to the reference's
    InputForm (same interpreter on both sides — the protocol, session
    swapping and executor are what is under test). *)

type failure = {
  fwhere : string;   (** e.g. ["threaded/O2"], ["wvm"], ["abort/threaded/k=5"] *)
  fexpected : string;
  fgot : string;
}

val outcome_str : outcome -> string
val agree : outcome -> outcome -> bool

val reference : Ast.case -> outcome
(** Interpreter run of [fn[args]]. *)

val reset_par_stats : unit -> unit
val par_stats : unit -> int * int
(** [(programs, loops)] where the [Par] arm's compile actually
    parallelised at least one loop (read from the pipeline's ["parloop."]
    pass decisions), accumulated across every check since the last
    {!reset_par_stats}.  A par campaign uses this to assert the pass fired
    rather than silently rejecting every loop. *)

val check_parsed :
  ?backends:backend list -> ?levels:int list -> ?abort:bool ->
  wvm_ok:bool -> c_ok:bool -> ?binary_ok:bool ->
  ?jit_compile:
    (Wolf_compiler.Pipeline.compiled ->
     (Wolf_runtime.Rtval.closure, string) result) ->
  Wolf_wexpr.Expr.t -> Wolf_wexpr.Expr.t array -> failure list
(** Differential check of an already-parsed [Function[...]] applied to
    [args] — the corpus-replay entry point.  [abort] (default true) also
    runs the abort-injection property; it is sound for any program since
    compiled prologues poll the abort flag.  [binary_ok] (default false)
    gates the [Binary] arm: the program must have a non-string result and
    only parameter shapes the standalone driver can parse from argv.
    The [Jit] arm compiles through [Pipeline.compile] and [jit_compile]
    (default {!Wolf_backends.Jit.compile}) with no threaded fallback; an
    [Error] is a failure carrying the ocamlopt diagnostic, and the arm is
    skipped, with a message on stderr, when {!Wolf_backends.Jit.available}
    is false. *)

val check_case :
  ?backends:backend list -> ?levels:int list -> ?abort:bool -> Ast.case ->
  failure list
(** Run the case differentially.  Defaults: threaded + WVM (JIT and C shell
    out to a toolchain per program), levels [[0;1;2]], abort injection on
    for programs with loops.  WVM is skipped for programs that use strings
    (not WVM-representable) and C for programs with non-scalar parameters
    or results.  Every compile runs with [verify_each] on and the cache
    off; a verifier or compile failure is reported as a [failure]. *)
