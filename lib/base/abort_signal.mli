(** User-abort signalling (objective F3).

    The Wolfram Notebook lets the user abort a running evaluation without
    killing the session.  The interpreter polls this flag between rewrite
    steps; compiled code polls it at loop headers and function prologues
    (inserted by {!Wolf_compiler.Abort_pass}).

    Threading model: the request flag is one cross-domain [Atomic.t] —
    {!request} from any domain is observed by the next {!check} on every
    domain, never lost or torn.  The {!abort_after}/{!checks_performed}
    machinery exists only for tests and ablations and is domain-local
    (see below).

    Compiled code reads the {!pending} poll word inline and calls {!check}
    only while it is nonzero; the poll never writes memory, so domains
    polling the same loop share no written cache line. *)

exception Aborted

val pending : int Atomic.t
(** The poll word; read-only outside this module.  Nonzero while an abort
    is requested, some domain has an {!abort_after} injection armed or
    unwinding, or {!Wolf_obs.Profile} is on — otherwise {!check} would
    neither raise nor count anything observable.  Once the writers stop
    racing it returns to 0 after {!clear} with profiling off.  A domain
    that exits armed leaves its unit set, sending compiled code down the
    (still correct) slow path. *)

val request : unit -> unit
(** Ask every running evaluation, on any domain, to stop at its next abort
    check.  Safe to call from a different domain than the one evaluating. *)

val clear : unit -> unit
(** Clear the global request flag and this domain's injected-abort state. *)

val requested : unit -> bool

val check : unit -> unit
(** @raise Aborted if an abort was requested (the request stays set so nested
    evaluations unwind; the session clears it when it regains control). *)

(** {2 Test hooks — domain-local}

    These exist only for tests and the abort-overhead ablation.  Each domain
    has its own poll counter and injection trigger: scheduling an injected
    abort or calling [reset_stats] on one domain can never race with, abort,
    or skew the counts of a compiled function polling on another domain.
    A real cross-domain abort is delivered via {!request} only. *)

val checks_performed : unit -> int
(** Number of [check] calls on the calling domain since its last
    [reset_stats]; used by tests and the abort-overhead ablation to observe
    where checks were inserted.  It counts [check] calls, which compiled
    code reaches only while {!pending} is nonzero (the interpreter calls
    [check] at every step). *)

val reset_stats : unit -> unit
(** Zero the calling domain's poll counter. *)

val abort_after : int -> unit
(** Test hook: arrange for the [n]-th subsequent check {e on the calling
    domain} to raise, simulating a user pressing interrupt mid-evaluation.
    The injected abort is confined to the scheduling domain; arming it
    holds {!pending} nonzero until this domain's {!clear}. *)

val with_abort_protection : (unit -> 'a) -> ('a, exn) result
(** Run a thunk, catching [Aborted] (and clearing the flag), so a session can
    return to its prompt with its state intact. *)
