(** Batch pool: shard independent tasks across the calling domain and
    helpers from one shared {!Executor}, with deterministic merge order.

    The work queue is an atomic cursor over task indices (every index
    claimed exactly once, idle domains steal remaining work); results
    accumulate into per-index slots, so output order equals task order —
    the same answer at every [jobs], only faster.  Used by
    [wolfc fuzz --jobs], [wolfc compile --jobs], [bench fig2 --jobs] and
    the parallel-loop runtime. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val iter : ?poll:(unit -> unit) -> jobs:int -> int -> (int -> unit) -> unit
(** [iter ~jobs n body] runs [body 0 … body (n-1)].  With [jobs <= 1] or
    [n <= 1] they run in ascending order on the caller.  Otherwise up to
    [jobs - 1] helpers are submitted to the shared executor, best effort,
    while the caller claims indices itself, calling [poll] before each one;
    the caller then waits only for indices a helper already claimed.  An
    index above the lowest failing index seen so far is skipped, every
    index below it runs; [Wolf_base.Abort_signal.Aborted] is re-raised in
    preference to any other exception, otherwise the exception of the
    lowest failing index, which is the serial first failure. *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [Array.init n f] computed with {!iter}. *)

val map_list : jobs:int -> 'a list -> ('a -> 'b) -> 'b list
(** List version of {!map}; result order matches input order. *)

val shutdown : unit -> unit
(** Join the shared executor's workers, so a process that goes on serially
    after its batches (bench fig2 [--jobs] times every call on one domain)
    is single-domain again; the next batch creates a new executor.  Call
    only when no batch is running. *)

val with_executor : Executor.t -> (unit -> 'a) -> 'a
(** Test hook: run [f] with [e] standing in for the shared executor,
    ungrown (tests inject a saturated one to prove batches degrade to
    serial instead of deadlocking). *)
