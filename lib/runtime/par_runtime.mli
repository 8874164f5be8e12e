(** Chunked parallel-for runtime behind {!Wolf_compiler.Opt_parloop}'s
    [parallel_for_map] / [parallel_reduce] primitives: cuts [lo..hi] into
    chunks, runs them on the batch pool (the caller always claims
    chunks itself, so saturation degrades to serial instead of deadlocking),
    merges per-chunk results deterministically, and picks the chunking by
    measurement, cached per (loop fingerprint, trip-count shape class,
    jobs). *)

type schedule = Serial | Static of int | Dynamic of int
(** [Static k]/[Dynamic k] = [k] contiguous chunks claimed from an atomic
    cursor; static uses one chunk per worker, dynamic oversubscribes. *)

val schedule_to_string : schedule -> string

val set_jobs : int -> unit
(** Process-wide default worker count (clamped to [>= 1]; 1 = serial). *)

val current_jobs : unit -> int

val with_jobs : int -> (unit -> 'a) -> 'a
(** Domain-local override, for comparing jobs settings inside one process
    (the fuzz oracle's jobs∈{1,4} equality check). *)

val with_forced_schedule : schedule -> (unit -> 'a) -> 'a
(** Domain-local override skipping lookup and measurement entirely. *)

val set_persist_path : string -> unit
(** Persist schedule selections to this file (sidecar of the disk compile
    cache): loaded now, rewritten temp+rename after every new selection.
    Corrupt files are deleted and ignored. *)

val clear_schedules : unit -> unit
val schedules_size : unit -> int

val measurements : unit -> int
(** Total schedule candidates measured so far (reads
    [parloop_measurements_total]) — cache hits and lone candidates add
    zero. *)

val last_schedule : unit -> schedule option
(** The schedule the most recent loop on this domain ran under (forced,
    cached or freshly measured) — bench/report tooling. *)

val shape_class : int -> int
(** floor(log2 n): the trip-count bucket of the schedule cache key. *)

val parallel_for_map : Rtval.t array -> Rtval.t
(** [[| Fun f; Tensor init; Int lo; Int hi; Int _; Str fingerprint |]]:
    run [f(out, a, b)] over disjoint subranges writing in place and return
    [out], where [out] is [init] itself when unshared (reference count
    [<= 1]) and a private copy otherwise.  Schedule-search candidates each
    write into their own copy.  [lo > hi] returns [init] unchanged. *)

val parallel_reduce : Rtval.t array -> Rtval.t
(** [[| Fun f; init; Int lo; Int hi; Int opcode; Str fingerprint |]]: fold
    chunks onto the opcode's identity with [f], merge partials in chunk
    order onto [init].  Opcodes: 1 Plus(Real) · 2 Times(Real) · 3 Min(Int) ·
    4 Min(Real) · 5 Max(Int) · 6 Max(Real). *)
