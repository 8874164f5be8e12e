(** Persistent domain pool with a bounded, non-blocking submission queue —
    the one module that spawns domains.

    An executor's workers outlive any single job: [wolfd] schedules every
    compile and eval job on one, the tier controller its promotions, and
    {!Pool} the helpers of every batch.  The queue bound is the admission-control signal —
    [submit] never blocks, it reports [`Saturated] so the caller can answer
    "overloaded" instead of silently queuing without bound. *)

type t

type stats = {
  queued : int;      (** jobs waiting in the queue *)
  running : int;     (** jobs currently executing on a worker *)
  capacity : int;    (** queue bound *)
  jobs : int;        (** worker domains *)
  executed : int;    (** jobs completed since [create] *)
  crashed : int;     (** jobs that escaped with an exception (a job bug —
                         the worker survives and keeps serving) *)
  saturated : int;   (** [submit]s refused with [`Saturated] since [create]
                         (the backpressure observability signal: a saturated
                         parallel-for shows up here, not as a hang) *)
}

val create : ?capacity:int -> jobs:int -> unit -> t
(** Spawn [max 1 jobs] worker domains sharing one FIFO queue bounded at
    [capacity] (default 64) waiting entries; running jobs do not count
    against the bound. *)

val grow : t -> int -> unit
(** [grow t jobs] spawns workers until [t] has at least [jobs]; never
    removes any.  No-op after {!shutdown} began. *)

val submit : t -> (unit -> unit) -> [ `Accepted | `Saturated | `Stopped ]
(** Enqueue a job, or refuse immediately: [`Saturated] when the queue is at
    capacity, [`Stopped] after {!shutdown} began.  Jobs own their error
    handling; an escaping exception is counted in [crashed] and dropped. *)

val stats : t -> stats

val register_metrics : name:string -> t -> unit
(** Install a pull-time metrics source named [executor:<name>] exporting
    [executor_queue_depth], [executor_running], [executor_queue_capacity],
    [executor_workers], [executor_utilization] (gauges) and
    [executor_executed]/[executor_crashed]/[executor_saturated] (counters), all labelled
    [pool=<name>].  Replaces any previous source of the same name, so
    restarting a pool never duplicates samples. *)

val quiesce : t -> unit
(** Block until the queue is empty and no job is running (tests). *)

val shutdown : t -> unit
(** Stop accepting work, let queued jobs drain, join all workers.
    Idempotent-ish: second call joins an empty worker list. *)
