(* Persistent domain pool with a bounded submission queue: the only place
   in the system that spawns domains.  Workers outlive any one job, and the
   queue depth is the admission-control signal.  [submit] never blocks —
   when the queue is at capacity the caller gets [`Saturated] back
   immediately and turns it into an explicit "overloaded" reply instead of
   an invisible convoy.

   Jobs are fire-and-forget thunks that carry their own reply channel; an
   exception escaping a job is the job's bug, so it is counted and dropped
   rather than allowed to kill the worker (the daemon must survive any one
   request). *)

type stats = {
  queued : int;      (** jobs waiting in the queue *)
  running : int;     (** jobs currently executing on a worker *)
  capacity : int;    (** queue bound ([submit] beyond it is [`Saturated]) *)
  jobs : int;        (** worker domains *)
  executed : int;    (** jobs completed since [create] *)
  crashed : int;     (** jobs that escaped with an exception *)
  saturated : int;   (** [submit]s bounced with [`Saturated] since [create] *)
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;                  (* signalled when a worker finishes *)
  queue : (unit -> unit) Queue.t;
  capacity : int;
  mutable stopping : bool;
  mutable running : int;
  mutable executed : int;
  mutable crashed : int;
  mutable saturated : int;
  mutable workers : unit Domain.t list;
}

let worker t () =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue && t.stopping then begin
      Mutex.unlock t.lock;
      continue := false
    end
    else begin
      let job = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      (match Wolf_obs.Trace.with_span ~cat:"pool" "job" job with
       | () -> ()
       | exception _ ->
         Mutex.lock t.lock;
         t.crashed <- t.crashed + 1;
         Mutex.unlock t.lock);
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      t.executed <- t.executed + 1;
      Condition.broadcast t.idle;
      Mutex.unlock t.lock
    end
  done

let grow t jobs =
  Mutex.lock t.lock;
  let missing = if t.stopping then 0 else jobs - List.length t.workers in
  for _ = 1 to missing do
    t.workers <- Domain.spawn (worker t) :: t.workers
  done;
  Mutex.unlock t.lock

let create ?(capacity = 64) ~jobs () =
  let t =
    { lock = Mutex.create (); nonempty = Condition.create ();
      idle = Condition.create (); queue = Queue.create ();
      capacity = max 1 capacity; stopping = false; running = 0;
      executed = 0; crashed = 0; saturated = 0; workers = [] }
  in
  grow t (max 1 jobs);
  t

let submit t job =
  (* Capture the submitter's request context (if any): the flow-start
     lands in the submitter's open span, and the worker restores the
     context — emitting the flow-finish inside its "job" span — before
     running the thunk, so cross-domain spans stitch under one request. *)
  let cap = Wolf_obs.Request_ctx.capture () in
  let job () = Wolf_obs.Request_ctx.adopt cap job in
  Mutex.lock t.lock;
  let r =
    if t.stopping then `Stopped
    else if Queue.length t.queue >= t.capacity then begin
      t.saturated <- t.saturated + 1;
      `Saturated
    end
    else begin
      Queue.push job t.queue;
      Condition.signal t.nonempty;
      `Accepted
    end
  in
  Mutex.unlock t.lock;
  r

let stats t =
  Mutex.lock t.lock;
  let s =
    { queued = Queue.length t.queue; running = t.running;
      capacity = t.capacity; jobs = List.length t.workers;
      executed = t.executed; crashed = t.crashed; saturated = t.saturated }
  in
  Mutex.unlock t.lock;
  s

let register_metrics ~name t =
  (* Pull-time source: queue depth / utilization are read fresh at every
     export, so `wolfc stats` and --metrics-out see the live executor
     without the daemon's stats op in the loop.  register_source replaces
     by name, so re-registering after a restart never duplicates samples. *)
  let labels = [ ("pool", name) ] in
  Wolf_obs.Metrics.register_source ("executor:" ^ name) (fun () ->
      let s = stats t in
      let g mname help v =
        { Wolf_obs.Metrics.s_name = mname; s_labels = labels; s_help = help;
          s_kind = Wolf_obs.Metrics.Gauge; s_value = Wolf_obs.Metrics.V_float v }
      in
      let c mname help v =
        { Wolf_obs.Metrics.s_name = mname; s_labels = labels; s_help = help;
          s_kind = Wolf_obs.Metrics.Counter; s_value = Wolf_obs.Metrics.V_int v }
      in
      [ g "executor_queue_depth" "jobs waiting in the executor queue"
          (float_of_int s.queued);
        g "executor_queue_capacity" "executor queue bound" (float_of_int s.capacity);
        g "executor_running" "jobs currently executing" (float_of_int s.running);
        g "executor_workers" "worker domains" (float_of_int s.jobs);
        g "executor_utilization" "running workers / total workers"
          (if s.jobs = 0 then 0.0 else float_of_int s.running /. float_of_int s.jobs);
        c "executor_executed" "jobs completed since create" s.executed;
        c "executor_crashed" "jobs that escaped with an exception" s.crashed;
        c "executor_saturated" "submissions bounced at a full queue" s.saturated ])

let quiesce t =
  Mutex.lock t.lock;
  while not (Queue.is_empty t.queue) || t.running > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  Mutex.lock t.lock;
  t.workers <- [];
  Mutex.unlock t.lock
