(* Batch pool: run [n] independent tasks on the calling domain plus helpers
   borrowed from one shared executor.

   The work queue is the interval [0, n): an atomic cursor hands out every
   index exactly once, and a domain that finishes early claims the next
   index instead of idling behind a static partition.  Results land in
   per-index slots, so the merge order is the task order — [map ~jobs:4]
   returns the output of [~jobs:1] regardless of scheduling.

   The caller never blocks on the executor.  Helpers are submitted best
   effort ([`Saturated] just means fewer helpers), the caller claims
   indices itself until the cursor is drained, and then it waits only for
   indices that helpers already claimed — those are running, so they
   finish.  A batch started from inside an executor job (a parallel loop in
   compiled code under [wolfc fuzz --jobs], or in a tier-promoted function)
   therefore completes even when every worker is busy: at worst it runs
   serially on the caller.

   Helpers reach the batch through a cell that the caller empties when the
   batch is done, so a helper still queued behind busy workers holds no
   task closure (nor the tensors it captures) and exits when it runs.

   Failures: the lowest failing index so far is kept in an atomic, and an
   index above it is skipped; every index below it still runs.  [Aborted]
   beats any other exception; otherwise the lowest failing index is
   re-raised, which is the serial first failure. *)

let default_jobs () = Domain.recommended_domain_count ()

(* The one executor behind every batch: created by the first batch that
   wants helpers (a single-domain process such as the fig2 benchmark never
   creates it), grown when a batch wants more, never replaced while it
   lives; only [shutdown] ends it. *)
let shared : Executor.t option ref = ref None
let shared_lock = Mutex.create ()
let injected : Executor.t option Atomic.t = Atomic.make None

let executor ~helpers =
  match Atomic.get injected with
  | Some e -> e
  | None ->
    Mutex.lock shared_lock;
    let e =
      match !shared with
      | Some e -> e
      | None ->
        let e = Executor.create ~capacity:256 ~jobs:helpers () in
        Executor.register_metrics ~name:"batch" e;
        shared := Some e;
        e
    in
    Mutex.unlock shared_lock;
    Executor.grow e helpers;
    e

let shutdown () =
  Mutex.lock shared_lock;
  let e = !shared in
  shared := None;
  Mutex.unlock shared_lock;
  Option.iter Executor.shutdown e

let with_executor e f =
  Atomic.set injected (Some e);
  Fun.protect ~finally:(fun () -> Atomic.set injected None) f

type failure = { exn : exn; bt : Printexc.raw_backtrace }

let iter ?(poll = ignore) ~jobs n (body : int -> unit) =
  if n <= 0 then ()
  else if jobs <= 1 || n = 1 then
    (* in ascending order on the caller: the first failure is already the
       serial first failure *)
    for i = 0 to n - 1 do body i done
  else begin
    let cursor = Atomic.make 0 in
    let finished = Atomic.make 0 in
    let lowest_failure = Atomic.make n in
    let rec note_failure i =
      let cur = Atomic.get lowest_failure in
      if i < cur && not (Atomic.compare_and_set lowest_failure cur i) then
        note_failure i
    in
    let errors = Array.make n None in
    let lock = Mutex.create () and all_done = Condition.create () in
    let claim ~caller () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then continue := false
        else begin
          if i < Atomic.get lowest_failure then begin
            try
              if caller then poll ();
              body i
            with exn ->
              errors.(i) <- Some { exn; bt = Printexc.get_raw_backtrace () };
              note_failure i
          end;
          if Atomic.fetch_and_add finished 1 = n - 1 then begin
            Mutex.lock lock;
            Condition.broadcast all_done;
            Mutex.unlock lock
          end
        end
      done
    in
    let batch = Atomic.make (Some (claim ~caller:false)) in
    let helper () = Option.iter (fun claim -> claim ()) (Atomic.get batch) in
    let helpers = min (jobs - 1) (n - 1) in
    let e = executor ~helpers in
    for _ = 1 to helpers do
      ignore (Executor.submit e helper)
    done;
    claim ~caller:true ();
    Mutex.lock lock;
    while Atomic.get finished < n do Condition.wait all_done lock done;
    Mutex.unlock lock;
    Atomic.set batch None;
    let aborted = ref None and first = ref None in
    for i = n - 1 downto 0 do
      match errors.(i) with
      | Some ({ exn = Wolf_base.Abort_signal.Aborted; _ } as f) -> aborted := Some f
      | Some f -> first := Some f
      | None -> ()
    done;
    match !aborted, !first with
    | Some f, _ | None, Some f -> Printexc.raise_with_backtrace f.exn f.bt
    | None, None -> ()
  end

let map ~jobs n (f : int -> 'a) : 'a array =
  let results = Array.make (max n 0) None in
  iter ~jobs n (fun i ->
      results.(i) <-
        Some
          (Wolf_obs.Trace.with_span ~cat:"pool" "job"
             ~args:[ ("index", Wolf_obs.Trace.arg_int i) ]
             (fun () -> f i)));
  Array.map Option.get results

let map_list ~jobs (xs : 'a list) (f : 'a -> 'b) : 'b list =
  let arr = Array.of_list xs in
  Array.to_list (map ~jobs (Array.length arr) (fun i -> f arr.(i)))
