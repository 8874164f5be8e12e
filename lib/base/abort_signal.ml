exception Aborted

(* The user-visible abort request is a single cross-domain atomic: Abort[]
   (or ^C in a notebook) raised on any domain must be seen by compiled code
   polling on every other domain, with no torn or lost update. *)
let flag = Atomic.make false

(* The poll word compiled code reads at every abort site: one unit per
   reason [check] has work to do (a request, each domain's armed or
   unwinding injection, profiling).  Only transitions move it, so it
   settles at the number of reasons that hold whatever the interleaving. *)
let pending = Atomic.make 0

(* Test hooks (abort_after / checks_performed) are per-domain.  They exist
   only so tests and the abort-overhead ablation can inject an interrupt at
   a deterministic poll and count polls; keeping them domain-local means a
   fuzz worker scheduling an injected abort, or calling [reset_stats], can
   never trip or skew a compiled function polling on another domain. *)
type hooks = {
  mutable count : int;        (* checks performed on this domain *)
  mutable trigger : int;      (* fire an injected abort at this count; -1 = off *)
  mutable injected : bool;    (* sticky: an injected abort is unwinding *)
}

let hooks_key =
  Domain.DLS.new_key (fun () -> { count = 0; trigger = -1; injected = false })

let hooks () = Domain.DLS.get hooks_key

(* a domain holds one unit of [pending] while its injection is armed or
   unwinding *)
let armed h = h.trigger >= 0 || h.injected

let () =
  Wolf_obs.Profile.on_toggle (fun on ->
      if on then Atomic.incr pending else Atomic.decr pending);
  if Wolf_obs.Profile.enabled () then Atomic.incr pending

let request () = if not (Atomic.exchange flag true) then Atomic.incr pending

let clear () =
  if Atomic.exchange flag false then Atomic.decr pending;
  let h = hooks () in
  if armed h then Atomic.decr pending;
  h.trigger <- -1;
  h.injected <- false

let requested () = Atomic.get flag

let check () =
  Wolf_obs.Profile.note_abort_poll ();
  let h = hooks () in
  h.count <- h.count + 1;
  if h.trigger >= 0 && h.count >= h.trigger then begin
    h.trigger <- -1;
    (* sticky so nested evaluations keep unwinding, like a real request;
       confined to this domain by construction *)
    h.injected <- true
  end;
  if h.injected || Atomic.get flag then raise Aborted

let checks_performed () = (hooks ()).count
let reset_stats () = (hooks ()).count <- 0

let abort_after n =
  let h = hooks () in
  if not (armed h) then Atomic.incr pending;
  h.trigger <- max 0 (h.count + n)

let with_abort_protection f =
  match f () with
  | v -> Ok v
  | exception Aborted -> clear (); Error Aborted
  | exception e -> clear (); Error e
