(** Atomic file publication: write to a unique temp file next to the
    destination, then rename it over the destination.  Used by every
    writer whose readers must never see a torn file: the disk compile
    cache, flight dumps, the parallel-loop schedule sidecar and
    [wolfc build]. *)

val publish :
  ?before_rename:(unit -> unit) -> dest:string -> (string -> 'a) -> 'a
(** [publish ~dest write] calls [write tmp] with a fresh temp path in
    [dest]'s directory, then [before_rename ()], then renames [tmp] over
    [dest] and returns [write]'s result.  If any of the three raises, the
    temp file is removed and the exception re-raised; [dest] is untouched.
    [before_rename] is a fault-injection point for crash-safety tests. *)

val is_temp : string -> bool
(** Whether a file {e name} (no directory) is one of {!publish}'s temp
    files — what a crashed writer leaves behind, for sweeps. *)
