(** Strip-mines the innermost call-free counted loops: the body runs in
    check-free chunks of at most {!stride} iterations and the header
    [Abort_check] moves to a new outer chunk loop.  Other loops keep their
    inline header check.  Must run after {!Abort_pass}. *)

val stride : int
(** Iterations per check-free chunk (1024). *)

val run : Wir.program -> unit
