(** Abortable evaluation (paper §4.5, objective F3): instead of checking
    after every instruction — which would inhibit optimisation — an abort
    check is inserted at the head of every natural loop (computed from the
    dominator tree) and in every function prologue (recursion, e.g. cfib).
    A leaf — not [main], no loop, no function, indirect or kernel call —
    gets no prologue check: it does bounded work between its caller's
    polls.  Each check is a read of the abort poll word; the backends call
    the counted {!Wolf_base.Abort_signal.check} only while it is nonzero. *)

val run : Wir.program -> unit

val calls_out : Wir.block -> bool
(** The block makes a function, indirect or kernel call. *)
