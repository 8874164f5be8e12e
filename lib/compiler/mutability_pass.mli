(** Mutability semantics (paper §4.5, objective F5).

    [x = {…}; …; y[[1]] = 3] must copy only if the target aliases another
    value that is used later.  Alias information (which SSA names may refer
    to the same packed array) and liveness decide, per [SetPart]:

    - target provably unaliased and dead after the update → the update is
      marked in-place ([part_set_*_inplace]), skipping even the runtime
      reference-count check;
    - otherwise the runtime copy-on-write check remains, with the reference
      counts maintained by {!Memory_pass} making it exact.

    The conservative static criterion for in-place: the target is defined by
    a fresh allocation ({!Analysis.fresh_alloc}, the predicate the memory
    pass's moves use too) or a previous [SetPart] in the same function,
    possibly through single-use copies, is never copied from or captured,
    and this [SetPart] is its only remaining use. *)

val run : Wir.program -> int
(** Returns the number of updates proven safe to run in place. *)
