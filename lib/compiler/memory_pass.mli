(** Automatic memory management (paper §4.5, objective F7).

    Variables of memory-managed types (the "MemoryManaged" type class:
    packed arrays, expressions, strings) carry reference counts that drive
    the runtime's copy-on-write (F5): a checked [SetPart] copies exactly
    when the count says another holder can still see the array.  The pass
    keeps those counts exact:

    - an aliasing [Copy] (of a parameter, call result, block parameter or
      earlier binding) opens a second reference: [MemoryAcquire] at the
      copy, [MemoryRelease] at the end of its live interval;
    - a [Copy] whose source is a fresh allocation ({!Analysis.fresh_alloc})
      and is that source's only use is a move: it takes over the
      allocation's single reference and gets neither instruction;
    - a [New_closure] claims each captured array with a [MemoryAcquire]
      that is never released (the closure may escape), so closures capture
      arrays by value;
    - a checked write — a [SetPart], a parallel map's carry, or an array
      argument of a compiled function, which may update its parameter —
      whose array stays visible afterwards through a name that holds no
      reference of its own (the target read again after an inlined closure
      moved its use past the write, a block parameter's incoming argument,
      the caller's own binding), or through another operand of the same
      call, is pinned: acquired before and released after it, so the write
      copies.

    All of these are no-ops for unmanaged scalars. *)

val run : Wir.program -> unit
