(** OCaml source emission from TWIR — the code generator behind the
    ocamlopt JIT ({!Jit}) and the [FunctionCompileExportString[…,"OCaml"]]
    analogue.

    Each program function becomes a typed OCaml function whose body is
    structured code: the reducible CFG is walked down its dominator tree
    (after Ramsey, "Beyond Relooper"), so a natural loop becomes a
    [while] loop, a block with one forward predecessor is nested at its
    jump, and a join or loop-exit target runs under a test of one label
    variable, placed after the [done] of the outermost loop it leaves.
    Block parameters of loop headers and joins, and values read outside
    the scope of their [let], are function-level refs no closure captures,
    so ocamlopt keeps them in registers and Real64 values unboxed: a hot
    loop allocates nothing.  Machine numbers stay unboxed; open-coded
    primitives mirror {!Native}'s fast paths; anything else dispatches
    through [Wolf_runtime.Prims]. *)

type emitted = {
  source : string;            (** complete OCaml compilation unit *)
  entry_symbol : string;      (** Wolf_plugin registration key of the entry *)
  constants : (string * Wolf_runtime.Rtval.t) list;
      (** plugin-table constants the host must register before loading *)
}

val emit : module_name:string -> Wolf_compiler.Pipeline.compiled -> emitted
(** @raise Invalid_argument on an irreducible CFG, which the IR verifier
    rejects after every pass, rather than emitting wrong code. *)
