(** CFG analyses shared by the optimisation and obligation passes:
    dominators (Cooper–Harvey–Kennedy), the loop headers derived from back
    edges (used by {!Abort_pass}, paper §4.5), natural loops and the one
    counted-loop recognizer (used by the loop passes), and per-block
    liveness (used by {!Memory_pass} and {!Mutability_pass}). *)

type cfg = {
  order : int array;                  (** reverse postorder of block labels *)
  preds : (int, int list) Hashtbl.t;
  succs : (int, int list) Hashtbl.t;
  idom : (int, int) Hashtbl.t;        (** immediate dominators; entry maps to itself *)
}

val build_cfg : Wir.func -> cfg
val dominates : cfg -> int -> int -> bool

val irreducible_edges : Wir.func -> cfg -> (int * int) list
(** Retreating edges [(src, dst)] of the reverse postorder whose target does
    not dominate their source: empty exactly when the reachable CFG is
    reducible, i.e. every cycle is a natural loop entered through its
    header. *)

val loop_headers : Wir.func -> cfg -> int list
(** Labels that are the target of a back edge (their source being dominated
    by the target): the natural-loop headers where abort checks go. *)

type loop = {
  lheader : int;       (** header block label *)
  latches : int list;  (** back-edge sources, sorted *)
  lbody : int list;    (** body labels including the header, sorted *)
  ldepth : int;        (** nesting depth, 1 = outermost *)
}

val natural_loops : Wir.func -> cfg -> loop list
(** Natural loops from back edges; loops sharing a header are merged.
    Sorted by header label. *)

val loop_contains : loop -> int -> bool

val innermost : loop list -> loop -> bool
(** [innermost loops l]: no distinct loop of [loops] is nested inside [l]. *)

val ensure_preheader : Wir.func -> header:int -> latches:int list -> int
(** Label of the loop's preheader, creating one (splitting the entry edges
    with a fresh block that forwards the header's parameters) unless a
    unique fall-through entry predecessor already qualifies.  Must not be
    called on the entry block. *)

val def_table : Wir.func -> (int, Wir.instr) Hashtbl.t
(** Defining instruction of each variable id (block parameters excluded). *)

val fresh_alloc : Wir.instr -> bool
(** The one allocation predicate: a resolved call whose result is a freshly
    allocated packed array with a single reference ([Range], [ConstantArray],
    [Take], [Join], [Append], [Reverse], [ToCharacterCode] and the
    elementwise [array_binary_*] / [array_scalar_*] / [array_unary_*]
    arithmetic).  Excludes [part_set*], whose result may be its target.
    Shared by {!Mutability_pass} and {!Memory_pass}. *)

val chase_copies : (int, Wir.instr) Hashtbl.t -> Wir.var -> Wir.var
(** Follow SSA [Copy] chains from [def_table] to the root variable. *)

val resolved_def : (int, Wir.instr) Hashtbl.t -> Wir.var -> Wir.instr option
(** The defining instruction after chasing copies. *)

val loop_defs : Wir.func -> loop -> (int, unit) Hashtbl.t
(** Ids of the variables defined in the loop: its blocks' parameters and
    instruction results. *)

type counted = {
  guard : Wir.var;            (** the header branch's condition *)
  guard_callee : Wir.callee;  (** the comparison computing it (copies
                                  chased): resolved [binary_less] or
                                  [binary_less_equal] *)
  strict : bool;              (** [i < n] rather than [i <= n] *)
  iv_pos : int;               (** header parameter index of [i] *)
  iv : Wir.var;               (** [i], a header parameter *)
  bound : Wir.operand;        (** [n]: Integer64, not defined in the loop *)
  exit_edge : Wir.jump;       (** the header's false edge *)
  exits : bool;               (** [exit_edge] leaves the loop *)
  defs : (int, unit) Hashtbl.t;  (** {!loop_defs} *)
}

val counted_loop : Wir.func -> loop -> counted option
(** The one counted-loop recognizer ([i = c0, c0 + 1, ... while i <= n]),
    shared by bounds-check elimination, abort strip-mining and parallel
    loops: the header ends in a [Branch] whose true edge stays in the loop,
    on a [<]/[<=] comparison of a header parameter [i] against an
    [Integer64] [n] not defined in the loop, and every latch — none of them the header itself —
    passes [checked_binary_plus(i, 1)] for [i].  Copies are chased from
    the condition to the comparison, from its first operand to [i], and
    from latch arguments to the step. *)

val starts_at_least : Wir.func -> loop -> counted -> int -> bool
(** [starts_at_least f l c k]: every entry edge passes an integer constant
    [>= k] for [i], looking through up to three forwarding blocks (such as
    a preheader). *)

val live_out : Wir.func -> (int, (int, unit) Hashtbl.t) Hashtbl.t
(** Variable ids live out of each block. *)

val use_counts : Wir.func -> (int, int) Hashtbl.t
(** Total number of uses of each variable id in the function. *)
