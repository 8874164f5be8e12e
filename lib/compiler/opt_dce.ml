open Wir

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Primitives that can raise a runtime failure on well-typed operands:
   integer overflow and division by zero (the checked_ family), Part and
   string bounds, dimension mismatches (the dot_ and array_ families),
   expression coercions, float-to-int conversions.  A dead instruction
   that can fail is still
   observable — the interpreter reports the failure, so compiled code
   must reach it too (the differential fuzzer found exactly this: a dead
   Quotient[x, 0] folded away turned a Failed run into a value). *)
let can_fail base =
  match base with
  (* overflow-only checked arithmetic is removable when dead: on overflow
     the compiled function soft-falls back to the interpreter, whose
     bignum result is exactly what the program computes without the dead
     op, so erasing it cannot change the observable outcome *)
  | "checked_binary_plus" | "checked_binary_subtract"
  | "checked_binary_times" | "checked_unary_minus" | "checked_unary_abs" ->
    false
  | _ ->
    has_prefix "checked_" base || has_prefix "part_" base
    || has_prefix "string_" base || has_prefix "expr_" base
    || has_prefix "dot_" base || has_prefix "array_" base
    || has_prefix "complex_" base
    || (match base with
        | "unary_round" | "unary_floor" | "unary_ceiling" | "unary_truncate"
        | "binary_power" | "binary_power_ri" | "from_character_code"
        | "range" | "range2" -> true
        | _ -> false)

let pure_instr = function
  | Copy _ | New_closure _ | Copy_value _ -> true
  | Call { callee = Resolved { base; _ }; _ } ->
    (* conservative purity: explicit effects (randomness, in-place part
       updates, which can_fail already covers via part_) plus anything
       whose failure is an observable result *)
    not (has_prefix "random" base) && not (can_fail base)
  | Call _ -> false
  | Load_argument _ -> true
  | Kernel_call _ -> false
  | Abort_check | Mem_acquire _ | Mem_release _ -> false

let run (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       let pass () =
         let counts = Analysis.use_counts f in
         let used v = Option.value ~default:0 (Hashtbl.find_opt counts v.vid) > 0 in
         let local = ref false in
         (* drop dead pure instructions (never function parameters) *)
         let param_ids =
           Array.to_list f.fparams |> List.map (fun v -> v.vid)
         in
         List.iter
           (fun b ->
              let before = List.length b.instrs in
              b.instrs <-
                List.filter
                  (fun i ->
                     match instr_defs i with
                     | [ dst ]
                       when pure_instr i && (not (used dst))
                         && not (List.mem dst.vid param_ids) ->
                       false
                     | _ -> true)
                  b.instrs;
              if List.length b.instrs <> before then local := true)
           f.blocks;
         (* drop unused block parameters *)
         let counts = Analysis.use_counts f in
         let used_id vid = Option.value ~default:0 (Hashtbl.find_opt counts vid) > 0 in
         List.iter
           (fun b ->
              let keep = Array.map (fun v -> used_id v.vid) b.bparams in
              if Array.exists not keep then begin
                local := true;
                let filter_args args =
                  Array.of_list
                    (List.filteri (fun i _ -> keep.(i)) (Array.to_list args))
                in
                b.bparams <- filter_args b.bparams;
                (* fix all jumps into b *)
                List.iter
                  (fun src ->
                     let fix j =
                       if j.target = b.label then { j with jargs = filter_args j.jargs }
                       else j
                     in
                     src.term <-
                       (match src.term with
                        | Jump j -> Jump (fix j)
                        | Branch { cond; if_true; if_false } ->
                          Branch { cond; if_true = fix if_true; if_false = fix if_false }
                        | t -> t))
                  f.blocks
              end)
           f.blocks;
         !local
       in
       let rec fix () = if pass () then begin changed := true; fix () end in
       fix ())
    p.funcs;
  !changed
