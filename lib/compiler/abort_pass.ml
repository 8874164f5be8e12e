open Wir

let calls_out (b : block) =
  List.exists
    (function
      | Call { callee = Func _ | Indirect _; _ } | Kernel_call _ -> true
      | _ -> false)
    b.instrs

let run (p : program) =
  let main = Wir.main p in
  List.iter
    (fun f ->
       let cfg = Analysis.build_cfg f in
       let headers = Analysis.loop_headers f cfg in
       let entry_label = (entry f).label in
       (* when the entry block is itself a loop header, the prologue check
          inserted below already runs once per iteration — adding a header
          check too would double it *)
       List.iter
         (fun b ->
            if List.mem b.label headers && b.label <> entry_label then
              b.instrs <- Abort_check :: b.instrs)
         f.blocks;
       let e = entry f in
       (* prologue check after the argument loads *)
       let rec insert_after_loads acc = function
         | (Load_argument _ as i) :: rest -> insert_after_loads (i :: acc) rest
         | rest -> List.rev_append acc (Abort_check :: rest)
       in
       (* a loop-free helper that calls nothing does bounded work, so the
          polls of whoever calls it already cover it (QSort's comparator) *)
       if f == main || headers <> [] || List.exists calls_out f.blocks then
         e.instrs <- insert_after_loads [] e.instrs)
    p.funcs
