open Wir

(* Gradual agreement: a type check only fires when both sides are ground.
   Mid-inference the IR legitimately carries unification variables, and
   passes may introduce untyped instructions that a later inference run
   types (paper §4.5). *)
let agree a b = (not (Types.is_ground a)) || (not (Types.is_ground b)) || Types.equal a b

let ty_str = function
  | None -> "?"
  | Some t -> Types.to_string t

let check_func f =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (match f.blocks with
   | [] -> err "%s: function has no blocks" f.fname
   | _ -> ());
  if f.blocks <> [] then begin
    let entry_label = (List.hd f.blocks).label in
    (* ---- structure: unique labels ---- *)
    let labels = Hashtbl.create 16 in
    List.iter
      (fun b ->
         if Hashtbl.mem labels b.label then
           err "%s: duplicate block b%d" f.fname b.label
         else Hashtbl.add labels b.label b)
      f.blocks;
    (* ---- structure: single static assignment ---- *)
    let defs : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let define v label =
      if Hashtbl.mem defs v.vid then
        err "%s: variable %%%d defined twice (second in b%d)" f.fname v.vid label
      else Hashtbl.add defs v.vid ()
    in
    List.iter
      (fun b ->
         Array.iter (fun v -> define v b.label) b.bparams;
         List.iter
           (fun i -> List.iter (fun v -> define v b.label) (instr_defs i))
           b.instrs)
      f.blocks;
    (* ---- entry-block discipline ---- *)
    (match f.blocks with
     | e :: _ when Array.length e.bparams > 0 ->
       err "%s: entry block b%d declares %d parameters (must have none)" f.fname
         e.label (Array.length e.bparams)
     | _ -> ());
    List.iter
      (fun b ->
         List.iter
           (fun i ->
              match i with
              | Load_argument { dst; index } ->
                if b.label <> entry_label then
                  err "%s: b%d Load_argument %%%d outside the entry block" f.fname
                    b.label dst.vid;
                if index < 0 || index >= Array.length f.fparams then
                  err "%s: b%d Load_argument index %d out of range (%d parameters)"
                    f.fname b.label index (Array.length f.fparams)
                else begin
                  match dst.vty, f.fparams.(index).vty with
                  | Some dt, Some pt when not (agree dt pt) ->
                    err "%s: b%d Load_argument %d: destination %%%d : %s but \
                         parameter is %s"
                      f.fname b.label index dst.vid (Types.to_string dt)
                      (Types.to_string pt)
                  | _ -> ()
                end
              | _ -> ())
           b.instrs)
      f.blocks;
    (* ---- jumps: targets exist, never the entry, arity and types agree ---- *)
    let check_jump src (j : jump) =
      if j.target = entry_label then
        err "%s: b%d jumps to the entry block b%d" f.fname src j.target;
      match Hashtbl.find_opt labels j.target with
      | None -> err "%s: b%d jumps to missing block b%d" f.fname src j.target
      | Some tgt ->
        if Array.length j.jargs <> Array.length tgt.bparams then
          err "%s: b%d -> b%d passes %d args, block expects %d" f.fname src j.target
            (Array.length j.jargs) (Array.length tgt.bparams)
        else
          Array.iteri
            (fun k arg ->
               match operand_ty arg, tgt.bparams.(k).vty with
               | Some at, Some pt when not (agree at pt) ->
                 err "%s: b%d -> b%d argument %d has type %s, parameter %%%d \
                      expects %s"
                   f.fname src j.target k (Types.to_string at) tgt.bparams.(k).vid
                   (Types.to_string pt)
               | _ -> ())
            j.jargs
    in
    List.iter
      (fun b ->
         match b.term with
         | Jump j -> check_jump b.label j
         | Branch { cond; if_true; if_false } ->
           (match operand_ty cond with
            | Some t when Types.is_ground t && not (Types.equal t Types.boolean) ->
              err "%s: b%d branch condition has type %s (expected %s)" f.fname
                b.label (Types.to_string t) (Types.to_string Types.boolean)
            | _ -> ());
           check_jump b.label if_true;
           check_jump b.label if_false
         | Return op ->
           (match operand_ty op, f.ret_ty with
            | Some ot, Some rt when not (agree ot rt) ->
              err "%s: b%d returns %s but the function is declared %s" f.fname
                b.label (Types.to_string ot) (Types.to_string rt)
            | _ -> ())
         | Unreachable -> ())
      f.blocks;
    (* ---- reachability: no orphan blocks ---- *)
    let reachable = Hashtbl.create 16 in
    let rec visit l =
      if not (Hashtbl.mem reachable l) then begin
        Hashtbl.replace reachable l ();
        match Hashtbl.find_opt labels l with
        | Some b -> List.iter visit (successors b.term)
        | None -> ()
      end
    in
    visit entry_label;
    List.iter
      (fun b ->
         if not (Hashtbl.mem reachable b.label) then
           err "%s: orphan block b%d is unreachable from the entry" f.fname b.label)
      f.blocks;
    (* ---- per-instruction type sanity ---- *)
    List.iter
      (fun b ->
         List.iter
           (fun i ->
              match i with
              | Copy { dst; src } | Copy_value { dst; src } -> (
                match dst.vty, operand_ty src with
                | Some dt, Some st when not (agree dt st) ->
                  err "%s: b%d copy %%%d : %s from operand of type %s" f.fname
                    b.label dst.vid (Types.to_string dt) (Types.to_string st)
                | _ -> ())
              | _ -> ())
           b.instrs)
      f.blocks;
    (* ---- dominance of uses over reachable blocks ----
       Forward dataflow computing, per block, the set of variables defined
       on *every* path from the entry (initialised to the universe and
       intersected over incoming edges): for block-argument SSA this is
       exactly the set whose definitions dominate the block entry.  Orphan
       blocks are excluded — they were already reported above and have no
       meaningful entry state.

       Sets are dense bitsets over a vid->index table and per-block def
       sets are computed once, outside the fixpoint: the verifier runs
       after every pass, so this inner loop dominates its cost. *)
    let rblocks =
      Array.of_list (List.filter (fun b -> Hashtbl.mem reachable b.label) f.blocks)
    in
    let nblocks = Array.length rblocks in
    let uses_vars ops =
      List.filter_map (function Ovar v -> Some v | Oconst _ -> None) ops
    in
    let vidx : (int, int) Hashtbl.t = Hashtbl.create (Hashtbl.length defs) in
    let register vid =
      if not (Hashtbl.mem vidx vid) then Hashtbl.replace vidx vid (Hashtbl.length vidx)
    in
    Hashtbl.iter (fun vid _ -> register vid) defs;
    (* never-defined variables still need a slot (that stays unset) so their
       uses are reported rather than crashing the index lookup *)
    Array.iter
      (fun b ->
         List.iter
           (fun i -> List.iter (fun v -> register v.vid) (uses_vars (instr_uses i)))
           b.instrs;
         List.iter (fun v -> register v.vid) (uses_vars (term_uses b.term)))
      rblocks;
    let nvars = Hashtbl.length vidx in
    let idx_of v = Hashtbl.find vidx v.vid in
    let mk_set fill = Bytes.make (max 1 nvars) (if fill then '\001' else '\000') in
    let block_pos : (int, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri (fun i b -> Hashtbl.replace block_pos b.label i) rblocks;
    let gen = Array.init nblocks (fun _ -> mk_set false) in
    Array.iteri
      (fun i b ->
         let g = gen.(i) in
         Array.iter (fun v -> Bytes.set g (idx_of v) '\001') b.bparams;
         List.iter
           (fun ins -> List.iter (fun v -> Bytes.set g (idx_of v) '\001') (instr_defs ins))
           b.instrs)
      rblocks;
    let in_sets = Array.init nblocks (fun i -> mk_set (i <> 0)) in
    let scratch = mk_set false in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun i b ->
           (* out = in ∪ gen, built in the scratch set *)
           let inset = in_sets.(i) and g = gen.(i) in
           for k = 0 to Bytes.length scratch - 1 do
             Bytes.unsafe_set scratch k
               (if Bytes.unsafe_get inset k = '\001' || Bytes.unsafe_get g k = '\001'
                then '\001' else '\000')
           done;
           List.iter
             (fun succ ->
                if succ <> entry_label then
                  match Hashtbl.find_opt block_pos succ with
                  | None -> ()
                  | Some j ->
                    let succ_in = in_sets.(j) in
                    for k = 0 to Bytes.length succ_in - 1 do
                      if Bytes.unsafe_get succ_in k = '\001'
                         && Bytes.unsafe_get scratch k = '\000'
                      then begin
                        Bytes.unsafe_set succ_in k '\000';
                        changed := true
                      end
                    done)
             (successors b.term))
        rblocks
    done;
    Array.iteri
      (fun i b ->
         let live = Bytes.copy in_sets.(i) in
         Array.iter (fun v -> Bytes.set live (idx_of v) '\001') b.bparams;
         let use_check where v =
           let k = idx_of v in
           if Bytes.get live k = '\000' then
             if Hashtbl.mem defs v.vid then
               err "%s: b%d %s uses %%%d before its definition dominates it"
                 f.fname b.label where v.vid
             else
               err "%s: b%d %s uses undefined variable %%%d (%s : %s)" f.fname
                 b.label where v.vid v.vname (ty_str v.vty)
         in
         List.iter
           (fun ins ->
              List.iter (use_check "instr") (uses_vars (instr_uses ins));
              List.iter (fun v -> Bytes.set live (idx_of v) '\001') (instr_defs ins))
           b.instrs;
         List.iter (use_check "terminator") (uses_vars (term_uses b.term)))
      rblocks;
    (* ---- reducibility: every cycle is a natural loop (the structured
       OCaml emitter nests code along loops and dominators) ---- *)
    if !errors = [] then begin
      let cfg = Analysis.build_cfg f in
      List.iter
        (fun (src, dst) ->
           err "%s: irreducible control flow: b%d -> b%d re-enters a cycle that \
                b%d does not dominate" f.fname src dst dst)
        (Analysis.irreducible_edges f cfg)
    end
  end;
  if !errors = [] then Ok () else Error (List.rev !errors)

let check_program p =
  let all =
    List.concat_map
      (fun f -> match check_func f with Ok () -> [] | Error es -> es)
      p.funcs
  in
  (* program level: function references resolve, with matching arity *)
  let arity = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace arity f.fname (Array.length f.fparams))
    p.funcs;
  let all =
    all
    @ List.concat_map
        (fun f ->
           List.concat_map
             (fun b ->
                List.filter_map
                  (fun i ->
                     match i with
                     | Call { callee = Func name; args; _ } -> (
                       match Hashtbl.find_opt arity name with
                       | None ->
                         Some
                           (Printf.sprintf "%s: b%d calls missing function %s"
                              f.fname b.label name)
                       | Some n when n <> Array.length args ->
                         Some
                           (Printf.sprintf
                              "%s: b%d calls %s with %d args (expects %d)" f.fname
                              b.label name (Array.length args) n)
                       | Some _ -> None)
                     | New_closure { fname = name; _ }
                       when not (Hashtbl.mem arity name) ->
                       Some
                         (Printf.sprintf "%s: b%d closes over missing function %s"
                            f.fname b.label name)
                     | _ -> None)
                  b.instrs)
             f.blocks)
        p.funcs
  in
  if all = [] then Ok () else Error all

let assert_ok pass p =
  match check_program p with
  | Ok () -> ()
  | Error es ->
    Wolf_base.Errors.compile_errorf "IR verifier after pass %s:@\n%s" pass
      (String.concat "\n" es)
