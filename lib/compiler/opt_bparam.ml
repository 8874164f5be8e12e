(* Dead block-parameter elimination.

   Lowering threads every Module variable through every block as a
   parameter, so loop headers accumulate arguments that nothing in or after
   the loop reads (they only circulate through jump arguments back into
   themselves or into other dead parameters).  Regular DCE cannot remove
   them: each circulating argument *is* a use.  This pass computes parameter
   liveness as a fixpoint — a parameter is live only if it reaches an
   instruction operand, a branch condition or a return, directly or through
   a chain of live parameters — and deletes the dead ones together with the
   corresponding jump arguments.

   Beyond tidiness, every backend moves each parameter on every jump (the
   JIT assigns it to a ref), so a dead one costs a move per jump; on the
   JIT's structured loops fig2 measures no difference (DESIGN.md, loop
   layer).  Only scalar-typed parameters are removed, so the mutability and
   memory-management passes never see a packed array's lifetime change
   shape here; a dead tensor parameter simply dies a block earlier, which
   those passes handle themselves.

   Runs inside the optimisation fixpoint: deleting a parameter strips jump
   arguments, which lets DCE delete their defining instructions, which can
   expose more dead parameters on the next round. *)

open Wir

let scalar v =
  match v.vty with
  | Some t ->
    (match Types.repr t with
     | Types.Con (("Integer64" | "Real64" | "Boolean" | "String" | "ComplexReal64"), _) ->
       true
     | _ -> false)
  | None -> false

let run_func f =
  let entry_label = (entry f).label in
  (* candidate parameters: vid -> () for scalar params of non-entry blocks *)
  let candidate = Hashtbl.create 32 in
  List.iter
    (fun b ->
       if b.label <> entry_label then
         Array.iter (fun p -> if scalar p then Hashtbl.replace candidate p.vid ()) b.bparams)
    f.blocks;
  if Hashtbl.length candidate = 0 then false
  else begin
    let params_of = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace params_of b.label b.bparams) f.blocks;
    (* deps: candidate param vid -> variables flowing into it via jumps *)
    let deps : (int, var list ref) Hashtbl.t = Hashtbl.create 32 in
    let dep_of pid =
      match Hashtbl.find_opt deps pid with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace deps pid r;
        r
    in
    let live = Hashtbl.create 64 in
    let work = ref [] in
    let root v =
      if not (Hashtbl.mem live v.vid) then begin
        Hashtbl.replace live v.vid ();
        work := v :: !work
      end
    in
    let root_op = function Ovar v -> root v | Oconst _ -> () in
    let flow (j : jump) =
      let ps = Option.value ~default:[||] (Hashtbl.find_opt params_of j.target) in
      Array.iteri
        (fun k arg ->
           match arg with
           | Oconst _ -> ()
           | Ovar v ->
             if k < Array.length ps && Hashtbl.mem candidate ps.(k).vid then
               dep_of ps.(k).vid := v :: !(dep_of ps.(k).vid)
             else root v)
        j.jargs
    in
    List.iter
      (fun b ->
         List.iter (fun i -> List.iter root_op (instr_uses i)) b.instrs;
         match b.term with
         | Return op -> root_op op
         | Unreachable -> ()
         | Jump j -> flow j
         | Branch { cond; if_true; if_false } ->
           root_op cond;
           flow if_true;
           flow if_false)
      f.blocks;
    (* propagate: a var feeding a live parameter is live *)
    while !work <> [] do
      let v = List.hd !work in
      work := List.tl !work;
      if Hashtbl.mem candidate v.vid then
        match Hashtbl.find_opt deps v.vid with
        | Some srcs -> List.iter root !srcs
        | None -> ()
    done;
    (* keep masks per block, then rewrite parameter lists and jump args *)
    let keep = Hashtbl.create 16 in
    let changed = ref false in
    List.iter
      (fun b ->
         if b.label <> entry_label then begin
           let mask =
             Array.map
               (fun p -> (not (Hashtbl.mem candidate p.vid)) || Hashtbl.mem live p.vid)
               b.bparams
           in
           if Array.exists not mask then begin
             changed := true;
             Hashtbl.replace keep b.label mask
           end
         end)
      f.blocks;
    if not !changed then false
    else begin
      let filter_by mask arr =
        let out = ref [] in
        Array.iteri (fun k x -> if mask.(k) then out := x :: !out) arr;
        Array.of_list (List.rev !out)
      in
      let rewrite_jump (j : jump) =
        match Hashtbl.find_opt keep j.target with
        | Some mask -> { j with jargs = filter_by mask j.jargs }
        | None -> j
      in
      List.iter
        (fun b ->
           (match Hashtbl.find_opt keep b.label with
            | Some mask -> b.bparams <- filter_by mask b.bparams
            | None -> ());
           b.term <-
             (match b.term with
              | Jump j -> Jump (rewrite_jump j)
              | Branch { cond; if_true; if_false } ->
                Branch
                  { cond;
                    if_true = rewrite_jump if_true;
                    if_false = rewrite_jump if_false }
              | (Return _ | Unreachable) as t -> t))
        f.blocks;
      true
    end
  end

let run (p : program) =
  List.fold_left (fun acc f -> run_func f || acc) false p.funcs
