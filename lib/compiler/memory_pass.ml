open Wir

let managed_var v =
  match v.vty with
  | Some t -> Type_class.member "MemoryManaged" ~ty:t
  | None -> false

let managed_op = function
  | Ovar v -> managed_var v
  | Oconst _ -> false

(* The arrays an instruction may write in place and hand back: the target
   of a Part update, the carry of a parallel map, and every argument of a
   compiled function, which may update its parameter. *)
let passed_through = function
  | Call { callee = Resolved { base; _ }; args; _ }
    when String.starts_with ~prefix:"part_set" base ->
    [ args.(0) ]
  | Call { callee = Resolved { base = "parallel_for_map"; _ }; args; _ } ->
    [ args.(1) ]
  | Call { callee = Func _ | Indirect _; args; _ } -> Array.to_list args
  | _ -> []

(* ... restricted to writes that consult the reference count at run time *)
let checked_writes i =
  match i with
  | Call { callee = Resolved { base; _ }; _ }
    when Filename.check_suffix base "_inplace" ->
    []
  | _ -> passed_through i

(* May-share classes: names that can denote one array without each holding
   a reference of their own — a copy and its source, a block parameter and
   its incoming jump arguments, a result and the arrays passed through to
   it.  Returns the class representative of a variable id. *)
let share_classes f =
  let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
    | _ -> x
  in
  let link (dst : var) = function
    | Ovar v when managed_var dst && managed_var v ->
      let a = find dst.vid and b = find v.vid in
      if a <> b then Hashtbl.replace parent a b
    | _ -> ()
  in
  let jump (j : jump) =
    let tgt = find_block f j.target in
    Array.iteri (fun k a -> link tgt.bparams.(k) a) j.jargs
  in
  List.iter
    (fun b ->
       List.iter
         (function
           | Copy { dst; src } | Copy_value { dst; src } -> link dst src
           | Call { dst; _ } as i -> List.iter (link dst) (passed_through i)
           | _ -> ())
         b.instrs;
       match b.term with
       | Jump j -> jump j
       | Branch { if_true; if_false; _ } -> jump if_true; jump if_false
       | Return _ | Unreachable -> ())
    f.blocks;
  find

let run (p : program) =
  List.iter
    (fun f ->
       let live_out = Analysis.live_out f in
       let defs = Analysis.def_table f and counts = Analysis.use_counts f in
       let same = share_classes f in
       (* a copy of a fresh allocation that is the allocation's only use is
          a move: the copy takes over the allocation's one reference *)
       let moved = function
         | Ovar s ->
           Hashtbl.find_opt counts s.vid = Some 1
           && (match Hashtbl.find_opt defs s.vid with
               | Some d -> Analysis.fresh_alloc d
               | None -> false)
         | Oconst _ -> false
       in
       let aliasing = function
         | Copy { dst; src } -> managed_var dst && managed_op src && not (moved src)
         | _ -> false
       in
       (* only aliasing copies open a new reference; releasing anything else
          (parameters, fresh results, moves) would decrement counts the
          caller or the allocation itself still owns *)
       let acquired : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       List.iter
         (fun b ->
            List.iter
              (function
                | Copy { dst; _ } as i when aliasing i ->
                  Hashtbl.replace acquired dst.vid ()
                | _ -> ())
              b.instrs)
         f.blocks;
       List.iter
         (fun b ->
            let out = Hashtbl.find live_out b.label in
            let instrs = Array.of_list b.instrs in
            (* A checked write whose array is still visible afterwards
               through a name that holds no reference of its own (the
               target itself, say, after an inlined closure moved its read
               past the write), or through another operand of the same
               call, must copy: pin the array across it. *)
            let pins = Array.make (Array.length instrs) [] in
            let live = Hashtbl.copy out in
            let add = function Ovar v -> Hashtbl.replace live v.vid () | Oconst _ -> () in
            List.iter add (term_uses b.term);
            for idx = Array.length instrs - 1 downto 0 do
              let i = instrs.(idx) in
              let dst = List.map (fun v -> v.vid) (instr_defs i) in
              let shared t =
                let c = same t.vid in
                Hashtbl.fold
                  (fun w () seen -> seen || ((not (List.mem w dst)) && same w = c))
                  live false
                || List.length
                     (List.filter
                        (function Ovar v -> same v.vid = c | Oconst _ -> false)
                        (instr_uses i))
                   > 1
              in
              pins.(idx) <-
                List.filter
                  (function Ovar t -> managed_var t && shared t | Oconst _ -> false)
                  (checked_writes i);
              List.iter (fun v -> Hashtbl.remove live v.vid) (instr_defs i);
              List.iter add (instr_uses i)
            done;
            (* last textual use index of each managed var within this block *)
            let last_use : (int, int) Hashtbl.t = Hashtbl.create 8 in
            Array.iteri
              (fun idx i ->
                 List.iter
                   (function
                     | Ovar v when managed_var v -> Hashtbl.replace last_use v.vid idx
                     | _ -> ())
                   (instr_uses i))
              instrs;
            (* uses in the terminator transfer ownership along the edge *)
            List.iter
              (function
                | Ovar v -> Hashtbl.remove last_use v.vid
                | Oconst _ -> ())
              (term_uses b.term);
            let new_instrs = ref [] in
            let emit i = new_instrs := i :: !new_instrs in
            Array.iteri
              (fun idx i ->
                 List.iter (fun t -> emit (Mem_acquire t)) pins.(idx);
                 emit i;
                 (match i with
                  (* an aliasing definition opens a second reference *)
                  | Copy { dst; _ } when aliasing i -> emit (Mem_acquire (Ovar dst))
                  (* a closure may escape, so its captures are claims that
                     are never released *)
                  | New_closure { captured; _ } ->
                    Array.iter
                      (fun o -> if managed_op o then emit (Mem_acquire o))
                      captured
                  | _ -> ());
                 List.iter (fun t -> emit (Mem_release t)) pins.(idx);
                 (* close intervals that end here *)
                 List.iter
                   (function
                     | Ovar v
                       when Hashtbl.mem acquired v.vid
                         && Hashtbl.find_opt last_use v.vid = Some idx
                         && not (Hashtbl.mem out v.vid) ->
                       emit (Mem_release (Ovar v))
                     | _ -> ())
                   (instr_uses i))
              instrs;
            b.instrs <- List.rev !new_instrs)
         f.blocks)
    p.funcs
