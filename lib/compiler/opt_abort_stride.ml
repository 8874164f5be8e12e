(* Strip-mining of counted loops (the fig2 abortability-overhead fix).

   Abort_pass inserts an [Abort_check] — a load and a branch — at every
   loop header, which still shows in tight scalar loops (the paper's
   FNV1a/Histogram gap).  Counted loops — [While[i <= n, ...; i = i + 1]]
   with a loop-invariant bound, integer-constant starts >= 0 and a
   header-resident guard — are strip-mined: the body runs in check-free
   chunks of at most [stride] iterations under a tightened bound, and a new
   outer chunk loop runs the [Abort_check] once per chunk, so an [Abort[]]
   still interrupts the loop within one stride.  Every other loop keeps its
   header check.

   Qualifying loops are innermost and call-free.  Headers of loops that
   contain nested loops keep the immediate check (their trip counts are
   small relative to the work per iteration, and the nested headers poll),
   as do loops making function/indirect/kernel calls (the callee checks at
   its own prologue and headers, and an iteration is expensive anyway).  The
   function prologue check is untouched.

   Runs once, directly after abort-insertion and outside the optimisation
   fixpoint. *)

open Wir

(* ------------------------------------------------------------------ *)
(* Counted-loop strip-mining.

   Shape recognised by {!Analysis.counted_loop} (hdr = loop header,
   already starting with Abort_check):

     hdr(.., i, ..):  c = i <= n          (or i < n; n loop-invariant)
                      Branch c ? body : exit(xargs)
     latches:         jump hdr(.., i + 1, ..)

   with every entry edge passing an integer constant >= 0 for i.  Rewritten
   to (hdr keeps its label and parameters, plus a fresh bound parameter lim;
   body blocks and the exit edge are untouched):

     outer(p..):        Abort_check       (once per chunk)
                        c2 = p_i <= n
                        Branch c2 ? setup : dead
     setup:             rem  = n - p_i    (0 <= p_i <= n: cannot trap)
                        stp  = min(rem, chunk)
                        lim1 = p_i + stp  (<= n: cannot trap)
                        jump hdr(p.., lim1)
     dead:              dl = p_i - 1      (p_i >= 0: cannot trap; only for <=)
                        jump hdr(p.., dl) (guard fails at once -> exit)
     hdr(.., i, .., lim): c = i <= lim    (bound tightened)
                        Branch c ? body : back
     latches:           jump hdr(.., i + 1, .., lim)
     back:              c3 = i <= n       (the original guard, recomputed)
                        Branch c3 ? outer(i..) : exit(xargs)

   The false arm need not leave the loop: [back] recomputes the original
   guard over the same operands, so when it still holds the only effect of
   a chunk boundary is the outer round trip (which forwards every header
   parameter unchanged and recomputes [lim] > i), and when it fails control
   continues exactly where the original false arm went, with the original
   arguments.  This covers short-circuit guards like
   [While[i < 1000 && escaped, ...]], whose exit lives in a join block
   rather than on the header edge.

   Dominance is preserved: hdr still dominates [back] and (when the false
   arm does exit) the exit region, so no uses are rewritten.  The iteration
   sequence of [i] is unchanged, every bounds-check-eliminated access stays
   guarded by [i <= lim <= n], the body runs at most [stride] iterations
   between checks, and a zero-trip entry (start > n) leaves through [dead]
   without executing the body. *)

let stride = 1024

(* On top of {!Analysis.counted_loop}: the guard compares [i] itself (no
   copies), is computed in the header and feeds only the branch, so
   tightening its bound cannot leak into any other value; every start is
   >= 0, so [n - p_i] and [p_i - 1] below cannot trap. *)
let strip_mine f (l : Analysis.loop) =
  let hdr = find_block f l.lheader in
  match Analysis.counted_loop f l with
  | Some ({ guard = c; iv; bound = nv_op; exit_edge = if_false; _ } as cl)
    when List.exists
           (function
             | Call { dst; args = [| Ovar a; _ |]; _ } -> dst.vid = c.vid && a.vid = iv.vid
             | _ -> false)
           hdr.instrs
         && Hashtbl.find_opt (Analysis.use_counts f) c.vid = Some 1
         && Analysis.starts_at_least f l cl 0 ->
    let max_label =
      List.fold_left (fun acc b -> max acc b.label) 0 f.blocks
    in
    let outer_l = max_label + 1 in
    let setup_l = max_label + 2 in
    let dead_l = max_label + 3 in
    let back_l = max_label + 4 in
    let op =
      Array.map (fun v -> fresh_var ~name:v.vname ?ty:v.vty ()) hdr.bparams
    in
    let op_args = Array.map (fun v -> Ovar v) op in
    let pos = cl.iv_pos in
    let resolved = Infer.with_base cl.guard_callee in
    let c2 = fresh_var ~name:c.vname ?ty:c.vty () in
    let c3 = fresh_var ~name:c.vname ?ty:c.vty () in
    let rem = fresh_var ~name:"rem" ?ty:iv.vty () in
    let stp = fresh_var ~name:"step" ?ty:iv.vty () in
    let lim1 = fresh_var ~name:"lim" ?ty:iv.vty () in
    let limp = fresh_var ~name:"lim" ?ty:iv.vty () in
    (* i <= lim admits step+1 iterations per chunk; i < lim admits step *)
    let chunk = if not cl.strict then stride - 1 else stride in
    let outer =
      { label = outer_l;
        bparams = op;
        instrs =
          [ Abort_check;
            Call
              { dst = c2;
                callee = cl.guard_callee;
                args = [| Ovar op.(pos); nv_op |] } ];
        term =
          Branch
            { cond = Ovar c2;
              if_true = { target = setup_l; jargs = [||] };
              if_false = { target = dead_l; jargs = [||] } } }
    in
    let setup =
      { label = setup_l;
        bparams = [||];
        instrs =
          [ Call
              { dst = rem;
                callee = resolved "checked_binary_subtract";
                args = [| nv_op; Ovar op.(pos) |] };
            Call
              { dst = stp;
                callee = resolved "binary_min";
                args = [| Ovar rem; Oconst (Cint chunk) |] };
            Call
              { dst = lim1;
                callee = resolved "checked_binary_plus";
                args = [| Ovar op.(pos); Ovar stp |] } ];
        term =
          Jump
            { target = l.lheader;
              jargs = Array.append op_args [| Ovar lim1 |] } }
    in
    let dead =
      (* a bound that fails the tightened guard immediately: i - 1 for
         <= (i >= 0, so no trap), i itself for < *)
      if not cl.strict then begin
        let dl = fresh_var ~name:"lim" ?ty:iv.vty () in
        { label = dead_l;
          bparams = [||];
          instrs =
            [ Call
                { dst = dl;
                  callee = resolved "checked_binary_subtract";
                  args = [| Ovar op.(pos); Oconst (Cint 1) |] } ];
          term =
            Jump
              { target = l.lheader;
                jargs = Array.append op_args [| Ovar dl |] } }
      end
      else
        { label = dead_l;
          bparams = [||];
          instrs = [];
          term =
            Jump
              { target = l.lheader;
                jargs = Array.append op_args [| Ovar op.(pos) |] } }
    in
    let back =
      { label = back_l;
        bparams = [||];
        instrs =
          [ Call
              { dst = c3;
                callee = cl.guard_callee;
                args = [| Ovar iv; nv_op |] } ];
        term =
          Branch
            { cond = Ovar c3;
              if_true =
                { target = outer_l;
                  jargs = Array.map (fun v -> Ovar v) hdr.bparams };
              if_false = if_false } }
    in
    (* entry edges now feed the chunk loop *)
    List.iter
      (fun b ->
         if not (List.mem b.label l.latches) then begin
           let retarget (j : jump) =
             if j.target = l.lheader then { j with target = outer_l } else j
           in
           b.term <-
             (match b.term with
              | Jump j -> Jump (retarget j)
              | Branch { cond; if_true; if_false } ->
                Branch
                  { cond;
                    if_true = retarget if_true;
                    if_false = retarget if_false }
              | (Return _ | Unreachable) as t -> t)
         end)
      f.blocks;
    (* latches forward the chunk bound unchanged *)
    List.iter
      (fun latch ->
         let b = find_block f latch in
         let extend (j : jump) =
           if j.target = l.lheader then
             { j with jargs = Array.append j.jargs [| Ovar limp |] }
           else j
         in
         b.term <-
           (match b.term with
            | Jump j -> Jump (extend j)
            | Branch { cond; if_true; if_false } ->
              Branch
                { cond; if_true = extend if_true; if_false = extend if_false }
            | (Return _ | Unreachable) as t -> t))
      l.latches;
    (* drop the header check, tighten the guard, reroute the exit *)
    hdr.bparams <- Array.append hdr.bparams [| limp |];
    hdr.instrs <-
      List.filter_map
        (fun i ->
           match i with
           | Abort_check -> None
           | Call { dst; callee; args = [| a; _ |] } when dst.vid = c.vid ->
             Some (Call { dst; callee; args = [| a; Ovar limp |] })
           | i -> Some i)
        hdr.instrs;
    (match hdr.term with
     | Branch br -> hdr.term <- Branch { br with if_false = { target = back_l; jargs = [||] } }
     | Jump _ | Return _ | Unreachable -> assert false);
    let rec insert = function
      | [] -> [ outer; setup; dead ]
      | b :: rest when b.label = l.lheader ->
        outer :: setup :: dead :: b :: back :: rest
      | b :: rest -> b :: insert rest
    in
    f.blocks <- insert f.blocks;
    true
  | _ -> false

let run (p : program) =
  List.iter
    (fun f ->
       let entry_label = (entry f).label in
       let cfg = Analysis.build_cfg f in
       let loops = Analysis.natural_loops f cfg in
       List.iter
         (fun (l : Analysis.loop) ->
            let call_free =
              List.for_all
                (fun label -> not (Abort_pass.calls_out (find_block f label)))
                l.lbody
            in
            if
              l.lheader <> entry_label && Analysis.innermost loops l && call_free
              && (match (find_block f l.lheader).instrs with
                  | Abort_check :: _ -> true
                  | _ -> false)
            then ignore (strip_mine f l))
         loops)
    p.funcs
