open Wolf_wexpr
open Wolf_base
open Wir

(* Locals assigned (Set / indexed Set) within an expression, not descending
   into nested Function bodies: used to compute join/loop block parameters. *)
let assigned_ids e =
  let acc : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec go e =
    match e with
    | Expr.Normal (Expr.Sym s, [| lhs; rhs |]) when Symbol.equal s Expr.Sy.set ->
      (match lhs with
       | Expr.Sym v -> Hashtbl.replace acc (Symbol.id v) ()
       | Expr.Normal (Expr.Sym p, pargs)
         when Symbol.equal p Expr.Sy.part && Array.length pargs >= 1 ->
         (match pargs.(0) with
          | Expr.Sym v -> Hashtbl.replace acc (Symbol.id v) ()
          | _ -> ());
         Array.iter go pargs
       | _ -> go lhs);
      go rhs
    | Expr.Normal (Expr.Sym f, _) when Symbol.equal f Expr.Sy.function_ -> ()
    | Expr.Normal (h, args) -> go h; Array.iter go args
    | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Sym _ | Expr.Tensor _ -> ()
  in
  go e;
  acc

type ctx = {
  options : Options.t;
  prog_funcs : func list ref;           (* accumulated lifted functions *)
  self : string option;                 (* recursive self-reference name *)
  fn_name : string;
  label_gen : Id_gen.t;
  mutable cur : block;
  mutable blocks : block list;          (* reverse order *)
  env : (int, operand) Hashtbl.t;       (* local symbol id -> current SSA value *)
  names : (int, string) Hashtbl.t;      (* local symbol id -> display name *)
  unjoined : (int, unit) Hashtbl.t;
  (* symbols bound on some but not all paths into a join: a later read
     would see no value on the other paths, so it is a compile error rather
     than an inert free symbol *)
}

let new_block ctx ?(params = [||]) () =
  let b =
    { label = Id_gen.next ctx.label_gen; bparams = params; instrs = []; term = Unreachable }
  in
  ctx.blocks <- b :: ctx.blocks;
  b

let emit ctx i = ctx.cur.instrs <- ctx.cur.instrs @ [ i ]

let emit_call ctx ?name callee args =
  let dst = fresh_var ?name () in
  emit ctx (Call { dst; callee; args });
  Ovar dst

let set_term ctx t = ctx.cur.term <- t

let define ctx sym op = Hashtbl.replace ctx.env (Symbol.id sym) op

let lookup ctx sym = Hashtbl.find_opt ctx.env (Symbol.id sym)

(* The sorted list of env symbols assigned within [exprs]: these become block
   parameters at joins. *)
let join_vars ctx exprs =
  let assigned = Hashtbl.create 8 in
  List.iter
    (fun e -> Hashtbl.iter (fun id () -> Hashtbl.replace assigned id ()) (assigned_ids e))
    exprs;
  Hashtbl.fold
    (fun id () acc -> if Hashtbl.mem ctx.env id then id :: acc else acc)
    assigned []
  |> List.sort compare

let display_name ctx id =
  match Hashtbl.find_opt ctx.names id with
  | Some n -> n
  | None -> "v"

let current_values ctx ids =
  Array.of_list (List.map (fun id -> Hashtbl.find ctx.env id) ids)

let bind_params ctx ids params =
  List.iteri (fun i id -> Hashtbl.replace ctx.env id (Ovar params.(i))) ids

let restore_env ctx env =
  Hashtbl.reset ctx.env;
  Hashtbl.iter (Hashtbl.replace ctx.env) env

(* Leave a join with [env]; every symbol bound in some arm's environment
   [arms] but not in [env] is marked unjoined. *)
let join_env ctx env arms =
  restore_env ctx env;
  List.iter
    (Hashtbl.iter (fun id _ ->
         if not (Hashtbl.mem env id) then Hashtbl.replace ctx.unjoined id ()))
    arms

let make_params ctx ids =
  Array.of_list (List.map (fun id -> fresh_var ~name:(display_name ctx id) ()) ids)

let rec lower ctx (e : Expr.t) : operand =
  match e with
  | Expr.Int i -> Oconst (Cint i)
  | Expr.Real r -> Oconst (Creal r)
  | Expr.Str s -> Oconst (Cstr s)
  | Expr.Big _ -> Oconst (Cexpr e)
  | Expr.Tensor _ ->
    if ctx.options.static_constants then Oconst (Cexpr e)
    else
      (* E7 ablation: materialise the constant on every evaluation *)
      emit_call ctx ~name:"const" (Prim "MaterializeConstant") [| Oconst (Cexpr e) |]
  | Expr.Sym s ->
    (match lookup ctx s with
     | Some op -> op
     | None when Hashtbl.mem ctx.unjoined (Symbol.id s) ->
       Errors.compile_errorf "%s may be uninitialised here" (Symbol.name s)
     | None ->
       if Expr.is_true e then Oconst (Cbool true)
       else if Expr.is_false e then Oconst (Cbool false)
       else if Symbol.equal s Expr.Sy.null then Oconst Cvoid
       else Oconst (Cexpr e) (* free symbol: an inert expression constant *))
  | Expr.Normal (Expr.Sym h, args) -> lower_normal ctx h args e
  | Expr.Normal (Expr.Normal (Expr.Sym kf, [| f |]), args)
    when Symbol.equal kf Expr.Sy.kernel_function ->
    let dst = fresh_var ~name:"kernel" () in
    let ops = Array.map (lower ctx) args in
    emit ctx (Kernel_call { dst; head = f; args = ops });
    Ovar dst
  | Expr.Normal (hd, args) ->
    (* applied expression (e.g. Function literal applied immediately) *)
    let f = lower ctx hd in
    let ops = Array.map (lower ctx) args in
    emit_call ctx (Indirect f) ops

and lower_normal ctx h args whole =
  let hname = Symbol.name h in
  match hname, args with
  | "CompoundExpression", _ ->
    let n = Array.length args in
    if n = 0 then Oconst Cvoid
    else begin
      Array.iteri (fun i a -> if i < n - 1 then lower_stmt ctx a) args;
      lower ctx args.(n - 1)
    end
  | "Set", [| lhs; rhs |] -> lower_set ctx lhs rhs
  | "If", [| cond |] -> lower_if ctx ~value:false cond Expr.null Expr.null
  | "If", [| cond; t |] -> lower_if ctx ~value:false cond t Expr.null
  | "If", [| cond; t; f |] -> lower_if ctx ~value:true cond t f
  | "While", [| cond |] -> lower_while ctx cond Expr.null
  | "While", [| cond; body |] -> lower_while ctx cond body
  | "Typed", [| inner; spec |] ->
    let op = lower ctx inner in
    let scheme = Types.parse_spec spec in
    (match op with
     | Ovar v -> v.vty <- Some (Types.instantiate scheme)
     | Oconst _ -> ());
    op
  | "List", _ ->
    (* literal homogeneous lists compile to packed-array constants; general
       list construction stays a kernel-level operation *)
    (match Wolf_runtime.Rtval.of_expr whole with
     | Wolf_runtime.Rtval.Tensor t ->
       lower ctx (Expr.Tensor t)
     | _ ->
       Errors.compile_errorf
         "general List construction is not compilable; use ConstantArray and Part           assignment, or a literal numeric list")
  | "Part", _ when Array.length args >= 2 ->
    let ops = Array.map (lower ctx) args in
    emit_call ctx ~name:"part" (Prim "Part") ops
  | "Function", _ -> lower_closure ctx whole
  | "KernelFunction", [| f |] ->
    (* a first-class kernel escape: wrap as closure over a Kernel_call *)
    lower_kernel_closure ctx f
  | "Return", _ ->
    Errors.compile_errorf "Return is not supported in compiled code; restructure with If"
  | _ ->
    (* function application *)
    let callee =
      match lookup ctx h with
      | Some op -> Indirect op
      | None ->
        (match ctx.self with
         | Some self when String.equal self hname -> Func ctx.fn_name
         | _ -> Prim hname)
    in
    let ops = Array.map (lower ctx) args in
    emit_call ctx ~name:(String.lowercase_ascii hname) callee ops

(* Statement position: the value is discarded, so If/While joins carry no
   result parameter and branches may have unrelated types. *)
and lower_stmt ctx e =
  match e with
  | Expr.Normal (Expr.Sym h, args) ->
    (match Symbol.name h, args with
     | "CompoundExpression", _ -> Array.iter (lower_stmt ctx) args
     | "If", [| cond; t |] -> ignore (lower_if ctx ~value:false cond t Expr.null)
     | "If", [| cond; t; f |] -> ignore (lower_if ctx ~value:false cond t f)
     | _ -> ignore (lower ctx e))
  | _ -> ignore (lower ctx e)

and lower_set ctx lhs rhs =
  match lhs with
  | Expr.Sym v ->
    let value = lower ctx rhs in
    (* emit an explicit Copy so the definition is visible in the IR and the
       display name survives *)
    let dst = fresh_var ~name:(Symbol.name v) () in
    emit ctx (Copy { dst; src = value });
    Hashtbl.replace ctx.names (Symbol.id v) (Symbol.name v);
    define ctx v (Ovar dst);
    Ovar dst
  | Expr.Normal (Expr.Sym p, pargs)
    when Symbol.equal p Expr.Sy.part && Array.length pargs >= 2 ->
    (match pargs.(0) with
     | Expr.Sym v ->
       let target =
         match lookup ctx v with
         | Some op -> op
         | None ->
           Errors.compile_errorf "Part assignment to uninitialised %s" (Symbol.name v)
       in
       let idxs = Array.map (lower ctx) (Array.sub pargs 1 (Array.length pargs - 1)) in
       let value = lower ctx rhs in
       let updated =
         emit_call ctx ~name:(Symbol.name v)
           (Prim "SetPart")
           (Array.concat [ [| target |]; idxs; [| value |] ])
       in
       define ctx v updated;
       value
     | e -> Errors.compile_errorf "unsupported Part assignment target %s" (Expr.to_string e))
  | e -> Errors.compile_errorf "unsupported assignment target %s" (Expr.to_string e)

and lower_if ctx ~value cond then_e else_e =
  let cond_op = lower ctx cond in
  let then_blk = new_block ctx () in
  let else_blk = new_block ctx () in
  let result_param = fresh_var ~name:"if" () in
  let join_blk = new_block ctx () in
  set_term ctx
    (Branch
       { cond = cond_op;
         if_true = { target = then_blk.label; jargs = [||] };
         if_false = { target = else_blk.label; jargs = [||] } });
  let saved = Hashtbl.copy ctx.env in
  let branch branch_blk branch_e =
    restore_env ctx saved;
    ctx.cur <- branch_blk;
    let v = if value then lower ctx branch_e else (lower_stmt ctx branch_e; Oconst Cvoid) in
    (ctx.cur, v, Hashtbl.copy ctx.env)
  in
  let (then_end, then_v, then_env) = branch then_blk then_e in
  let (else_end, else_v, else_env) = branch else_blk else_e in
  (* the join takes a parameter for every symbol bound before the If and
     assigned in a branch, and for every symbol first bound in both
     branches; a symbol bound in one branch only is unjoined *)
  restore_env ctx saved;
  let both_new =
    Hashtbl.fold
      (fun id _ acc ->
         if Hashtbl.mem else_env id && not (Hashtbl.mem saved id) then id :: acc else acc)
      then_env []
  in
  let join_ids = List.sort compare (join_vars ctx [ then_e; else_e ] @ both_new) in
  let var_params = make_params ctx join_ids in
  join_blk.bparams <-
    (if value then Array.append [| result_param |] var_params else var_params);
  let jump (blk, v, env) =
    let vars = Array.of_list (List.map (Hashtbl.find env) join_ids) in
    blk.term <-
      Jump { target = join_blk.label;
             jargs = (if value then Array.append [| v |] vars else vars) }
  in
  jump (then_end, then_v, then_env);
  jump (else_end, else_v, else_env);
  ctx.cur <- join_blk;
  join_env ctx saved [ then_env; else_env ];
  bind_params ctx join_ids var_params;
  if value then Ovar result_param else Oconst Cvoid

and lower_while ctx cond body =
  let loop_ids = join_vars ctx [ cond; body ] in
  let header_params = make_params ctx loop_ids in
  let header = new_block ctx ~params:header_params () in
  set_term ctx (Jump { target = header.label; jargs = current_values ctx loop_ids });
  ctx.cur <- header;
  bind_params ctx loop_ids header_params;
  let cond_op = lower ctx cond in
  (* the condition may itself contain assignments/new blocks; the branch is
     emitted from wherever condition lowering ended *)
  let body_blk = new_block ctx () in
  let exit_blk = new_block ctx () in
  set_term ctx
    (Branch
       { cond = cond_op;
         if_true = { target = body_blk.label; jargs = [||] };
         if_false = { target = exit_blk.label; jargs = [||] } });
  (* remember the environment as the failing condition sees it: this is what
     the exit block may use *)
  let env_at_test = Hashtbl.copy ctx.env in
  ctx.cur <- body_blk;
  lower_stmt ctx body;
  set_term ctx (Jump { target = header.label; jargs = current_values ctx loop_ids });
  let env_after_body = Hashtbl.copy ctx.env in
  ctx.cur <- exit_blk;
  join_env ctx env_at_test [ env_after_body ];
  Oconst Cvoid

and lower_closure ctx fexpr =
  (* [fexpr] is a normalised Function[{params}, body]; lift it *)
  let params_e, body =
    match fexpr with
    | Expr.Normal (_, [| p; b |]) -> (p, b)
    | _ -> Errors.compile_errorf "malformed inner Function"
  in
  let param_syms =
    match params_e with
    | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list ->
      Array.to_list items
      |> List.map (function
          | Expr.Sym s -> s
          | e -> Errors.compile_errorf "bad closure parameter %s" (Expr.to_string e))
    | Expr.Sym s -> [ s ]
    | e -> Errors.compile_errorf "bad closure parameters %s" (Expr.to_string e)
  in
  (* captured = free symbols of body bound in the enclosing environment *)
  let free = Binding.free_symbols body ~bound:param_syms in
  let captured =
    List.filter_map
      (fun s -> match lookup ctx s with Some op -> Some (s, op) | None -> None)
      free
  in
  let lifted_name = Printf.sprintf "%s`lambda%d" ctx.fn_name (Id_gen.next ctx.label_gen) in
  (* build the lifted function: params = captured ++ params *)
  let cap_params =
    List.map (fun (s, _) -> (s, fresh_var ~name:(Symbol.name s) ())) captured
  in
  let arg_params = List.map (fun s -> (s, fresh_var ~name:(Symbol.name s) ())) param_syms in
  let inner_entry_params = Array.of_list (List.map snd (cap_params @ arg_params)) in
  let inner_entry =
    { label = 0; bparams = [||]; instrs = []; term = Unreachable }
  in
  let inner_ctx =
    {
      options = ctx.options;
      prog_funcs = ctx.prog_funcs;
      self = ctx.self;
      fn_name = lifted_name;
      label_gen = Id_gen.create ();
      cur = inner_entry;
      blocks = [ inner_entry ];
      env = Hashtbl.create 16;
      names = Hashtbl.create 16;
      unjoined = ctx.unjoined;
    }
  in
  ignore (Id_gen.next inner_ctx.label_gen); (* label 0 = entry *)
  List.iteri
    (fun i (s, v) ->
       inner_ctx.cur.instrs <- inner_ctx.cur.instrs @ [ Load_argument { dst = v; index = i } ];
       Hashtbl.replace inner_ctx.env (Symbol.id s) (Ovar v);
       Hashtbl.replace inner_ctx.names (Symbol.id s) (Symbol.name s))
    (cap_params @ arg_params);
  let result = lower inner_ctx body in
  inner_ctx.cur.term <- Return result;
  let lifted =
    {
      fname = lifted_name;
      fparams = inner_entry_params;
      ret_ty = None;
      blocks = List.rev inner_ctx.blocks;
      finline = false;
      fsource = Some fexpr;
    }
  in
  ctx.prog_funcs := !(ctx.prog_funcs) @ [ lifted ];
  let dst = fresh_var ~name:"closure" () in
  emit ctx
    (New_closure
       { dst; fname = lifted_name; captured = Array.of_list (List.map snd captured) });
  Ovar dst

and lower_kernel_closure ctx f =
  ignore ctx;
  Errors.compile_errorf
    "first-class KernelFunction is not supported; apply it directly: KernelFunction[%s][…]"
    (Expr.to_string f)

let lower_function ~options ~name (analyzed : Binding.analyzed) ~source =
  let entry = { label = 0; bparams = [||]; instrs = []; term = Unreachable } in
  let prog_funcs = ref [] in
  let ctx =
    {
      options;
      prog_funcs;
      self = options.Options.self_name;
      fn_name = name;
      label_gen = Id_gen.create ();
      cur = entry;
      blocks = [ entry ];
      env = Hashtbl.create 32;
      names = Hashtbl.create 32;
      unjoined = Hashtbl.create 8;
    }
  in
  ignore (Id_gen.next ctx.label_gen);
  let fparams =
    Array.of_list
      (List.mapi
         (fun i (p : Binding.param) ->
            let ty = Option.map Types.instantiate p.pspec in
            let v = fresh_var ~name:(Symbol.name p.psym) ?ty () in
            ctx.cur.instrs <- ctx.cur.instrs @ [ Load_argument { dst = v; index = i } ];
            Hashtbl.replace ctx.env (Symbol.id p.psym) (Ovar v);
            Hashtbl.replace ctx.names (Symbol.id p.psym) (Symbol.name p.psym);
            v)
         analyzed.params)
  in
  List.iter
    (fun l -> Hashtbl.replace ctx.names (Symbol.id l) (Symbol.name l))
    analyzed.locals;
  let result = lower ctx analyzed.body in
  ctx.cur.term <- Return result;
  let fn =
    {
      fname = name;
      fparams;
      ret_ty = None;
      blocks = List.rev ctx.blocks;
      finline = true;
      fsource = Some source;
    }
  in
  { funcs = fn :: !prog_funcs; pmeta = [] }
