(* Shared pieces of the benchmark runner: order statistics, the runner's own
   span recorder, the host block, and the result record every workload
   returns. *)

let now_ns = Wolf_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---- order statistics ------------------------------------------------ *)

module Stats = struct
  let sorted xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a

  (* linear interpolation between closest ranks, as Python's
     statistics.quantiles(method="inclusive") and numpy's default *)
  let quantile xs q =
    let a = sorted xs in
    let n = Array.length a in
    if n = 0 then nan
    else begin
      let h = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor h) in
      let hi = min (n - 1) (lo + 1) in
      (* equal neighbours short-cut, so infinite samples (failed requests)
         interpolate to infinity rather than nan *)
      if a.(hi) = a.(lo) then a.(lo)
      else a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    end

  let median xs = quantile xs 0.5

  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

  let geomean = function
    | [] -> nan
    | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))

  (* geometric mean of the per-pair ratios of two aligned sample lists.
     Calls made next to each other share the host's momentary speed, which
     the ratio cancels; the mean, unlike the median, does not jump when a
     call time has two modes in nearly equal shares *)
  let paired_geomean num den = geomean (List.map2 ( /. ) num den)
end

let json_str s = "\"" ^ Wolf_obs.Json_min.escape s ^ "\""

(* ---- the runner's own spans ------------------------------------------ *)

(* Spans recorded by the runner around each call into a layer.  Kept apart
   from Wolf_obs.Trace, so a traced run adds these spans and not every span
   the compiler emits; kept in memory (no I/O on the measured path) and
   written out when the run ends.
   [key] ties the spans of one operation together (a program index, a
   request id).  Nesting comes from the recording domain's open-span
   stack; spans that are known only after the fact (a request's client
   span, whose start is its due time) are added with [add]. *)
module Spans = struct
  type span = {
    id : int;
    parent : int;        (* -1: a root *)
    name : string;
    key : int;
    t0 : int;            (* ns *)
    t1 : int;
  }

  let on = ref false
  let lock = Mutex.create ()
  let recorded : span list ref = ref []
  let stack : int list ref = ref []
  let next_id = ref 0

  let fresh_id () =
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    Mutex.unlock lock;
    id

  let push s =
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock

  let add ~key name t0 t1 =
    push { id = fresh_id (); parent = -1; name; key; t0; t1 }

  (* single-domain nesting: only the runner's main thread opens spans *)
  let with_span ?(key = 0) name f =
    if not !on then f ()
    else begin
      let id = fresh_id () in
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
            let t1 = now_ns () in
            stack := List.tl !stack;
            push { id; parent; name; key; t0; t1 })
        f
    end

  let all () = List.rev !recorded

  (* self time = duration minus the part of it covered by child spans *)
  let self_times () =
    let spans = all () in
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
         if s.parent >= 0 then
           Hashtbl.replace child s.parent
             (s.t1 - s.t0
              + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
      spans;
    List.map
      (fun s ->
         let kids = Option.value ~default:0 (Hashtbl.find_opt child s.id) in
         (s, s.t1 - s.t0 - kids))
      spans

  (* total self time of the spans with this name *)
  let self_ms name =
    List.fold_left
      (fun acc (s, self) -> if s.name = name then acc + self else acc)
      0 (self_times ())
    |> ms_of_ns

  (* Chrome trace (complete events), loadable in Perfetto *)
  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i (s, self) ->
         Printf.fprintf oc
           "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
            \"dur\":%.3f,\"args\":{\"key\":%d,\"self_us\":%.3f}}"
           (if i = 0 then "" else ",")
           (json_str s.name)
           (float_of_int s.t0 /. 1e3)
           (float_of_int (s.t1 - s.t0) /. 1e3)
           s.key
           (float_of_int self /. 1e3))
      (self_times ());
    output_string oc "\n]}\n";
    close_out oc
end

(* ---- host and process facts ------------------------------------------ *)

let read_command cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    line
  | exception _ -> None

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        (match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
         | kb -> float_of_int kb /. 1024.0
         | exception _ -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

(* MD5 over the sources that make up the system under test, so a record
   identifies the code even in a checkout that is not a git repository *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
           then files := p :: !files)
        entries
  in
  List.iter walk [ "lib"; "bin"; "bench" ];
  let parts =
    List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
      (List.sort compare !files)
  in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let host_json () =
  let flambda =
    match read_command "ocamlopt -config-var flambda" with
    | Some v -> v
    | None -> "unknown"
  in
  let cc = Option.value ~default:"none" (read_command "cc --version") in
  let commit =
    (* the ceiling keeps git from reporting an enclosing repository *)
    let ceiling = Filename.dirname (Sys.getcwd ()) in
    read_command
      (Printf.sprintf "GIT_CEILING_DIRECTORIES=%s git rev-parse HEAD"
         (Filename.quote ceiling))
  in
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml\":%s,\"flambda\":%s,\"cc\":%s,\"jit_available\":%b,\
     \"git_commit\":%s,\"source_digest\":%s}"
    (Domain.recommended_domain_count ())
    (json_str Sys.ocaml_version) (json_str flambda) (json_str cc)
    (Wolf_backends.Jit.available ())
    (match commit with Some c -> json_str c | None -> "null")
    (json_str (source_digest ()))

(* ---- what a workload returns ----------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;   (* the per-operation samples behind [value] *)
}

let metric ?(samples = []) name unit_ value = { name; unit_; value; samples }

(* a percentile is only reported where at least ten samples lie beyond it *)
let percentile name unit_ xs q =
  let n = List.length xs in
  if n - 1 - int_of_float (Float.floor (q *. float_of_int (n - 1))) >= 10 then
    [ metric ~samples:xs name unit_ (Stats.quantile xs q) ]
  else []

type result = {
  attempted : int;
  failed : int;
  errors : string list;   (* first few failure descriptions *)
  metrics : metric list;
}

(* failure bookkeeping shared by the workloads *)
module Tally = struct
  type t = { mutable attempted : int; mutable failed : int;
             mutable errors : string list }

  let create () = { attempted = 0; failed = 0; errors = [] }

  let ok t = t.attempted <- t.attempted + 1

  let fail t msg =
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.errors < 8 then t.errors <- msg :: t.errors

  let check t cond msg = if cond then ok t else fail t (msg ())
end

(* --inject-fault: the self-test's proof that a wrong output is caught *)
let inject_fault = ref false

(* seeded inputs, independent of every global PRNG the system uses *)
let rng seed salt = Random.State.make [| seed; salt |]

(* numeric agreement of two runtime values (compiled vs reference) *)
let close a b =
  a = b
  || Float.abs (a -. b)
     <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let same_value (x : Wolf_runtime.Rtval.t) (y : Wolf_runtime.Rtval.t) =
  let module T = Wolf_wexpr.Tensor in
  match x, y with
  | Int a, Int b -> a = b
  | Real a, Real b -> close a b
  | Tensor a, Tensor b ->
    T.dims a = T.dims b
    && begin
      let get t i =
        if T.is_int t then float_of_int (T.get_int t i) else T.get_real t i
      in
      let ok = ref true in
      for i = 0 to T.flat_length a - 1 do
        if not (close (get a i) (get b i)) then ok := false
      done;
      !ok
    end
  | _ -> false

(* Closed-loop rounds, shared by fig2 and parloop.  Each round calls every
   program's arms once, in an order that rotates from round to round so
   drift and cache state hit every arm alike.  [call ~round p a] prepares
   the arguments and returns the call to time; [check p results] judges
   the program's results, arm 0 being the reference.  Runs for [seconds]
   and at least ten rounds; a traced run traces every other round.
   Returns the per-call times in ns, [samples.(p).(a)] aligned by round,
   arm 1's times split into (traced, untraced), and the round count. *)
let rounds ~seconds ~traced ~programs ~arm_names ~call ~check =
  let arms = Array.length arm_names in
  let samples = Array.init programs (fun _ -> Array.make arms []) in
  let split = Array.init programs (fun _ -> ([], [])) in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  while now_ns () < deadline || !round < 10 do
    let tr = traced && !round mod 2 = 1 in
    Spans.on := tr;
    for p = 0 to programs - 1 do
      let results = Array.make arms None in
      for k = 0 to arms - 1 do
        let a = (k + !round) mod arms in
        let f = call ~round:!round p a in
        let t0 = now_ns () in
        let r = Spans.with_span ~key:p arm_names.(a) f in
        let x = float_of_int (now_ns () - t0) in
        results.(a) <- Some r;
        samples.(p).(a) <- x :: samples.(p).(a);
        if a = 1 then begin
          let tr_s, un_s = split.(p) in
          split.(p) <- (if tr then (x :: tr_s, un_s) else (tr_s, x :: un_s))
        end
      done;
      check p (Array.map Option.get results)
    done;
    incr round
  done;
  Spans.on := false;
  (samples, split, !round)
