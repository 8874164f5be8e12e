(* The benchmark runner.

     perfbench --workload fig2|compile|serve|parloop --seed N --seconds S
               --trace 0|1 [--inject-fault]

   Prints one "metric" line per measured metric (name, value, unit, sample
   count, median and quartiles), then as its last line the JSON verdict
   whose metrics are exactly the ones BENCHMARK.json declares: every
   end-to-end metric with --trace 0, every per-layer metric with --trace 1.
   A per-layer metric the workload bypasses reads 0.  The full record (host
   block, every sample) goes to .bench_results/<workload>-seed<N>-trace<T>.json,
   and a traced run also writes its spans next to it. *)

open Common
module J = Wolf_obs.Json_min

let usage () =
  prerr_endline
    "usage: perfbench --workload fig2|compile|serve|parloop --seed N \
     --seconds S --trace 0|1 [--inject-fault]";
  exit 2

(* (name, unit) lists from BENCHMARK.json: the runner prints exactly what
   the benchmark declares *)
let declared key =
  let doc =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | s -> J.parse_exn s
    | exception Sys_error e -> failwith ("cannot read BENCHMARK.json: " ^ e)
  in
  match J.member key doc with
  | None -> failwith ("BENCHMARK.json has no " ^ key)
  | Some l ->
    List.map
      (fun m ->
         match J.member "name" m, J.member "unit" m with
         | Some (J.Str n), Some (J.Str u) -> (n, u)
         | _ -> failwith ("malformed entry in " ^ key))
      (J.to_list l)

let fnum v = Printf.sprintf "%.17g" v

(* JSON has no nan or infinity: a record writes null for them *)
let jnum v = if Float.is_finite v then fnum v else "null"

let summary (m : metric) =
  match m.samples with
  | [] -> ""
  | xs ->
    Printf.sprintf " n=%d median=%s q1=%s q3=%s" (List.length xs)
      (fnum (Stats.median xs)) (fnum (Stats.quantile xs 0.25))
      (fnum (Stats.quantile xs 0.75))

let metric_json (m : metric) =
  Printf.sprintf "%s:{\"value\":%s,\"unit\":%s,\"n\":%d,\"median\":%s,\
                  \"q1\":%s,\"q3\":%s,\"samples\":[%s]}"
    (json_str m.name) (jnum m.value) (json_str m.unit_)
    (List.length m.samples)
    (jnum (Stats.median m.samples))
    (jnum (Stats.quantile m.samples 0.25))
    (jnum (Stats.quantile m.samples 0.75))
    (String.concat "," (List.map jnum m.samples))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) in
  let out_dir = ".bench_results" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--inject-fault" :: r -> inject_fault := true; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let wanted = declared (if traced then "per_layer" else "end_to_end") in
  Wolf_backends.Compiled_function.quiet := true;
  Wolfram.init ();
  (* a daemon that hangs up must show as failed requests, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match !workload with
    | "fig2" -> Work_fig2.run
    | "compile" -> Work_compile.run
    | "serve" -> Work_serve.run
    | "parloop" -> Work_parloop.run
    | _ -> usage ()
  in
  let host = host_json () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\nhost %s\n%!"
    !workload !seed !seconds !trace host;
  let r = run ~seed:!seed ~seconds:!seconds ~traced in
  let error_rate =
    float_of_int r.failed /. float_of_int (max 1 r.attempted)
  in
  let all = r.metrics @ [ metric "error_rate" "ratio" error_rate ] in
  List.iter
    (fun (m : metric) ->
       Printf.printf "metric %s %s %s%s\n" m.name (fnum m.value) m.unit_
         (summary m))
    all;
  List.iter (fun e -> Printf.printf "error %s\n" e) r.errors;
  (* the full record, then the spans of a traced run *)
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace)
  in
  Out_channel.with_open_bin (base ^ ".json") (fun oc ->
      Printf.fprintf oc
        "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\
         \"host\":%s,\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\
         \"metrics\":{%s}}\n"
        (json_str !workload) !seed (fnum !seconds) !trace host r.attempted
        r.failed
        (String.concat "," (List.map json_str r.errors))
        (String.concat "," (List.map metric_json all)));
  if traced then Spans.write (base ^ ".spans.json");
  Printf.printf "record %s.json\n" base;
  (* the verdict: declared metrics only, units as declared *)
  let problems = ref [] in
  let verdict =
    List.map
      (fun (name, unit_) ->
         let v =
           match List.find_opt (fun (m : metric) -> m.name = name) all with
           | Some m when m.unit_ <> unit_ ->
             problems := Printf.sprintf "%s: unit %s, declared %s" name
                 m.unit_ unit_ :: !problems;
             m.value
           | Some m -> m.value
           | None when traced -> 0.0   (* a layer this workload bypasses *)
           | None ->
             problems := (name ^ ": not measured") :: !problems;
             0.0
         in
         let v =
           if Float.is_finite v then v
           else begin
             problems := (name ^ ": not a finite number") :: !problems;
             0.0
           end
         in
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str name)
           (fnum v) (json_str unit_))
      wanted
  in
  List.iter (fun p -> Printf.printf "problem %s\n" p) (List.rev !problems);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (r.failed = 0 && !problems = [])
    (max 1 r.attempted) r.failed (String.concat "," verdict)
