(* Invoke the system C compiler on an emitted translation unit and produce
   a self-contained executable.  The compile goes to a temporary path next
   to the requested output and is renamed into place only on success, so a
   failed build never leaves a half-written or stale binary behind. *)

let default_cc () =
  match Sys.getenv_opt "WOLF_CC" with Some cc when cc <> "" -> cc | _ -> "cc"

(* memoized probe (same discipline as the fuzz oracle's: an atomic int, not
   a lazy, so concurrent domains can race the probe harmlessly) *)
let cc_state = Atomic.make 0

let available ?cc () =
  match cc, Atomic.get cc_state with
  | None, 1 -> true
  | None, 2 -> false
  | _ ->
    let cc = match cc with Some c -> c | None -> default_cc () in
    let yes =
      Sys.command (Printf.sprintf "%s --version >/dev/null 2>&1" (Filename.quote cc))
      = 0
    in
    (match Atomic.get cc_state with
     | 0 -> Atomic.set cc_state (if yes then 1 else 2)
     | _ -> ());
    yes

(* run [argv] without a shell, capturing stderr (diagnostics) to a string *)
let run_command argv =
  let err_file = Filename.temp_file "wolf_cc" ".err" in
  let read_and_remove () =
    let text =
      try
        let ic = open_in_bin err_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with _ -> ""
    in
    (try Sys.remove err_file with _ -> ());
    text
  in
  match
    let fd = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let pid =
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Unix.create_process argv.(0) argv Unix.stdin Unix.stdout fd)
    in
    let _, status = Unix.waitpid [] pid in
    status
  with
  | Unix.WEXITED 0 -> Ok (read_and_remove ())
  | Unix.WEXITED n ->
    Error (Printf.sprintf "%s exited %d:\n%s" argv.(0) n (read_and_remove ()))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "%s killed by signal %d:\n%s" argv.(0) n (read_and_remove ()))
  | exception Unix.Unix_error (e, _, _) ->
    ignore (read_and_remove ());
    Error (Printf.sprintf "cannot run %s: %s" argv.(0) (Unix.error_message e))

exception Cc_failed of string

let build ?cc ?(cflags = []) ?keep_c ~source ~output () =
  let cc = match cc with Some c -> c | None -> default_cc () in
  let c_file =
    match keep_c with
    | Some path -> path
    | None -> Filename.temp_file "wolf_build" ".c"
  in
  let cleanup () = if keep_c = None then (try Sys.remove c_file with _ -> ()) in
  Fun.protect ~finally:cleanup @@ fun () ->
  let oc = open_out c_file in
  output_string oc source;
  close_out oc;
  (* the output path is never observed half-written *)
  match
    Wolf_obs.Atomic_file.publish ~dest:output (fun tmp_exe ->
        match
          run_command
            (Array.of_list
               ([ cc; "-O2" ] @ cflags @ [ "-o"; tmp_exe; c_file; "-lm" ]))
        with
        | Ok _warnings -> ()
        | Error e -> raise (Cc_failed e))
  with
  | () -> Ok ()
  | exception Cc_failed e -> Error e
  | exception Sys_error e ->
    Error (Printf.sprintf "cannot move binary to %s: %s" output e)
