(* The one temp+rename writer.  A file is written under a name that no
   other writer uses — pid and a per-process counter, so neither two
   domains nor two processes ever share a temp file — in the destination's
   own directory, so the rename stays on one file system and is atomic:
   a reader sees the old file or the new one, never a torn one.  The name
   ends in [.tmp], not in the destination's extension, so a reader that
   lists a directory by extension (flight dumps, [*.wfr]) skips it. *)

let prefix = "tmp."
let serial = Atomic.make 0

let is_temp name = String.starts_with ~prefix name

let publish ?(before_rename = ignore) ~dest write =
  let tmp =
    Filename.concat (Filename.dirname dest)
      (Printf.sprintf "%s%d.%d.%s.tmp" prefix (Unix.getpid ())
         (Atomic.fetch_and_add serial 1) (Filename.basename dest))
  in
  match
    let r = write tmp in
    before_rename ();
    Sys.rename tmp dest;
    r
  with
  | r -> r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
