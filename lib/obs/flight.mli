(** Slow-request flight recorder.

    Completed request timelines are appended to a bounded per-domain ring
    as compact binary records (varints + length-prefixed strings, not
    JSON).  A request that ends with a triggering outcome ([deadline],
    [cancelled], [overloaded]) or whose total latency breaches the
    configured threshold causes the whole ring — every domain's recent
    history — to be dumped atomically ({!Atomic_file}) into the configured
    directory, rate-limited to one dump per suppression window.  Dumps are
    read back with {!read_file} and rendered with {!describe} (the
    [wolfc flight] pretty-printer). *)

type phase = {
  ph_name : string;                   (** decode, queue_wait, eval, … *)
  ph_domain : int;                    (** domain id the phase ran on *)
  ph_start_ns : int;
  ph_dur_ns : int;
}

type record = {
  fr_rid : int;
  fr_sid : int;
  fr_label : string;                  (** ["s<sid>.r<rid>"] — the trace_id *)
  fr_op : string;
  fr_outcome : string;
  fr_start_ns : int;
  fr_total_ns : int;
  fr_phases : phase list;             (** chronological *)
}

type dump = {
  d_reason : string;                  (** deadline/cancelled/overloaded/slow/manual *)
  d_trigger : record option;          (** the offending request, if any *)
  d_records : record list;            (** ring contents, oldest first per ring *)
}

(* configuration *)

val set_dir : string option -> unit
(** Where dumps go; [None] (the default) disables dumping — records still
    accumulate in the rings.  Creates the directory if missing. *)

val set_threshold_ms : float -> unit
(** Latency trigger; [<= 0] disables the threshold (outcome triggers
    remain).  Default: disabled. *)

val set_capacity : int -> unit
(** Per-domain ring capacity (default 256); applies to rings created
    afterwards. *)

val set_suppress_window_ms : float -> unit
(** Minimum spacing between automatic dumps (default 100ms). *)

(* recording *)

val record : record -> string option
(** Append to the calling domain's ring; returns the dump path if this
    record triggered one. *)

val dump : reason:string -> ?trigger:record -> unit -> string option * int
(** Force a dump of every ring ([dump-flight] protocol op).  Returns the
    path and the record count.  The path is [None] when no directory is
    configured, or when the file could not be written — that failure is
    counted ([flight_dumps_failed]), never raised. *)

val snapshot : unit -> record list
(** Decoded ring contents, all domains, sorted by start time (tests). *)

val stats : unit -> int * int * int * int
(** (records appended, dumps written, dumps suppressed, dumps failed). *)

val reset : unit -> unit
(** Clear rings and counters (tests).  Configuration is kept. *)

(* reading *)

val read_file : string -> (dump, string) result
val describe : dump -> string

(* codec, exposed for tests *)

val encode_record : record -> string
val decode_record : string -> int ref -> record
