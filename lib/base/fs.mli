(** Small filesystem helpers shared by the CLIs, the campaign runner, the
    daemon's spool, the crash and chaos harnesses and the benchmarks. *)

val read_file : string -> string
(** The whole file as bytes.  The channel is closed on every path, so a
    path that opens but cannot be read (a directory, say) raises
    [Sys_error] without leaking a descriptor. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory,
    or one a concurrent process creates first, is not an error. *)

val rm_rf : string -> unit
(** Best-effort recursive delete: a missing path is a no-op, and entries
    that cannot be removed are left behind rather than raising. *)

val vm_hwm_kb : unit -> int
(** Peak resident set size of this process in KB, from
    [/proc/self/status]; 0 where unavailable. *)
