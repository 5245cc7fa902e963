(** Shared CLI plumbing: input loading and the unified failure guard.

    Every binary of the toolchain reports failures the same way: one
    {!Bisa_base.Diag}-formatted line on stderr and a nonzero exit code —
    never an uncaught-exception backtrace.  [guard] is the single place
    that knows the toolchain's failure exceptions; a new binary gets the
    whole contract by wrapping its body in [guard ~component]. *)

val read_source : ?scale:int -> component:string -> string -> string * string list
(** [read_source ~component path_or_name] returns MiniC source text plus
    the library functions it expects: the file's contents when
    [path_or_name] exists, else the built-in workload of that name
    ([scale] overrides a workload's iteration scale; files ignore it).
    Raises {!Bisa_base.Diag.Fail} (naming [component]) when neither. *)

val cache_of_kb : int -> Bisa_uarch.Cache.config option
(** The standard [--icache-kb] interpretation: 0 is a perfect icache,
    anything else a 4-way, 32-byte-line cache of that size. *)

val guard :
  component:string ->
  (unit -> ([> `Error of bool * string | `Ok of unit ] as 'a)) ->
  'a
(** Run [f], converting every toolchain failure — compile errors,
    malformed binaries, {!Bisa_base.Diag.Fail}, executor runaways and
    illegal fetches, and [Sys_error] — into [`Error (false, line)] with a
    rendered one-line diagnostic, which cmdliner's [Term.ret] turns into
    a nonzero exit. *)
