(** Shared CLI plumbing: input loading and the unified failure guard.

    Every binary of the toolchain reports failures the same way:
    {!Bisa_base.Diag}-formatted lines on stderr, one per diagnostic (a
    single line for every failure but a verification rejection), and a
    nonzero exit code — never an uncaught-exception backtrace.  [guard]
    maps failure exceptions through the serving engine's mapping, so a
    CLI and the daemon's [Err] replies cannot disagree on them; a new
    binary gets the whole contract by wrapping its body in
    [guard ~component]. *)

val read_source : ?scale:int -> component:string -> string -> string * string list
(** [read_source ~component path_or_name] returns MiniC source text plus
    the library functions it expects: the file's contents when
    [path_or_name] exists, else the built-in workload of that name
    ([scale] overrides a workload's iteration scale; files ignore it).
    Raises {!Bisa_base.Diag.Fail} (naming [component]) when neither. *)

val guard :
  component:string ->
  (unit -> ([> `Error of bool * string | `Ok of unit ] as 'a)) ->
  'a
(** Run [f], converting every toolchain failure that
    {!Bisa_serve.Engine.diags_of_exn} knows into [`Error (false, line)]
    — the last diagnostic, rendered on one line, after the others on
    stderr — which cmdliner's [Term.ret] turns into a nonzero exit. *)
