(** In-memory spans recorded by the benchmark around its calls into each
    layer, written out as Chrome trace_event JSON when the run ends.

    Every entry point takes a [t option]: with [None] (untraced runs) a
    span costs one branch, so the end-to-end numbers are measured with
    tracing off.  A span records its name, layer, domain, start, end,
    parent and — for daemon requests — a request id. *)

type t

type span = {
  id : int;
  name : string;
  layer : string;  (** the layer its self time is charged to *)
  dom : int;  (** domain that ran it; the Chrome thread id *)
  t0 : float;
  t1 : float;
  parent : int;  (** 0 for a root *)
  req : int;  (** request id, -1 when none *)
}

val create : unit -> t

val span : t option -> ?req:int -> ?outer:int -> layer:string -> string -> (unit -> 'a) -> 'a
(** [span tr ~layer name f] runs [f] inside a span.  Its parent is the
    innermost open span on the calling domain, else [outer] (a span open
    on another domain, for work handed to a helper domain), else none. *)

val current : t option -> int
(** The innermost open span on the calling domain, 0 when none. *)

val record :
  t -> ?parent:int -> ?dom:int -> layer:string -> name:string -> t0:float -> t1:float -> unit -> unit
(** Add a span measured elsewhere (phase timings, hook intervals).
    [dom] defaults to the calling domain and [parent] to {!current}. *)

val phases : t option -> layer:string -> t0:float -> (string * float) list -> unit
(** Lay [(name, seconds)] phase timings ({!Bisa_obs.Span.list}) out back
    to back from [t0] as children of the current span. *)

val spans : t -> span list
(** Every recorded span, in no particular order. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the time covered by
    its children on the same domain. *)

val check_nesting : span list -> (unit, string) result
(** Every span lies inside its parent's interval. *)

val to_chrome_json : t -> string
(** Chrome trace_event JSON ([Bisa_obs.Trace.validate]'s dialect): one
    thread per domain, begin/end pairs nested by parent, request ids and
    parents in [args]. *)
