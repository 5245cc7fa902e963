(** The bisad wire protocol: typed requests and responses, their binary
    codec, and the length-prefixed framing both ends speak.

    This is the shared vocabulary of the one-shot CLIs and the daemon:
    the CLI argument terms ({!Bisa_cli.Args}) build these request values,
    the daemon engine consumes them, and the render helpers reproduce the
    one-shot CLI's stdout byte for byte, so cached daemon replies can be
    diffed directly against [bisasim] output.

    Decode failures — framing or payload — raise {!Bisa_base.Diag.Fail}
    with component ["proto"] and a {!Bisa_base.Diag.loc} of
    [Byte {offset; section}] naming the byte the reader had reached, in
    the style of [Encode.Malformed]: malformed or truncated input yields
    a diagnostic, never a crash or a hang. *)

val version : string
(** Protocol version string, leading every payload. *)

val max_frame : int
(** Hard cap on payload length; the length prefix is validated against it
    before any allocation. *)

(** {1 Request and response values} *)

type isa = Conv | Block

val isa_name : isa -> string

type prog_src =
  | Source of { src : string; libs : string list }
      (** MiniC source text plus the workload's library functions. *)
  | Conv_bin of string  (** [bisac --emit conv-bin] image bytes. *)
  | Block_bin of string  (** [bisac --emit block-bin] image bytes. *)

type sim_cfg = {
  icache_kb : int;  (** 0 = perfect icache. *)
  perfect_pred : bool;
  budget : int;
  out_cap : int option;
  deadline : float option;
      (** Per-request wall-clock deadline in seconds: the daemon answers
          a request past it with a structured deadline [Err] (see
          {!deadline_diag}) instead of holding the connection.  Not part
          of the result-cache key — it bounds the wait, not the
          result. *)
}

val default_sim_cfg : sim_cfg
(** The one-shot CLI defaults: 16KB icache, real predictor, the default
    op budget, unbounded output retention. *)

val cache_of_kb : int -> Bisa_uarch.Cache.config option
(** [0] means a perfect (absent) icache; anything else is a 4-way,
    32B-line cache of that size.  The single definition behind both the
    CLIs' [--icache-kb] and the daemon's requests. *)

val to_config : sim_cfg -> Bisa_timing.Config.t
(** The one canonical [sim_cfg] -> {!Bisa_timing.Config.t} translation;
    its fingerprint is the configuration half of the daemon's cache
    key. *)

type sim_mode = Timing | Functional

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of { src : prog_src; isa : isa }
  | Verify of { src : prog_src }
      (** Verify every executable the source carries (both ISAs for MiniC
          source), like [bisasim --verify-only]. *)
  | Simulate of {
      src : prog_src;
      isa : isa;
      mode : sim_mode;
      exec : Bisa_sim.Compile.backend;
      cfg : sim_cfg;
      show_output : bool;
    }
  | Cell of {
      bench : string;  (** Built-in workload name. *)
      scale : int option;
      isa : isa;
      exec : Bisa_sim.Compile.backend;
      cfg : sim_cfg;
    }
  | Batch of request list
      (** Sharded across the daemon's worker pool; nesting is rejected at
          both ends. *)

type stats = {
  served : int;
  sim_hits : int;
  sim_misses : int;
  artifacts : int;
  results : int;
  spooled : int;
  spool_skipped : int;
      (** Unreadable spool entries skipped (and logged) at reload. *)
  inflight_peak : int;
  rss_kb : int;
}

type response =
  | Pong of { server : string }
  | Binary of { isa : isa; bytes : string; prog_hash : int64 }
  | Verdict of { diags : Bisa_base.Diag.t list }  (** [[]] = verify OK. *)
  | Sim of { stdout : string; notes : string; prog_hash : int64; cached : bool }
      (** [stdout] is byte-identical to the one-shot [bisasim] stdout for
          the same request; [notes] carries rendered machine-trap
          diagnostics the CLI would print to stderr. *)
  | Cell_done of { summary : string; prog_hash : int64; cached : bool }
  | Stats_r of stats
  | Bye
  | Batch_r of response list
  | Err of Bisa_base.Diag.t list

(** {1 Canonical stdout rendering}

    Exactly the one-shot CLI's print statements, as strings — the daemon
    caches and replays these, and the smoke tests diff them against the
    real [bisasim] binary. *)

val render_functional : show_output:bool -> out:string -> ops:int -> ret:int -> string
val render_timing : show_output:bool -> out:string -> summary:string -> string

(** {1 Structured retryable / terminal error markers}

    The retrying client must distinguish "try again" (busy server) from
    "your request is over" (deadline expired) without parsing prose;
    both diagnostics are built and recognized here, by a stable message
    prefix shared by both ends of the wire. *)

val busy_diag : inflight:int -> limit:int -> Bisa_base.Diag.t
(** The admission-control rejection: safe to retry with backoff. *)

val deadline_diag : deadline:float -> ops:int -> Bisa_base.Diag.t
(** The cooperative-deadline expiry: terminal, never retried. *)

val is_busy_err : response -> bool
val is_deadline_err : response -> bool

val request_deadline : request -> float option
(** The deadline a request carries, if any ([Simulate]/[Cell] only). *)

(** {1 Payload codec} *)

val encode_request : request -> string
(** Raises [Invalid_argument] on a nested [Batch] — a client bug, not a
    wire condition. *)

val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

val write_diag : Bisa_base.Codec.W.t -> Bisa_base.Diag.t -> unit
val read_diag : Bisa_base.Codec.R.t -> Bisa_base.Diag.t

(** {1 Framing}

    A frame is a 4-byte big-endian payload length followed by the
    payload. *)

val frame : string -> string
(** Prepend the length prefix; raises on payloads beyond {!max_frame}. *)

val peel_frame : Buffer.t -> int -> (string * int) option
(** [peel_frame buf pos] returns the next complete payload starting at
    [pos] and the position after it, or [None] if more bytes are needed.
    Raises on a length prefix beyond {!max_frame} — the connection has
    nothing left to resynchronize on and must be dropped. *)

val write_frame : Unix.file_descr -> string -> unit

val read_frame : Unix.file_descr -> string option
(** Blocking read of one frame; [None] on a clean EOF before any header
    byte, raises on a torn frame or oversized length. *)
