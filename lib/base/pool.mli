(** Fixed-size [Domain]-based worker pool with futures.

    One pool serves a whole run: the experiment grids, the fuzz
    campaigns, and the benchmark harness all share it so the machine is
    never oversubscribed.  [workers] counts the {e total} parallelism,
    including the submitting domain — a pool of size [n] spawns [n - 1]
    worker domains, and [await] lends the caller's domain to the queue
    while it waits, so nested [map_list] calls cannot deadlock and
    [~workers:1] degenerates to plain, eager, in-order sequential
    execution with no domains spawned at all.

    Determinism contract: [map_list] returns results in submission order
    no matter which domain ran which item or in what order they
    finished, so any pipeline that derives per-item state
    (e.g. {!Rng.derive} seeds) from the work item itself produces
    byte-identical output at every [workers] setting. *)

type t

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the [-j] default. *)

val create : ?workers:int -> unit -> t
(** [create ~workers ()] spawns [max 1 workers - 1] worker domains
    (default {!default_workers}). *)

val sequential : t
(** A shared size-1 pool: every submission runs eagerly on the caller's
    domain.  The default for library entry points, so nothing is
    parallel unless a CLI threads a real pool through. *)

val workers : t -> int
(** Total parallelism (worker domains + the caller). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Tasks still queued are dropped
    unstarted; call only once every submitted future has been awaited.
    Idempotent. *)

val run : ?workers:int -> (t -> 'a) -> 'a
(** [run ~workers f] is [f pool] bracketed by [create]/[shutdown]. *)

(** {1 Futures} *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  On a size-1 pool the task runs before [submit]
    returns.  Raises [Invalid_argument] after [shutdown]. *)

val await : 'a future -> 'a
(** Block until the task settles, re-raising (with its original
    backtrace) if it raised.  While the task is still queued, the
    awaiting domain executes other queued tasks instead of idling. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with results in input order.  If any item
    raises, the exception of the {e earliest} failing item is re-raised,
    and only after every item has settled (no task outlives the call). *)

(** {1 Once cells}

    A domain-safe replacement for [lazy] (plain [Lazy.force] raises
    [Lazy.Undefined] under concurrent forcing on OCaml 5): the thunk
    runs exactly once, concurrent forcers block until it settles, and an
    exception poisons the cell for every later forcer. *)

module Once : sig
  type 'a cell

  val make : (unit -> 'a) -> 'a cell
  val force : 'a cell -> 'a

  (** The one exactly-once memo: a cell per key, found or installed under
      the table's lock and forced outside it, so for each key one caller
      computes and the others block on its cell. *)
  type ('k, 'a) table

  val table : int -> ('k, 'a) table
  val find : ('k, 'a) table -> 'k -> 'a cell option

  val find_or_add : ('k, 'a) table -> 'k -> (unit -> 'a) -> 'a cell
  (** [k]'s cell, installed from the thunk if absent; no other thunk runs. *)

  val memo : ('k, 'a) table -> 'k -> (unit -> 'a) -> 'a
  (** [force] of {!find_or_add}'s cell. *)

  val remove : ?cell:'a cell -> ('k, 'a) table -> 'k -> unit
  (** Drop [k]'s cell; with [~cell], only if [k] still maps to it. *)

  val length : ('k, 'a) table -> int
end
