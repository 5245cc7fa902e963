(** The one byte codec of every binary format bisa reads back:
    executable images ([Bisa_isa.Encode]), bisad wire payloads
    ([Bisa_proto.Proto]), spool entries, checkpoint snapshots and
    campaign cells.

    Integers are zigzag-varint with the full 63-bit range, floats are
    IEEE-754 bits, and {!W.section} / {!R.section} frame each component
    so a snapshot that no longer matches the code fails with the
    component's name.

    Every reader failure raises a structured {!Bisa_base.Diag.Fail}.  A
    reader built with a [~section] is located: the diagnostic carries the
    reader's component and [Byte {offset; section}] at the byte the read
    failed on.  A reader built without one raises component ["codec"]
    and gives the offset in the message.  No reader allocates more than
    its input bounds: an array or string whose length exceeds the bytes
    left is rejected before anything of that length is allocated.

    {!seal} and {!unseal} are the one envelope of every persisted file:
    magic, format version, identity, body length and the FNV-1a 64 hash
    of the body, so any single changed byte is rejected.  {!write_sealed}
    and {!read_sealed} are the one way such a file reaches the disk and
    comes back. *)

module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val int : t -> int -> unit
  val i64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val bytes : t -> Bytes.t -> unit

  val byte : t -> int -> unit
  (** One raw byte, the low 8 bits. *)

  val float64 : t -> float -> unit
  (** A float as its 8 IEEE-754 bytes, little-endian. *)

  val magic : t -> string -> unit
  (** Raw bytes, no length. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val int_array : t -> int array -> unit
  val float_array : t -> float array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val section : t -> string -> unit
  (** Write a named section marker the reader will verify. *)
end

module R : sig
  type t

  val of_string : ?pos:int -> ?component:string -> ?section:string -> string -> t
  (** [~section] (with [~component], default ["codec"]) makes a located
      reader. *)

  val pos : t -> int
  val at_end : t -> bool

  val set_section : t -> string -> unit
  (** Name the section a located reader is in; no effect on a reader
      built without one. *)

  val fail : t -> ('a, unit, string, 'b) format4 -> 'a
  (** Reject the input at the reader's position, as a failed read
      would. *)

  val int : t -> int
  val i64 : t -> int64
  val bool : t -> bool
  val float : t -> float
  val string : t -> string
  val bytes : t -> Bytes.t
  val byte : t -> int
  val float64 : t -> float

  val magic : t -> string -> unit
  (** Check that the next bytes are exactly the given ones. *)

  val array : t -> (t -> 'a) -> 'a array
  (** Each element must take at least one byte: a length above the bytes
      left fails before the array is allocated. *)

  val int_array : t -> int array
  val float_array : t -> float array
  val option : t -> (t -> 'a) -> 'a option

  val section : t -> string -> unit
  (** Check the next marker is the named section; raises {!Bisa_base.Diag.Fail}
      naming both sections otherwise.  A located reader is then in that
      section. *)
end

val seal : magic:string -> version:int -> id:string -> W.t -> string
(** [seal ~magic ~version ~id body] is the file: [body]'s bytes behind a
    header of the magic, the version, the identity, the body's length and
    its FNV-1a 64 hash. *)

val unseal :
  component:string ->
  magic:string ->
  version:int ->
  id:(string -> bool) ->
  string ->
  string * R.t
(** Check a sealed file and return its identity and a reader at the
    body's first byte, located in section ["body"].  A wrong magic or
    version, an identity [id] refuses, a length that is not the body's or
    a body that does not hash to the stored sum raises a
    {!Bisa_base.Diag.Fail} of [component], located in section
    ["envelope"]. *)

(** {1 Sealed files}

    The one path of checkpoint snapshots, campaign cells and spool
    entries to the disk and back.  Nothing is fsynced: the guarantee is
    against the death of the process (DESIGN.md section 13). *)

val write_sealed : magic:string -> version:int -> id:string -> string -> W.t -> unit
(** [write_sealed ~magic ~version ~id path body] writes [seal]'s file as
    [PATH.next] (through {!Atomic_file.write}), removes [PATH] and renames
    [PATH.next] to [PATH], first handing over a [PATH.next] a killed write
    left.  A kill between any two steps leaves the newest copy findable.
    Writers of one path in several domains take turns. *)

val read_sealed :
  component:string ->
  magic:string ->
  version:int ->
  id:(string -> bool) ->
  string ->
  (string * R.t) option
(** [unseal] of the newest copy that unseals, [PATH.next] then [PATH];
    [None] if neither exists.  If none unseals, the newest one's failure
    is raised with its message naming that file: ["FILE: <reason>"]. *)

val remove_sealed : string -> unit

val sealed_names : string -> string list
(** A directory's file names, sorted, each once, with a [NAME.next]
    copy listed as [NAME], the path {!read_sealed} finds it by. *)

type publish_step =
  | Published  (** [PATH.next] is complete, [PATH] not yet removed *)
  | Removed  (** [PATH] is gone, [PATH.next] not yet renamed to it *)

val publish_hook : (publish_step -> unit) option ref
(** Test hook run between the steps of every {!write_sealed} (the step
    before, a temp file not yet renamed, is {!Atomic_file}'s); a hook
    that raises dies there.  Always [None] in production. *)

val fnv1a64 : string -> int64
(** FNV-1a 64 content hash, used to bind snapshots to the exact program
    bytes and configuration they were taken under, to key the daemon's
    caches, and to seal persisted files.  Allocates a 28-byte {!Fnv}
    state and its result; the bytes themselves allocate nothing. *)

(** FNV-1a 64 fed piece by piece: feeding [a] then [b] gives
    [fnv1a64 (a ^ b)] without building [a ^ b], and no feed allocates. *)
module Fnv : sig
  type t

  val create : unit -> t
  val string : t -> string -> unit

  val int : t -> int -> unit
  (** The bytes of [string_of_int n]. *)

  val value : t -> int64
  (** The hash of everything fed so far. *)
end

val hex64 : int64 -> string
(** 16 lowercase hex digits, two's complement (as [%016Lx] prints). *)

val hash_hex : string -> string
(** [hex64 (fnv1a64 s)]. *)
