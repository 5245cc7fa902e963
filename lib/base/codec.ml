(* The one byte codec: every binary format bisa reads back is written
   and read here.

   The writer appends zigzag-varint integers (the zigzag of the value
   sign-extended to 64 bits, so max_int-magnitude values round-trip),
   IEEE-754 floats, strings and arrays to a growable buffer; the reader
   mirrors it and turns every malformed read into a structured
   {!Diag.Fail} instead of an exception from the depths of [String].
   Section tags frame each component's state so a snapshot that drifts
   out of sync with the code fails with the section name, not a random
   decode error thousands of bytes later.  A reader built with a section
   locates each failure at the byte it happened on; [seal]/[unseal] wrap
   a persisted body in one checksummed envelope. *)

module W = struct
  type t = Buffer.t

  (* 256 bytes is a minor-heap block, so a short message (a request, a
     reply, a spool entry) never touches the major heap; doubling keeps
     a multi-hundred-KB snapshot linear. *)
  let create () = Buffer.create 256
  let contents = Buffer.contents

  (* LEB128 of a non-negative native int, low 7 bits first. *)
  let rec uint b v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (v land 0x7F lor 0x80));
      uint b (v lsr 7)
    end

  (* A varint whose first group is [low] and whose remaining groups
     encode [rest]: the caller cuts the first group from its wide value,
     and the rest, below 2^57, continues in native ints, so no byte
     boxes an Int64. *)
  let groups b low rest =
    if rest = 0 then Buffer.add_char b (Char.unsafe_chr low)
    else begin
      Buffer.add_char b (Char.unsafe_chr (low lor 0x80));
      uint b rest
    end

  let u64 b v =
    groups b
      (Int64.to_int (Int64.logand v 0x7FL))
      (Int64.to_int (Int64.shift_right_logical v 7))

  let i64 b v =
    (* zigzag so small negative ints stay short *)
    u64 b Int64.(logxor (shift_left v 1) (shift_right v 63))

  (* [i64 b (Int64.of_int v)] without the Int64: with [u] the magnitude
     folded to [v] or [-v-1], the zigzag is [2u + sign], so its first
     group is [(2u + sign) land 0x7F] and the rest is [u lsr 6]. *)
  let int b v =
    let u = v lxor (v asr (Sys.int_size - 1)) in
    groups b (((u lsl 1) lor (v lsr (Sys.int_size - 1))) land 0x7F) (u lsr 6)

  let bool b v = int b (if v then 1 else 0)
  let float b v = u64 b (Int64.bits_of_float v)
  let byte b v = Buffer.add_char b (Char.unsafe_chr (v land 0xFF))
  let float64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)
  let magic = Buffer.add_string

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let bytes b s =
    int b (Bytes.length s);
    Buffer.add_bytes b s

  let array b f a =
    int b (Array.length a);
    Array.iter (f b) a

  let int_array b a = array b int a
  let float_array b a = array b float a

  let option b f = function
    | None -> bool b false
    | Some v ->
      bool b true;
      f b v

  let section b name = string b ("#" ^ name)
end

module R = struct
  (* [section = ""] is a reader built without one: its failures keep the
     component "codec" and carry their offset in the message only. *)
  type t = { s : string; mutable pos : int; component : string; mutable section : string }

  let of_string ?(pos = 0) ?(component = "codec") ?(section = "") s =
    { s; pos; component; section }

  let pos t = t.pos
  let at_end t = t.pos >= String.length t.s
  let set_section t name = if t.section <> "" then t.section <- name

  let fail t fmt =
    Printf.ksprintf
      (fun message ->
        raise
          (Diag.Fail
             (if t.section = "" then
                Diag.error ~component:"codec" ("corrupt snapshot: " ^ message)
              else
                Diag.error ~component:t.component
                  ~loc:(Diag.at_byte ~offset:t.pos ~section:t.section)
                  message)))
      fmt

  (* A failed read: a located reader's Diag carries the offset, an
     unlocated one's message ends with it. *)
  let fail_read t fmt =
    Printf.ksprintf
      (fun m -> if t.section = "" then fail t "%s at byte %d" m t.pos else fail t "%s" m)
      fmt

  (* One bound check a byte: the index below it is unchecked. *)
  let byte t =
    let p = t.pos in
    if p >= String.length t.s then fail_read t "truncated";
    t.pos <- p + 1;
    Char.code (String.unsafe_get t.s p)

  (* The writer's split, read back: a varint is its first byte's group
     and the groups after it, which a native int holds (at most nine
     groups, 63 bits), so no byte boxes an Int64.  A tenth group past
     bit 63 keeps only its low bit, and an eleventh byte is an overrun,
     located where the wide reader located it. *)
  let rest t =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > 56 then fail_read t "varint overruns 64 bits";
      let c = byte t in
      acc := !acc lor ((c land 0x7F) lsl !shift);
      shift := !shift + 7;
      more := c land 0x80 <> 0
    done;
    !acc

  let u64 t =
    let c = byte t in
    if c < 0x80 then Int64.of_int c
    else Int64.(logor (of_int (c land 0x7F)) (shift_left (of_int (rest t)) 7))

  let i64 t =
    let v = u64 t in
    Int64.(logxor (shift_right_logical v 1) (neg (logand v 1L)))

  (* [Int64.to_int (i64 t)] without the Int64: the zigzag's magnitude is
     the varint shifted right once, cut to 63 bits, and its sign is the
     first group's low bit. *)
  let int t =
    let c = byte t in
    let u = if c < 0x80 then c lsr 1 else ((c land 0x7F) lsr 1) lor (rest t lsl 6) in
    u lxor -(c land 1)

  let bool t = int t <> 0
  let float t = Int64.float_of_bits (u64 t)
  let remaining t = String.length t.s - t.pos

  let float64 t =
    if remaining t < 8 then begin
      t.pos <- String.length t.s;
      fail_read t "truncated"
    end;
    let v = String.get_int64_le t.s t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits v

  let magic t m =
    let n = String.length m in
    if remaining t < n || String.sub t.s t.pos n <> m then fail t "bad magic (expected %S)" m;
    t.pos <- t.pos + n

  let string t =
    let n = int t in
    if n < 0 || n > remaining t then
      fail_read t "string of length %d overruns snapshot" n;
    let s = String.sub t.s t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t = Bytes.of_string (string t)

  (* Every element is at least one byte, so a count above the bytes left
     is malformed: checking it first bounds the allocation by the
     input. *)
  let array t f =
    let n = int t in
    if n < 0 then fail_read t "negative array length";
    if n > remaining t then fail_read t "array of length %d overruns input" n;
    Array.init n (fun _ -> f t)

  let int_array t = array t int
  let float_array t = array t float
  let option t f = if bool t then Some (f t) else None

  let section t name =
    let got = string t in
    if got <> "#" ^ name then fail t "expected section %S, found %S" ("#" ^ name) got;
    set_section t name
end

(* FNV-1a over the bytes, for content-hash binding of snapshots to the
   program and configuration they were taken under, and for the daemon's
   cache keys.  Every loop keeps the running hash in a local [ref] that
   no closure captures, so the compiler holds it unboxed: a byte costs
   one xor and one multiply and allocates nothing. *)
module Fnv = struct
  let prime = 0x100000001B3L
  let[@inline] step h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

  (* Between pieces the hash sits in bytes 0-7 of a buffer, read and
     written unboxed, so feeding a piece allocates nothing either; bytes
     8-27 hold an int's digits while [int] feeds them. *)
  type t = Bytes.t

  let create () =
    let t = Bytes.create 28 in
    Bytes.set_int64_ne t 0 0xCBF29CE484222325L;
    t

  let value t = Bytes.get_int64_ne t 0

  let feed t pos len s =
    let h = ref (Bytes.get_int64_ne t 0) in
    for i = pos to pos + len - 1 do
      h := step !h (Char.code (Bytes.unsafe_get s i))
    done;
    Bytes.set_int64_ne t 0 !h

  let string t s = feed t 0 (String.length s) (Bytes.unsafe_of_string s)

  (* The bytes of [string_of_int n].  The digits are written right to
     left into the scratch bytes, taken from [-|n|], which [min_int] has
     too (19 digits and a sign fit in 20 bytes). *)
  let int t n =
    let m = ref (if n < 0 then n else -n) and pos = ref 28 in
    while !pos = 28 || !m <> 0 do
      decr pos;
      Bytes.unsafe_set t !pos (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
      m := !m / 10
    done;
    if n < 0 then begin
      decr pos;
      Bytes.unsafe_set t !pos '-'
    end;
    feed t !pos (28 - !pos) t
end

let fnv1a64 s =
  let t = Fnv.create () in
  Fnv.string t s;
  Fnv.value t

let hex_digits = "0123456789abcdef"

let hex64 v =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let d = Int64.to_int (Int64.shift_right_logical v (60 - (4 * i))) land 15 in
    Bytes.unsafe_set b i (String.unsafe_get hex_digits d)
  done;
  Bytes.unsafe_to_string b

let hash_hex s = hex64 (fnv1a64 s)

(* --- the sealed envelope -------------------------------------------------

   magic, version, identity, body length, FNV-1a 64 of the body, body.
   Every single-byte change is caught: in the magic, the version or the
   length by their checks, in the identity by the caller's predicate, in
   the hash or the body by the hash. *)

let seal ~magic ~version ~id body =
  let body = W.contents body in
  let h = W.create () in
  W.string h magic;
  W.int h version;
  W.string h id;
  W.int h (String.length body);
  W.i64 h (fnv1a64 body);
  W.contents h ^ body

let unseal ~component ~magic ~version ~id s =
  let r = R.of_string ~component ~section:"envelope" s in
  let m = R.string r in
  if m <> magic then R.fail r "bad magic %S (expected %S)" m magic;
  let v = R.int r in
  if v <> version then R.fail r "format version %d (expected %d)" v version;
  let at = R.pos r in
  let got = R.string r in
  if not (id got) then begin
    r.R.pos <- at;
    R.fail r "identity %S does not belong here (stale, foreign or renamed file)" got
  end;
  let len = R.int r in
  let sum = R.i64 r in
  if len <> R.remaining r then
    R.fail r "body of %d bytes, but %d follow the header" len (R.remaining r);
  let t = Fnv.create () in
  Fnv.feed t (R.pos r) len (Bytes.unsafe_of_string s);
  if Fnv.value t <> sum then
    R.fail r "body checksum %s, but the body hashes to %s" (hex64 sum) (hex64 (Fnv.value t));
  r.R.section <- "body";
  (got, r)

(* --- sealed files (DESIGN.md section 13) -----------------------------------
   No rename replaces a file, so ext4 never flushes one (auto_da_alloc).
   One lock keeps two domains from removing each other's copy. *)

type publish_step = Published | Removed

let publish_hook = ref None
let publish_lock = Mutex.create ()
let step s = Option.iter (fun hook -> hook s) !publish_hook

let hand_over path =
  (try Sys.remove path with Sys_error _ -> ());
  step Removed;
  Sys.rename (path ^ ".next") path

let write_sealed ~magic ~version ~id path body =
  let s = seal ~magic ~version ~id body in
  Mutex.protect publish_lock @@ fun () ->
  (* Finish a handover a kill interrupted, so the new copy's name is free. *)
  if Sys.file_exists (path ^ ".next") then hand_over path;
  Atomic_file.write_string (path ^ ".next") s;
  step Published;
  hand_over path

let read_sealed ~component ~magic ~version ~id path =
  let rec newest = function
    | [] -> None
    | p :: older when not (Sys.file_exists p) -> newest older
    | p :: older -> (
      try Some (unseal ~component ~magic ~version ~id (Fs.read_file p))
      with Diag.Fail d -> (
        match newest older with
        | Some _ as found -> found
        | None | (exception _) -> raise (Diag.Fail { d with message = p ^ ": " ^ d.message })))
  in
  newest [ path ^ ".next"; path ]

let remove_sealed path =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".next" ]

let sealed_names dir =
  Sys.readdir dir |> Array.to_list
  |> List.map (fun f -> Option.value (Filename.chop_suffix_opt ~suffix:".next" f) ~default:f)
  |> List.sort_uniq compare
