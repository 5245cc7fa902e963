(* The bisad wire protocol: typed requests and responses, their binary
   codec, and the length-prefixed framing both ends speak.

   bisasim and the bisad client build the same request values (through
   lib/cli/Request) and both are answered by the serving engine, so "what
   bisasim does" and "what bisad serves" cannot drift apart: both roads
   lead through [to_config] and the render helpers below.

   Every decode failure — framing or payload — is a structured
   {!Bisa_base.Diag.t} whose location is the byte offset the reader had
   reached, in the style of [Encode.Malformed]: a fuzzer (or a hostile
   peer) gets a diagnostic, never a crash or a hang. *)

module Diag = Bisa_base.Diag
module Codec = Bisa_base.Codec

let component = "proto"

(* bisad/2: sim_cfg gained the per-request [deadline] field and stats
   gained [spool_skipped].  Both ends of the wire live in this repo, so a
   version bump (rejected cleanly by [decoding]) is the whole migration. *)
let version = "bisad/2"

(* A frame larger than this is rejected before any allocation happens:
   the bound keeps a hostile length prefix from looking like a request
   for gigabytes. *)
let max_frame = 64 * 1024 * 1024

let fail_at ~offset ~section fmt =
  Printf.ksprintf
    (fun message ->
      raise
        (Diag.Fail (Diag.error ~loc:(Diag.at_byte ~offset ~section) ~component message)))
    fmt

(* --- request / response values ----------------------------------------- *)

type isa = Conv | Block

let isa_name = function Conv -> "conv" | Block -> "block"

type prog_src =
  | Source of { src : string; libs : string list }
  | Conv_bin of string
  | Block_bin of string

type sim_cfg = {
  icache_kb : int;
  perfect_pred : bool;
  budget : int;
  out_cap : int option;
  deadline : float option;
      (* Per-request wall-clock deadline in seconds.  The daemon answers a
         request past its deadline with a structured deadline [Err]
         instead of letting it keep a connection (or the select loop)
         hostage.  Deliberately absent from the result-cache key: it
         bounds the wait, not the result. *)
}

let default_sim_cfg =
  {
    icache_kb = 16;
    perfect_pred = false;
    budget = Bisa_timing.Config.default.op_budget;
    out_cap = None;
    deadline = None;
  }

(* The largest icache a request may ask for, in KB: 16 times the paper's
   largest (64 KB) and 40 times the largest workload's code (gcc's
   block-structured image, 24 KB), so no study is refused a size that
   could change a result.  It also keeps the byte count far from
   overflow, and the tag and LRU arrays a session allocates for the
   cache at 512 KB, whoever sends the request. *)
let max_icache_kb = 1024

(* The checks allocate nothing unless they fail: every cache hit pays
   for them. *)
let to_config (c : sim_cfg) =
  if c.icache_kb < 0 || c.icache_kb > max_icache_kb then
    Diag.fail ~component:"config" "--icache-kb must be between 0 (a perfect icache) and %d (got %d)"
      max_icache_kb c.icache_kb;
  (match c.out_cap with
  | Some n when n < 0 ->
    Diag.fail ~component:"config" "--out-cap must be non-negative (got %d)" n
  | _ -> ());
  {
    Bisa_timing.Config.default with
    icache =
      (if c.icache_kb = 0 then None
       else
         Some { Bisa_uarch.Cache.size_bytes = c.icache_kb * 1024; assoc = 4; line_bytes = 32 });
    predictor =
      (if c.perfect_pred then Bisa_timing.Config.Perfect else Bisa_timing.Config.Real);
    op_budget = c.budget;
  }

type sim_mode = Timing | Functional

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of { src : prog_src; isa : isa }
  | Verify of { src : prog_src }
  | Simulate of {
      src : prog_src;
      isa : isa;
      mode : sim_mode;
      exec : Bisa_sim.Compile.backend;
      cfg : sim_cfg;
      show_output : bool;
    }
  | Cell of {
      bench : string;
      scale : int option;
      isa : isa;
      exec : Bisa_sim.Compile.backend;
      cfg : sim_cfg;
    }
  | Batch of request list

type stats = {
  served : int;
  sim_hits : int;
  sim_misses : int;
  artifacts : int;
  results : int;
  spooled : int;
  spool_skipped : int;  (* unreadable spool entries skipped at reload *)
  inflight_peak : int;
  rss_kb : int;
}

type response =
  | Pong of { server : string }
  | Binary of { isa : isa; bytes : string; prog_hash : int64 }
  | Verdict of { diags : Diag.t list }
  | Sim of { stdout : string; notes : string; prog_hash : int64; cached : bool }
  | Cell_done of { summary : string; prog_hash : int64; cached : bool }
  | Stats_r of stats
  | Bye
  | Batch_r of response list
  | Err of Diag.t list

(* --- canonical stdout rendering ---------------------------------------- *)

(* Exactly bisasim's print statements, as strings.  The daemon caches and
   replays these; the smoke tests diff them against the real CLI. *)

let render_functional ~show_output ~out ~ops ~ret =
  (if show_output then out ^ "\n" else "")
  ^ Printf.sprintf "%d dynamic operations, exit value %d\n" ops ret

let render_timing ~show_output ~out ~summary =
  (if show_output then out ^ "\n" else "") ^ summary ^ "\n"

(* --- structured retryable/terminal error markers ------------------------ *)

(* The retrying client must distinguish "try again" (busy server) from
   "your request is over" (deadline expired) without parsing prose, so
   both diagnostics are built — and recognized — here, by a stable
   message prefix.  Both ends of the wire share these definitions. *)

let busy_prefix = "server busy"
let deadline_prefix = "deadline expired"

let busy_diag ~inflight ~limit =
  Diag.error ~component:"bisad"
    (Printf.sprintf "%s: %d requests in flight (limit %d); retry with backoff"
       busy_prefix inflight limit)

let deadline_diag ~deadline ~ops =
  Diag.error ~component:"bisad"
    (Printf.sprintf
       "%s: request exceeded its %gs deadline after %d dynamic operations"
       deadline_prefix deadline ops)

let has_prefix prefix (d : Diag.t) =
  String.length d.Diag.message >= String.length prefix
  && String.sub d.Diag.message 0 (String.length prefix) = prefix

let is_busy_err = function
  | Err ds -> List.exists (has_prefix busy_prefix) ds
  | _ -> false

let is_deadline_err = function
  | Err ds -> List.exists (has_prefix deadline_prefix) ds
  | _ -> false

(* The daemon-side deadline for a request, if it carries one. *)
let request_deadline = function
  | Simulate { cfg; _ } | Cell { cfg; _ } -> cfg.deadline
  | Ping | Stats | Shutdown | Compile _ | Verify _ | Batch _ -> None

(* --- Diag codec --------------------------------------------------------- *)

let write_diag w (d : Diag.t) =
  Codec.W.int w
    (match d.severity with Diag.Error -> 0 | Diag.Warning -> 1 | Diag.Note -> 2);
  Codec.W.string w d.component;
  (match d.loc with
  | Diag.No_loc -> Codec.W.int w 0
  | Diag.Src { line; col } ->
    Codec.W.int w 1;
    Codec.W.int w line;
    Codec.W.int w col
  | Diag.Byte { offset; section } ->
    Codec.W.int w 2;
    Codec.W.int w offset;
    Codec.W.string w section);
  Codec.W.string w d.message

let read_diag r : Diag.t =
  let severity =
    match Codec.R.int r with
    | 0 -> Diag.Error
    | 1 -> Diag.Warning
    | 2 -> Diag.Note
    | n -> Codec.R.fail r "unknown severity tag %d" n
  in
  let dcomponent = Codec.R.string r in
  let loc =
    match Codec.R.int r with
    | 0 -> Diag.No_loc
    | 1 ->
      let line = Codec.R.int r in
      let col = Codec.R.int r in
      Diag.Src { line; col }
    | 2 ->
      let offset = Codec.R.int r in
      let sec = Codec.R.string r in
      Diag.Byte { offset; section = sec }
    | n -> Codec.R.fail r "unknown location tag %d" n
  in
  let message = Codec.R.string r in
  { Diag.severity; component = dcomponent; loc; message }

let write_diags w ds =
  Codec.W.int w (List.length ds);
  List.iter (write_diag w) ds

let read_list r read_one = Array.to_list (Codec.R.array r read_one)

(* --- request codec ------------------------------------------------------ *)

let write_isa w = function Conv -> Codec.W.int w 0 | Block -> Codec.W.int w 1

let read_isa r =
  match Codec.R.int r with
  | 0 -> Conv
  | 1 -> Block
  | n -> Codec.R.fail r "unknown isa tag %d" n

let write_src w = function
  | Source { src; libs } ->
    Codec.W.int w 0;
    Codec.W.string w src;
    Codec.W.int w (List.length libs);
    List.iter (Codec.W.string w) libs
  | Conv_bin b ->
    Codec.W.int w 1;
    Codec.W.string w b
  | Block_bin b ->
    Codec.W.int w 2;
    Codec.W.string w b

let read_src r =
  match Codec.R.int r with
  | 0 ->
    let src = Codec.R.string r in
    let libs = read_list r (fun r -> Codec.R.string r) in
    Source { src; libs }
  | 1 -> Conv_bin (Codec.R.string r)
  | 2 -> Block_bin (Codec.R.string r)
  | n -> Codec.R.fail r "unknown program-source tag %d" n

let write_sim_cfg w c =
  Codec.W.int w c.icache_kb;
  Codec.W.bool w c.perfect_pred;
  Codec.W.int w c.budget;
  Codec.W.option w Codec.W.int c.out_cap;
  Codec.W.option w Codec.W.float c.deadline

let read_sim_cfg r =
  let icache_kb = Codec.R.int r in
  let perfect_pred = Codec.R.bool r in
  let budget = Codec.R.int r in
  let out_cap = Codec.R.option r Codec.R.int in
  let deadline = Codec.R.option r Codec.R.float in
  { icache_kb; perfect_pred; budget; out_cap; deadline }

let write_exec w = function
  | Bisa_sim.Compile.Interp -> Codec.W.int w 0
  | Bisa_sim.Compile.Compiled -> Codec.W.int w 1

let read_exec r =
  match Codec.R.int r with
  | 0 -> Bisa_sim.Compile.Interp
  | 1 -> Bisa_sim.Compile.Compiled
  | n -> Codec.R.fail r "unknown exec-backend tag %d" n

let write_mode w = function Timing -> Codec.W.int w 0 | Functional -> Codec.W.int w 1

let read_mode r =
  match Codec.R.int r with
  | 0 -> Timing
  | 1 -> Functional
  | n -> Codec.R.fail r "unknown sim-mode tag %d" n

let req_section = "request"

let rec write_request ~depth w = function
  | Ping -> Codec.W.int w 0
  | Stats -> Codec.W.int w 1
  | Shutdown -> Codec.W.int w 2
  | Compile { src; isa } ->
    Codec.W.int w 3;
    write_src w src;
    write_isa w isa
  | Verify { src } ->
    Codec.W.int w 4;
    write_src w src
  | Simulate { src; isa; mode; exec; cfg; show_output } ->
    Codec.W.int w 5;
    write_src w src;
    write_isa w isa;
    write_mode w mode;
    write_exec w exec;
    write_sim_cfg w cfg;
    Codec.W.bool w show_output
  | Cell { bench; scale; isa; exec; cfg } ->
    Codec.W.int w 6;
    Codec.W.string w bench;
    Codec.W.option w Codec.W.int scale;
    write_isa w isa;
    write_exec w exec;
    write_sim_cfg w cfg
  | Batch reqs ->
    if depth > 0 then invalid_arg "Proto: nested Batch requests are not allowed";
    Codec.W.int w 7;
    Codec.W.int w (List.length reqs);
    List.iter (write_request ~depth:(depth + 1) w) reqs

let rec read_request ~depth r =
  match Codec.R.int r with
  | 0 -> Ping
  | 1 -> Stats
  | 2 -> Shutdown
  | 3 ->
    let src = read_src r in
    let isa = read_isa r in
    Compile { src; isa }
  | 4 -> Verify { src = read_src r }
  | 5 ->
    let src = read_src r in
    let isa = read_isa r in
    let mode = read_mode r in
    let exec = read_exec r in
    let cfg = read_sim_cfg r in
    let show_output = Codec.R.bool r in
    Simulate { src; isa; mode; exec; cfg; show_output }
  | 6 ->
    let bench = Codec.R.string r in
    let scale = Codec.R.option r Codec.R.int in
    let isa = read_isa r in
    let exec = read_exec r in
    let cfg = read_sim_cfg r in
    Cell { bench; scale; isa; exec; cfg }
  | 7 ->
    if depth > 0 then
      Codec.R.fail r "nested Batch request";
    Batch (read_list r (read_request ~depth:(depth + 1)))
  | n -> Codec.R.fail r "unknown request tag %d" n

(* --- response codec ----------------------------------------------------- *)

let resp_section = "response"

let write_stats w s =
  Codec.W.int w s.served;
  Codec.W.int w s.sim_hits;
  Codec.W.int w s.sim_misses;
  Codec.W.int w s.artifacts;
  Codec.W.int w s.results;
  Codec.W.int w s.spooled;
  Codec.W.int w s.spool_skipped;
  Codec.W.int w s.inflight_peak;
  Codec.W.int w s.rss_kb

let read_stats r =
  let served = Codec.R.int r in
  let sim_hits = Codec.R.int r in
  let sim_misses = Codec.R.int r in
  let artifacts = Codec.R.int r in
  let results = Codec.R.int r in
  let spooled = Codec.R.int r in
  let spool_skipped = Codec.R.int r in
  let inflight_peak = Codec.R.int r in
  let rss_kb = Codec.R.int r in
  {
    served;
    sim_hits;
    sim_misses;
    artifacts;
    results;
    spooled;
    spool_skipped;
    inflight_peak;
    rss_kb;
  }

let rec write_response ~depth w = function
  | Pong { server } ->
    Codec.W.int w 0;
    Codec.W.string w server
  | Binary { isa; bytes; prog_hash } ->
    Codec.W.int w 1;
    write_isa w isa;
    Codec.W.string w bytes;
    Codec.W.i64 w prog_hash
  | Verdict { diags } ->
    Codec.W.int w 2;
    write_diags w diags
  | Sim { stdout; notes; prog_hash; cached } ->
    Codec.W.int w 3;
    Codec.W.string w stdout;
    Codec.W.string w notes;
    Codec.W.i64 w prog_hash;
    Codec.W.bool w cached
  | Cell_done { summary; prog_hash; cached } ->
    Codec.W.int w 4;
    Codec.W.string w summary;
    Codec.W.i64 w prog_hash;
    Codec.W.bool w cached
  | Stats_r s ->
    Codec.W.int w 5;
    write_stats w s
  | Bye -> Codec.W.int w 6
  | Batch_r rs ->
    if depth > 0 then invalid_arg "Proto: nested Batch_r responses are not allowed";
    Codec.W.int w 7;
    Codec.W.int w (List.length rs);
    List.iter (write_response ~depth:(depth + 1) w) rs
  | Err diags ->
    Codec.W.int w 8;
    write_diags w diags

let rec read_response ~depth r =
  match Codec.R.int r with
  | 0 -> Pong { server = Codec.R.string r }
  | 1 ->
    let isa = read_isa r in
    let bytes = Codec.R.string r in
    let prog_hash = Codec.R.i64 r in
    Binary { isa; bytes; prog_hash }
  | 2 -> Verdict { diags = read_list r read_diag }
  | 3 ->
    let stdout = Codec.R.string r in
    let notes = Codec.R.string r in
    let prog_hash = Codec.R.i64 r in
    let cached = Codec.R.bool r in
    Sim { stdout; notes; prog_hash; cached }
  | 4 ->
    let summary = Codec.R.string r in
    let prog_hash = Codec.R.i64 r in
    let cached = Codec.R.bool r in
    Cell_done { summary; prog_hash; cached }
  | 5 -> Stats_r (read_stats r)
  | 6 -> Bye
  | 7 ->
    if depth > 0 then
      Codec.R.fail r "nested Batch_r response";
    Batch_r (read_list r (read_response ~depth:(depth + 1)))
  | 8 -> Err (read_list r read_diag)
  | n -> Codec.R.fail r "unknown response tag %d" n

(* --- payload encode/decode ---------------------------------------------- *)

(* The reader is located, so every payload rejection is a
   [component=proto] diagnostic at the byte it happened on — the
   contract the protocol fuzzer enforces. *)
let decoding ~section s f =
  let r = Codec.R.of_string ~component ~section s in
  let v = Codec.R.string r in
  if v <> version then
    fail_at ~offset:0 ~section "version mismatch: peer speaks %S, this end %S" v version;
  let value = f r in
  if not (Codec.R.at_end r) then
    Codec.R.fail r "%d trailing bytes after payload" (String.length s - Codec.R.pos r);
  value

let encode_request q =
  let w = Codec.W.create () in
  Codec.W.string w version;
  write_request ~depth:0 w q;
  Codec.W.contents w

let decode_request s = decoding ~section:req_section s (read_request ~depth:0)

let encode_response resp =
  let w = Codec.W.create () in
  Codec.W.string w version;
  write_response ~depth:0 w resp;
  Codec.W.contents w

let decode_response s = decoding ~section:resp_section s (read_response ~depth:0)

(* --- framing ------------------------------------------------------------ *)

(* A frame is a 4-byte big-endian payload length followed by the payload.
   The length is validated before anything is allocated. *)

let frame_section = "frame"

let check_frame_len ~offset n =
  if n < 0 || n > max_frame then
    fail_at ~offset ~section:frame_section
      "frame length %d out of range (max %d)" n max_frame

let frame payload =
  let n = String.length payload in
  check_frame_len ~offset:0 n;
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Peel one complete frame off [buf] starting at [pos]; [None] means more
   bytes are needed.  A malformed length raises immediately — the caller
   must drop the connection, there is nothing to resynchronize on. *)
let peel_frame buf pos =
  let avail = Buffer.length buf - pos in
  if avail < 4 then None
  else begin
    let n = Int32.to_int (String.get_int32_be (Buffer.sub buf pos 4) 0) in
    check_frame_len ~offset:pos n;
    if avail < 4 + n then None else Some (Buffer.sub buf (pos + 4) n, pos + 4 + n)
  end

(* --- blocking frame IO (client side and tests) -------------------------- *)

let rec really_write fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    really_write fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  really_write fd f 0 (String.length f)

let read_exact fd n ~what =
  let b = Bytes.create n in
  let rec go pos =
    if pos >= n then Bytes.unsafe_to_string b
    else begin
      match Unix.read fd b pos (n - pos) with
      | 0 ->
        fail_at ~offset:pos ~section:frame_section
          "connection closed mid-%s (%d of %d bytes)" what pos n
      | k -> go (pos + k)
    end
  in
  go 0

(* [None] on a clean EOF before any header byte; raises on a torn frame. *)
let read_frame fd =
  let hdr = Bytes.create 4 in
  match Unix.read fd hdr 0 4 with
  | 0 -> None
  | k ->
    let rest =
      if k >= 4 then ""
      else read_exact fd (4 - k) ~what:"header"
    in
    let full = Bytes.sub_string hdr 0 k ^ rest in
    let n = Int32.to_int (String.get_int32_be full 0) in
    check_frame_len ~offset:0 n;
    Some (read_exact fd n ~what:"payload")
