(* Wire-protocol mutation fuzzer for the bisad codec.

   A corpus of Decode_fuzz's campaign: starting from valid encoded
   request/response payloads (and framed streams of them), applies random
   bit flips, byte rewrites, truncations and junk extensions, then
   requires the decoder to either produce a value or raise [Diag.Fail]
   whose diagnostic carries component "proto" and a byte offset — never
   another exception, a hang, or an allocation driven by attacker-chosen
   length fields.  Pristine payloads must round-trip exactly. *)

module Proto = Bisa_proto.Proto
module Diag = Bisa_base.Diag
module Rng = Bisa_base.Rng

(* --- the corpus ----------------------------------------------------------- *)

let some_diags =
  [
    Diag.error ~component:"verify" "rule B3: fall-through out of block 2";
    Diag.warning
      ~loc:(Diag.Src { line = 3; col = 7 })
      ~component:"compiler" "unused variable x";
    Diag.make ~severity:Diag.Note
      ~loc:(Diag.Byte { offset = 42; section = "conv.body" })
      ~component:"encode" "trailing bytes";
  ]

let cfg_a = Proto.default_sim_cfg

let cfg_b =
  {
    Proto.icache_kb = 0;
    perfect_pred = true;
    budget = 123_456;
    out_cap = Some 64;
    deadline = Some 2.5;
  }

let src_source =
  Proto.Source { src = "int main() { return 3; }"; libs = [ "int f(int x);" ] }

let src_conv = Proto.Conv_bin "\x00\x01binary-ish\xff\x7f bytes"
let src_block_bytes = String.init 64 (fun i -> Char.chr (i * 5 land 255))
let src_block = Proto.Block_bin src_block_bytes

let requests : Proto.request list =
  [
    Proto.Ping;
    Proto.Stats;
    Proto.Shutdown;
    Proto.Compile { src = src_source; isa = Proto.Conv };
    Proto.Compile { src = src_block; isa = Proto.Block };
    Proto.Verify { src = src_conv };
    Proto.Simulate
      {
        src = src_source;
        isa = Proto.Block;
        mode = Proto.Timing;
        exec = Bisa_sim.Compile.Interp;
        cfg = cfg_a;
        show_output = true;
      };
    Proto.Simulate
      {
        src = src_conv;
        isa = Proto.Conv;
        mode = Proto.Functional;
        exec = Bisa_sim.Compile.Compiled;
        cfg = cfg_b;
        show_output = false;
      };
    Proto.Cell
      {
        bench = "m88ksim";
        scale = Some 3;
        isa = Proto.Block;
        exec = Bisa_sim.Compile.Interp;
        cfg = cfg_a;
      };
    Proto.Batch
      [
        Proto.Ping;
        Proto.Verify { src = src_source };
        Proto.Cell
          {
            bench = "li";
            scale = None;
            isa = Proto.Conv;
            exec = Bisa_sim.Compile.Compiled;
            cfg = cfg_b;
          };
      ];
  ]

let responses : Proto.response list =
  [
    Proto.Pong { server = Proto.version };
    Proto.Binary { isa = Proto.Block; bytes = src_block_bytes; prog_hash = 0x0123_4567_89ab_cdefL };
    Proto.Verdict { diags = [] };
    Proto.Verdict { diags = some_diags };
    Proto.Sim
      {
        stdout = "7\n812 dynamic operations, exit value 7\n";
        notes = "";
        prog_hash = -1L;
        cached = false;
      };
    Proto.Cell_done { summary = "li/block: IPC 1.93 ..."; prog_hash = 99L; cached = true };
    Proto.Stats_r
      {
        served = 100_001;
        sim_hits = 99_000;
        sim_misses = 8;
        artifacts = 16;
        results = 4096;
        spooled = 4104;
        spool_skipped = 2;
        inflight_peak = 64;
        rss_kb = 10_608;
      };
    Proto.Bye;
    Proto.Batch_r [ Proto.Pong { server = Proto.version }; Proto.Bye ];
    Proto.Err some_diags;
  ]

(* --- the contract --------------------------------------------------------- *)

let check_payload decode payload =
  match decode payload with
  | _ -> Ok true
  | exception Diag.Fail d -> Decode_fuzz.located ~component:"proto" payload d
  | exception exn -> Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))

(* Feed a (possibly mutated) byte stream to the framing layer in random
   chunks, decoding every peeled payload.  The contract covers both
   layers: a bad length prefix or a bad payload must surface as a located
   "proto" Diag, and the peel loop must always advance. *)
let check_stream rng decode stream =
  let buf = Buffer.create (String.length stream) in
  let pos = ref 0 in
  let fed = ref 0 in
  let rec go decoded =
    match Proto.peel_frame buf !pos with
    | Some (payload, next) ->
      if next <= !pos then Error "peel_frame did not advance"
      else begin
        pos := next;
        match check_payload decode payload with
        | Ok ok -> go (decoded || ok)
        | Error _ as e -> e
      end
    | None ->
      if !fed >= String.length stream then
        (* Clean end: everything decodable was decoded; a trailing
           partial frame is just "need more bytes". *)
        Ok decoded
      else begin
        let n = min (1 + Rng.int rng 7) (String.length stream - !fed) in
        Buffer.add_substring buf stream !fed n;
        fed := !fed + n;
        go decoded
      end
    | exception Diag.Fail d -> Decode_fuzz.located ~component:"proto" stream d
    | exception exn ->
      Error (Printf.sprintf "framing raised %s" (Printexc.to_string exn))
  in
  go false

(* --- campaigns ------------------------------------------------------------ *)

let round_trip () =
  let check what eq xs encode decode =
    List.iteri
      (fun i x ->
        let back = decode (encode x) in
        if not (eq back x) then
          failwith (Printf.sprintf "%s %d did not round-trip" what i))
      xs
  in
  match
    check "request" ( = ) requests Proto.encode_request Proto.decode_request;
    check "response" ( = ) responses Proto.encode_response Proto.decode_response
  with
  | () -> Ok ()
  | exception Failure e -> Error e

(* Built once per campaign, before the mutants shard across the pool,
   so no worker domain forces shared lazy state. *)
let corpus () =
  List.map (fun r -> (Proto.encode_request r, `Req)) requests
  @ List.map (fun r -> (Proto.encode_response r, `Resp)) responses

let decode_of = function
  | `Req -> fun s -> ignore (Proto.decode_request s : Proto.request)
  | `Resp -> fun s -> ignore (Proto.decode_response s : Proto.response)

(* One mutant: pick a corpus payload, mutate it, decode it; every third
   mutant instead mutates a framed two-payload stream and runs it through
   the chunked framing loop. *)
let check_one payloads rng =
  let pick () = List.nth payloads (Rng.int rng (List.length payloads)) in
  let payload, kind = pick () in
  if Rng.int rng 3 = 0 then begin
    let p2, k2 = pick () in
    let stream = Proto.frame payload ^ Proto.frame p2 in
    let stream = Decode_fuzz.mutate rng stream in
    (* Both payload kinds can land in one stream; decode by the first
       pick's kind only when kinds agree, else accept either decoder. *)
    let decode s =
      if kind = k2 then decode_of kind s
      else match decode_of kind s with () -> () | exception Diag.Fail _ -> decode_of k2 s
    in
    check_stream rng decode stream
  end
  else check_payload (decode_of kind) (Decode_fuzz.mutate rng payload)

let run ?pool ~seed ~count () =
  match round_trip () with
  | Error e -> Error ("pristine payloads: " ^ e)
  | Ok () -> Decode_fuzz.tally ?pool ~seed ~count (check_one (corpus ()))
