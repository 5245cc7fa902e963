(* Versioned on-disk snapshots of in-flight timing sessions.

   A snapshot is a sealed Codec envelope whose identity binds it to the
   exact inputs it was taken under — ISA, program content hash,
   configuration fingerprint — and whose body is the op count and the
   session's serialized state.  Writes and loads go through
   Codec.write_sealed / read_sealed, so a kill at any instant leaves the
   newest complete snapshot findable, never a torn one.  Loads reject a
   stale, foreign or damaged snapshot with a located Diag: an error the
   caller can present, never silent state corruption. *)

module Codec = Bisa_base.Codec

let component = "checkpoint"
let magic = "BISACKPT"

(* Version 2: sealed, with the op count in the body. *)
let version = 2

let identity ~isa ~prog_hash ~cfg_hash =
  String.concat "-" [ isa; Codec.hex64 prog_hash; Codec.hex64 cfg_hash ]

let save ~path ~isa ~prog_hash ~cfg_hash ~ops payload =
  let w = Codec.W.create () in
  Codec.W.int w ops;
  payload w;
  Codec.write_sealed ~magic ~version ~id:(identity ~isa ~prog_hash ~cfg_hash) path w

let load ~path ~isa ~prog_hash ~cfg_hash =
  let id = identity ~isa ~prog_hash ~cfg_hash in
  Codec.read_sealed ~component ~magic ~version ~id:(String.equal id) path
  |> Option.map (fun (_, r) -> (Codec.R.int r, r))

(* Outcome of a driven run: either it completed, or the deadline fired
   first and the caller has a resumable snapshot at [path]. *)
type 'a outcome = Finished of 'a | Timed_out of { ops : int }

(* Drive a session to completion with periodic snapshots and an optional
   polled deadline.  [every] is a dynamic-op interval: a snapshot is
   written each time the session crosses another [every] ops, so a kill
   at any instant loses at most one interval of work.  [deadline] is
   polled at the same granularity as stepping is cheap; when it fires,
   one final snapshot is written and the run reports [Timed_out].

   The wall clock is the caller's: this layer stays free of OS
   dependencies, and experiments pass a [Unix.gettimeofday]-based
   closure. *)
let drive (type p a)
    (module P : Pipeline.S with type prog = p and type artifact = a)
    ?probe ?snapshot ?deadline (cfg : Config.t) (art : a) =
  let s = P.session_artifact ?probe cfg art in
  let prog_hash = P.Artifact.hash art and cfg_hash = Config.fingerprint cfg in
  let write_snapshot () =
    Option.iter
      (fun (path, _) -> save ~path ~isa:P.isa ~prog_hash ~cfg_hash ~ops:(P.ops s) (P.save s))
      snapshot
  in
  (* Resume from the newest snapshot if one is present and valid. *)
  (match snapshot with
  | Some (path, _) ->
    Option.iter (fun (_ops, r) -> P.restore s r) (load ~path ~isa:P.isa ~prog_hash ~cfg_hash)
  | None -> ());
  let every, next_ckpt =
    match snapshot with
    | Some (_, every) -> (every, ref (P.ops s + every))
    | None -> (0, ref max_int)
  in
  (* [true] once the program halts, [false] when the deadline fires. *)
  let rec run () =
    (not (P.step s))
    || begin
         if P.ops s >= !next_ckpt then begin
           write_snapshot ();
           next_ckpt := P.ops s + every
         end;
         match deadline with
         | Some d when d () ->
           write_snapshot ();
           false
         | _ -> run ()
       end
  in
  if run () then begin
    let result = P.finish s in
    (* The run is complete; the snapshot has served its purpose. *)
    Option.iter (fun (path, _) -> Codec.remove_sealed path) snapshot;
    Finished result
  end
  else Timed_out { ops = P.ops s }
