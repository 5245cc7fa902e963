(* Binary-image mutation fuzzer for the decoders.

   Starting from a valid .cbin/.bbin image, applies random bit flips, byte
   rewrites, truncations and junk extensions, then requires the decoder to
   either produce a program or raise [Encode.Malformed] carrying a byte
   offset inside the image — never Stack_overflow, Out_of_memory, an
   uncaught Invalid_argument from a wild Array.init, or a hang. *)

module Encode = Bisa_isa.Encode
module Diag = Bisa_base.Diag
module Rng = Bisa_base.Rng

type format = Conv | Block

type report = {
  mutants : int;
  decoded : int;  (** mutants that still decoded to some program *)
  rejected : int;  (** mutants rejected with a well-formed Malformed *)
}

let mutate rng img =
  let len = String.length img in
  match Rng.int rng 4 with
  | 0 when len > 0 ->
    let b = Bytes.of_string img in
    let i = Rng.int rng len in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
    Bytes.to_string b
  | 1 when len > 0 ->
    let b = Bytes.of_string img in
    Bytes.set b (Rng.int rng len) (Char.chr (Rng.int rng 256));
    Bytes.to_string b
  | 2 when len > 0 -> String.sub img 0 (Rng.int rng len)
  | _ -> img ^ String.init (1 + Rng.int rng 8) (fun _ -> Char.chr (Rng.int rng 256))

let decode_of = function
  | Conv -> fun s -> ignore (Encode.conv_of_bytes s : Bisa_isa.Conv_prog.t)
  | Block -> fun s -> ignore (Encode.block_of_bytes s : Bisa_isa.Block_prog.t)

(* One mutant: Ok true = decoded, Ok false = cleanly rejected. *)
let check_one fmt img =
  match decode_of fmt img with
  | () -> Ok true
  | exception Encode.Malformed d -> begin
    match d.Diag.loc with
    | Diag.Byte { offset; section }
      when offset >= 0 && offset <= String.length img && section <> "" ->
      Ok false
    | _ ->
      Error
        (Printf.sprintf "Malformed without a usable byte offset: %s" (Diag.render d))
  end
  | exception exn ->
    Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))

(* --- The verified-loading trichotomy ------------------------------------- *)

module Verify = Bisa_verify.Verify

type trichotomy_report = {
  t_mutants : int;
  t_rejected_decode : int;
  t_rejected_verify : int;
  t_completed : int;  (** simulated to an architectural halt *)
  t_trapped : int;  (** of completed: halted via a machine trap *)
  t_budgeted : int;  (** stopped by the op budget (Runaway) *)
}

type tri_outcome = Odecode | Overify | Ocompleted of bool | Obudgeted

let malformed_ok img (d : Diag.t) =
  match d.Diag.loc with
  | Diag.Byte { offset; section }
    when offset >= 0 && offset <= String.length img && section <> "" ->
    Ok Odecode
  | _ ->
    Error (Printf.sprintf "Malformed without a usable byte offset: %s" (Diag.render d))

(* A rejection only counts if every diagnostic is structured: a stable
   rule id up front and error severity. *)
let verify_rejection_ok ds =
  match List.find_opt (fun d -> Verify.rule_of d = "") ds with
  | Some d ->
    Error (Printf.sprintf "verifier diagnostic without a rule id: %s" (Diag.render d))
  | None -> Ok Overify

(* Functional execution then a timing-model run: the timing front end is
   the only caller that fetches speculatively (variant-group fetches), so
   it must also complete without Illegal_fetch on any verified program. *)
let sim_outcomes ~functional ~timing ~trapped what =
  match functional () with
  | exception exn ->
    Error (Printf.sprintf "%s executor raised %s" what (Printexc.to_string exn))
  | `Budgeted -> Ok Obudgeted
  | `Halted -> begin
    match timing () with
    | () -> Ok (Ocompleted (trapped ()))
    | exception exn ->
      Error (Printf.sprintf "%s timing pipeline raised %s" what (Printexc.to_string exn))
  end

let timing_cfg budget =
  { Bisa_timing.Config.default with Bisa_timing.Config.op_budget = budget }

let check_tri fmt ~budget img =
  match fmt with
  | Conv -> begin
    match Encode.conv_of_bytes img with
    | exception Encode.Malformed d -> malformed_ok img d
    | exception exn ->
      Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))
    | p -> begin
      match Verify.conv_prog p with
      | exception exn ->
        Error (Printf.sprintf "verifier raised %s" (Printexc.to_string exn))
      | Error ds -> verify_rejection_ok ds
      | Ok w ->
        let module E = Bisa_sim.Conv_exec in
        let t = E.create p in
        E.set_budget t budget;
        let rec go () = match E.step t with Some _ -> go () | None -> () in
        sim_outcomes
          ~functional:(fun () ->
            match go () with () -> `Halted | exception E.Runaway _ -> `Budgeted)
          ~timing:(fun () ->
            let module P = Bisa_timing.Pipeline.Conv in
            match
              P.run_artifact (timing_cfg budget)
                (P.bundle ~tables:(Bisa_timing.Predecode.of_conv w) p)
            with
            | (_ : Bisa_timing.Metrics.t * Bisa_sim.Output.t) -> ()
            | exception E.Runaway _ -> ())
          ~trapped:(fun () -> E.machine_trap t <> None)
          "conv"
    end
  end
  | Block -> begin
    match Encode.block_of_bytes img with
    | exception Encode.Malformed d -> malformed_ok img d
    | exception exn ->
      Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))
    | p -> begin
      match Verify.block_prog p with
      | exception exn ->
        Error (Printf.sprintf "verifier raised %s" (Printexc.to_string exn))
      | Error ds -> verify_rejection_ok ds
      | Ok w ->
        let module E = Bisa_sim.Block_exec in
        let t = E.create p in
        E.set_budget t budget;
        let rec go () = match E.step t with Some _ -> go () | None -> () in
        sim_outcomes
          ~functional:(fun () ->
            match go () with () -> `Halted | exception E.Runaway _ -> `Budgeted)
          ~timing:(fun () ->
            let module P = Bisa_timing.Pipeline.Block in
            match
              P.run_artifact (timing_cfg budget)
                (P.bundle ~tables:(Bisa_timing.Predecode.of_block w) p)
            with
            | (_ : Bisa_timing.Metrics.t * Bisa_sim.Output.t) -> ()
            | exception E.Runaway _ -> ())
          ~trapped:(fun () -> E.machine_trap t <> None)
          "block"
    end
  end

let trichotomy ?(pool = Bisa_base.Pool.sequential) ?(budget = 200_000) fmt ~seed
    ~count img =
  match check_tri fmt ~budget img with
  | Error e -> Error (Printf.sprintf "pristine image: %s" e)
  | Ok (Odecode | Overify) -> Error "pristine image did not verify"
  | Ok _ ->
    let indices = List.init count Fun.id in
    let outcomes =
      Bisa_base.Pool.map_list pool
        (fun i -> (i, check_tri fmt ~budget (mutate (Rng.derive seed i) img)))
        indices
    in
    let rd = ref 0 and rv = ref 0 and comp = ref 0 and trap = ref 0 and bud = ref 0 in
    let rec tally = function
      | [] ->
        Ok
          {
            t_mutants = count;
            t_rejected_decode = !rd;
            t_rejected_verify = !rv;
            t_completed = !comp;
            t_trapped = !trap;
            t_budgeted = !bud;
          }
      | (_, Ok Odecode) :: rest ->
        incr rd;
        tally rest
      | (_, Ok Overify) :: rest ->
        incr rv;
        tally rest
      | (_, Ok (Ocompleted t)) :: rest ->
        incr comp;
        if t then incr trap;
        tally rest
      | (_, Ok Obudgeted) :: rest ->
        incr bud;
        tally rest
      | (i, Error e) :: _ -> Error (Printf.sprintf "mutant %d (seed %d): %s" i seed e)
    in
    tally outcomes

let run ?(pool = Bisa_base.Pool.sequential) fmt ~seed ~count img =
  (* The pristine image must decode — otherwise the campaign is vacuous. *)
  match decode_of fmt img with
  | exception exn ->
    Error (Printf.sprintf "pristine image failed to decode: %s" (Printexc.to_string exn))
  | () ->
    (* Mutant [i] is seeded from [Rng.derive seed i] — a pure function of
       the work item — so the campaign shards across the pool and still
       produces the same mutants, counts, and first failure at every
       worker count. *)
    let indices = List.init count Fun.id in
    let outcomes =
      Bisa_base.Pool.map_list pool
        (fun i -> (i, check_one fmt (mutate (Rng.derive seed i) img)))
        indices
    in
    let decoded = ref 0 and rejected = ref 0 in
    let rec tally = function
      | [] -> Ok { mutants = count; decoded = !decoded; rejected = !rejected }
      | (_, Ok true) :: rest ->
        incr decoded;
        tally rest
      | (_, Ok false) :: rest ->
        incr rejected;
        tally rest
      | (i, Error e) :: _ -> Error (Printf.sprintf "mutant %d (seed %d): %s" i seed e)
    in
    tally outcomes
