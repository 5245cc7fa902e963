(* Mutation fuzzing of the decoders bisa trusts with outside bytes.

   One campaign drives every fuzzer here and in Proto_fuzz: mutant [i]
   is checked from its own generator [Rng.derive seed i], the mutants
   shard across the pool, and the lowest failing index is the finding.
   Starting from a valid .cbin/.bbin image, [run] applies random bit
   flips, byte rewrites, truncations and junk extensions, then requires
   the decoder to either produce a program or raise [Encode.Malformed]
   located at a byte inside the image — never Stack_overflow,
   Out_of_memory, an uncaught Invalid_argument from a wild Array.init,
   or a hang. *)

module Encode = Bisa_isa.Encode
module Diag = Bisa_base.Diag
module Pool = Bisa_base.Pool
module Rng = Bisa_base.Rng

type format = Conv | Block

type report = {
  mutants : int;
  decoded : int;  (** mutants that still decoded to some value *)
  rejected : int;  (** mutants rejected with a located diagnostic *)
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

(* Mutant [i]'s generator is a pure function of [(seed, i)], so the
   campaign shards across the pool and still produces the same mutants,
   outcomes and first failure at every worker count. *)
let campaign ?(pool = Pool.sequential) ~seed ~count check =
  let rec collect i acc = function
    | [] -> Ok (List.rev acc)
    | Ok o :: rest -> collect (i + 1) (o :: acc) rest
    | Error e :: _ -> Error (Printf.sprintf "mutant %d (seed %d): %s" i seed e)
  in
  collect 0 []
    (Pool.map_list pool (fun i -> check (Rng.derive seed i)) (List.init count Fun.id))

let tally ?pool ~seed ~count check =
  Result.map
    (fun decoded ->
      let d = List.length (List.filter Fun.id decoded) in
      { mutants = count; decoded = d; rejected = count - d })
    (campaign ?pool ~seed ~count check)

(* The one rule every rejection must pass, images and wire payloads
   alike. *)
let located ~component input (d : Diag.t) =
  match d.loc with
  | Diag.Byte { offset; section }
    when d.component = component
         && offset >= 0
         && offset <= String.length input
         && section <> "" ->
    Ok false
  | _ ->
    Error
      (Printf.sprintf "rejection without a located %S diagnostic: %s" component
         (Diag.render d))

let decode_of = function
  | Conv -> fun s -> ignore (Encode.conv_of_bytes s : Bisa_isa.Conv_prog.t)
  | Block -> fun s -> ignore (Encode.block_of_bytes s : Bisa_isa.Block_prog.t)

(* One mutant: Ok true = decoded, Ok false = rejected at a byte. *)
let check_one fmt img =
  match decode_of fmt img with
  | () -> Ok true
  | exception Encode.Malformed d -> located ~component:"encode" img d
  | exception exn -> Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))

let run ?pool fmt ~seed ~count img =
  (* The pristine image must decode — otherwise the campaign is vacuous. *)
  match decode_of fmt img with
  | exception exn ->
    Error (Printf.sprintf "pristine image failed to decode: %s" (Printexc.to_string exn))
  | () -> tally ?pool ~seed ~count (fun rng -> check_one fmt (mutate rng img))

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

(* A rejection only counts if every diagnostic is structured: a stable
   rule id up front and error severity. *)
let verify_rejection_ok ds =
  match List.find_opt (fun d -> Verify.rule_of d = "") ds with
  | Some d ->
    Error (Printf.sprintf "verifier diagnostic without a rule id: %s" (Diag.render d))
  | None -> Ok Overify

(* The gates, then a functional run and a timing-model run: the timing
   front end is the only caller that fetches speculatively (variant-group
   fetches), so it must also complete without Illegal_fetch on any
   verified program.  [functional] says whether the run halted (and by a
   machine trap) or hit the budget. *)
let check_loaded what img ~decode ~verify ~functional ~timing =
  match decode img with
  | exception Encode.Malformed d ->
    Result.map (fun _ -> Odecode) (located ~component:"encode" img d)
  | exception exn -> Error (Printf.sprintf "decoder raised %s" (Printexc.to_string exn))
  | p -> begin
    match verify p with
    | exception exn -> Error (Printf.sprintf "verifier raised %s" (Printexc.to_string exn))
    | Error ds -> verify_rejection_ok ds
    | Ok w -> begin
      match functional p with
      | exception exn ->
        Error (Printf.sprintf "%s executor raised %s" what (Printexc.to_string exn))
      | `Budgeted -> Ok Obudgeted
      | `Halted trapped -> begin
        match timing p w with
        | () -> Ok (Ocompleted trapped)
        | exception exn ->
          Error (Printf.sprintf "%s timing pipeline raised %s" what (Printexc.to_string exn))
      end
    end
  end

let check_tri fmt ~budget img =
  let cfg = { Bisa_timing.Config.default with Bisa_timing.Config.op_budget = budget } in
  match fmt with
  | Conv ->
    let module E = Bisa_sim.Conv_exec in
    let module P = Bisa_timing.Pipeline.Conv in
    check_loaded "conv" img ~decode:Encode.conv_of_bytes ~verify:Verify.conv_prog
      ~functional:(fun p ->
        let t = E.create p in
        E.set_budget t budget;
        let rec go () = match E.step t with Some _ -> go () | None -> () in
        match go () with
        | () -> `Halted (E.machine_trap t <> None)
        | exception E.Runaway _ -> `Budgeted)
      ~timing:(fun p w ->
        match P.run_artifact cfg (P.bundle ~tables:(Bisa_timing.Predecode.of_conv w) p) with
        | _ -> ()
        | exception E.Runaway _ -> ())
  | Block ->
    let module E = Bisa_sim.Block_exec in
    let module P = Bisa_timing.Pipeline.Block in
    check_loaded "block" img ~decode:Encode.block_of_bytes ~verify:Verify.block_prog
      ~functional:(fun p ->
        let t = E.create p in
        E.set_budget t budget;
        let rec go () = match E.step t with Some _ -> go () | None -> () in
        match go () with
        | () -> `Halted (E.machine_trap t <> None)
        | exception E.Runaway _ -> `Budgeted)
      ~timing:(fun p w ->
        match P.run_artifact cfg (P.bundle ~tables:(Bisa_timing.Predecode.of_block w) p) with
        | _ -> ()
        | exception E.Runaway _ -> ())

let trichotomy ?pool ?(budget = 200_000) fmt ~seed ~count img =
  match check_tri fmt ~budget img with
  | Error e -> Error (Printf.sprintf "pristine image: %s" e)
  | Ok (Odecode | Overify) -> Error "pristine image did not verify"
  | Ok _ ->
    Result.map
      (fun outcomes ->
        let n p = List.length (List.filter p outcomes) in
        {
          t_mutants = count;
          t_rejected_decode = n (( = ) Odecode);
          t_rejected_verify = n (( = ) Overify);
          t_completed = n (function Ocompleted _ -> true | _ -> false);
          t_trapped = n (( = ) (Ocompleted true));
          t_budgeted = n (( = ) Obudgeted);
        })
      (campaign ?pool ~seed ~count (fun rng -> check_tri fmt ~budget (mutate rng img)))
