type profile = Full | Smoke

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  profile : profile;
  bisad : string;
}

let usage =
  "usage: main.exe --workload report|sim_long|toolchain|serve [--seed N] [--seconds S] \
   [--trace 0|1] [--profile full|smoke] [--bisad PATH]"

let parse args =
  let ( let* ) = Result.bind in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go acc = function
    | [] -> Ok acc
    | [ flag ] -> Error (Printf.sprintf "%s expects a value" flag)
    | flag :: v :: rest -> (
      match flag with
      | "--workload" ->
        if List.mem v Spec.workloads then go { acc with workload = v } rest
        else Error (Printf.sprintf "unknown workload %S" v)
      | "--seed" ->
        let* seed = int_arg flag v in
        go { acc with seed } rest
      | "--seconds" -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { acc with seconds = s } rest
        | _ -> Error (Printf.sprintf "--seconds expects a positive number, got %S" v))
      | "--trace" -> (
        match v with
        | "0" -> go { acc with trace = false } rest
        | "1" -> go { acc with trace = true } rest
        | _ -> Error (Printf.sprintf "--trace expects 0 or 1, got %S" v))
      | "--profile" -> (
        match v with
        | "full" -> go { acc with profile = Full } rest
        | "smoke" -> go { acc with profile = Smoke } rest
        | _ -> Error (Printf.sprintf "--profile expects full or smoke, got %S" v))
      | "--bisad" -> go { acc with bisad = v } rest
      | _ -> Error (Printf.sprintf "unknown argument %S" flag))
  in
  let* t =
    go
      {
        workload = "";
        seed = 1;
        seconds = 30.;
        trace = false;
        profile = Full;
        bisad = "_build/default/bin/bisad.exe";
      }
      args
  in
  if t.workload = "" then Error "--workload is required" else Ok t
