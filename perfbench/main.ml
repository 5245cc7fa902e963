(* The benchmark command: one workload per process.

     main.exe --workload report|sim_long|toolchain|serve --seed N --seconds S --trace 0|1
              [--profile full|smoke] [--bisad PATH]

   Prints one `name value unit` line per metric, then the result object
   as the last line of stdout; exits 0 iff every output checked was
   correct.  The benchmark passes no executor backend or worker count of
   its own, so it measures the library defaults users run, and it refuses
   to start under any BISA_* variable, which would change them. *)

open Perfbench

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline Cli.usage;
    exit 2
  | Ok cli -> (
    match
      List.find_opt
        (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "BISA_")
        (Array.to_list (Unix.environment ()))
    with
    | Some kv ->
      Printf.eprintf "perfbench: refusing to run with %s set: it changes the defaults measured\n" kv;
      exit 2
    | None ->
      let m = Measure.create cli in
      let run =
        match cli.workload with
        | "report" -> W_report.run
        | "sim_long" -> W_sim_long.run
        | "toolchain" -> W_toolchain.run
        | _ -> W_serve.run
      in
      (match run m with
      | () -> ()
      | exception e ->
        Printf.eprintf "perfbench: %s workload raised %s\n%!" cli.workload (Printexc.to_string e);
        exit 1);
      exit (Measure.finish m))
