(* The simulator driver: run a MiniC program, a built-in workload or a
   bisac image on either core, functionally or through the timing model,
   optionally exporting pipeline events as a Chrome trace.  It answers
   through an in-process serving engine, the one `bisad serve` runs, and
   prints the reply with the printer the `bisad` client uses. *)

module Args = Bisa_cli.Args
module Driver = Bisa_cli.Driver
module Request = Bisa_cli.Request
module Engine = Bisa_serve.Engine
module Trace = Bisa_obs.Trace

let component = "bisasim"

let export r ~input ~trace_out ~trace_validate ~timeline =
  (match trace_out with
  | Some path ->
    Trace.write_chrome_json ~process_name:("bisasim " ^ input) r path;
    Printf.printf "wrote %s%s\n" path
      (if Trace.dropped r > 0 then
         Printf.sprintf " (%d events beyond the buffer cap dropped)" (Trace.dropped r)
       else "");
    if trace_validate then begin
      match Trace.validate (Bisa_base.Fs.read_file path) with
      | Ok st ->
        Printf.printf "trace OK: %d events (%d begin/%d end, %d instants, %d counter samples)\n"
          st.events st.begins st.ends st.instants st.counter_events
      | Error e -> Bisa_base.Diag.fail ~component "trace validation failed: %s" e
    end
  | None -> ());
  if timeline then print_string (Trace.occupancy_timeline r)

let run (sim : Request.sim) trace_out trace_sample trace_validate timeline verify_only =
  Driver.guard ~component @@ fun () ->
  (* Only a timing run has pipeline events to record. *)
  let recorder =
    if (trace_out <> None || timeline) && not (sim.functional || verify_only) then
      Some (Trace.recorder ~sample:trace_sample ())
    else None
  in
  let engine = Engine.create ?probe:(Option.map Trace.probe recorder) () in
  let req =
    if verify_only then Request.verification ~component ?scale:sim.scale sim.input
    else Request.simulation ~component sim
  in
  Request.print ~component ~input:sim.input (Engine.handle engine req);
  Option.iter (export ~input:sim.input ~trace_out ~trace_validate ~timeline) recorder;
  `Ok ()

let () =
  let open Cmdliner in
  let trace_validate =
    Arg.(
      value & flag
      & info [ "trace-validate" ]
          ~doc:
            "After writing $(b,--trace-out), re-read and validate it (field order, \
             monotonic timestamps, matched begin/end pairs); exits nonzero on any \
             violation.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Print an ASCII window-occupancy timeline of the run.")
  in
  let verify_only =
    Arg.(
      value & flag
      & info [ "verify-only" ]
          ~doc:
            "Load (or compile) the input, run the static well-formedness verifier \
             on every executable it carries, print each diagnostic, and exit \
             nonzero on rejection — no simulation.")
  in
  let term =
    Term.(
      ret
        (const run $ Request.sim $ Args.trace_out $ Args.trace_sample $ trace_validate
       $ timeline $ verify_only))
  in
  let info = Cmd.info "bisasim" ~doc:"Block-structured ISA processor simulator" in
  exit (Cmd.eval (Cmd.v info term))
